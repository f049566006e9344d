"""Native kernel speedups: the cc-compiled chain DP vs the Python path.

Writes the ``BENCH_PR8.json`` perf trajectory file.  Three comparisons:

* **chain-DP stage** — the SDPPO dynamic program (EQ 5) over one fixed
  lexical order, timed two ways on random graphs of growing size:
  ``scalar`` (the pure-Python recurrence the 10x acceptance bar is
  anchored on) and ``native`` (the cc-compiled kernel).  Both modes
  must produce bit-identical costs, tables and schedules; the native
  kernel must be >= 10x faster than scalar at the largest size.
* **kernel artifact cache** — one cold ``cc`` build into a throwaway
  cache vs the content-addressed reload every later process pays.
* **end-to-end cold compile** — the same large document through an
  uncached :class:`repro.serve.CompileService` with
  ``backend="python"`` vs ``backend="native"``; reports must be
  bit-identical and native must win wall-clock.

Timings are interleaved round-robin keeping the per-mode minimum, so a
background hiccup cannot charge one mode for noise another escaped.

Usage::

    python benchmarks/bench_native.py --out BENCH_PR8.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.scheduling.common as common  # noqa: E402
from repro.experiments.runner import TimingReport  # noqa: E402
from repro.native import build_kernel, get_kernels  # noqa: E402
from repro.scheduling.sdppo import sdppo  # noqa: E402
from repro.sdf.io import to_json  # noqa: E402
from repro.sdf.random_graphs import random_sdf_graph  # noqa: E402
from repro.serve import CompileOptions, CompileService  # noqa: E402

#: Acceptance bar: native vs pure-Python scalar DP at the largest size.
MIN_DP_SPEEDUP = 10.0

SIZES = (40, 80, 150, 250)


def _time_sdppo(graph, order, mode):
    """One fresh-context SDPPO run under ``mode``; returns (wall, result).

    A fresh :class:`ChainContext` per run keeps the window-cost cache
    cold, so every mode pays the same precomputation and the timing
    isolates the DP itself.
    """
    context = common.ChainContext(graph, order)
    backend = "native" if mode == "native" else "python"
    t0 = time.perf_counter()
    result = sdppo(graph, order, context=context, backend=backend)
    return time.perf_counter() - t0, result


def bench_dp(report, repeat):
    """The chain-DP sweep; returns the largest size's scalar/native ratio."""
    modes = ["scalar", "native"]
    final_speedup = None
    for n in SIZES:
        graph = random_sdf_graph(n, seed=5, max_repetition=6)
        order = graph.topological_order()
        best = dict.fromkeys(modes)
        signature = None
        for _ in range(max(1, repeat)):
            for mode in modes:
                wall, result = _time_sdppo(graph, order, mode)
                sig = (result.cost, result.b, str(result.schedule))
                if signature is None:
                    signature = sig
                assert sig == signature, (
                    f"{mode} result differs from scalar at n={n}"
                )
                if best[mode] is None or wall < best[mode]:
                    best[mode] = wall
        speedup_scalar = best["scalar"] / best["native"]
        row = {
            "actors": n,
            "scalar_wall_s": round(best["scalar"], 6),
            "speedup_vs_scalar": round(speedup_scalar, 2),
        }
        report.record(f"sdppo_native_n{n}", best["native"], **row)
        print(
            f"  sdppo n={n}: scalar {1000 * best['scalar']:8.1f}ms  "
            f"native {1000 * best['native']:7.1f}ms  "
            f"({speedup_scalar:.1f}x)"
        )
        final_speedup = speedup_scalar
    return final_speedup


def bench_kernel_cache(report):
    """Cold cc build vs content-addressed reload from the artifact cache."""
    with tempfile.TemporaryDirectory(prefix="repro-kernels-") as root:
        t0 = time.perf_counter()
        build_kernel(cache_root=root)
        cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        build_kernel(cache_root=root)
        warm = time.perf_counter() - t0
    report.record("kernel_cold_build", cold)
    report.record(
        "kernel_cache_load", warm,
        speedup_vs_build=round(cold / warm, 2) if warm > 0 else None,
    )
    print(
        f"  kernel: cold build {1000 * cold:.1f}ms  "
        f"cache load {1000 * warm:.2f}ms"
    )


def bench_end_to_end(report, repeat):
    """Uncached CompileService wall, python vs native backend."""
    graph = random_sdf_graph(SIZES[-1], seed=7, max_repetition=6)
    document = to_json(graph)
    best = {"python": None, "native": None}
    canonical = set()
    for _ in range(max(1, repeat)):
        for mode in ("python", "native"):
            service = CompileService(cache=None)
            t0 = time.perf_counter()
            out, _status = service.compile_document(
                document, CompileOptions(backend=mode)
            )
            wall = time.perf_counter() - t0
            canonical.add(out.canonical())
            if best[mode] is None or wall < best[mode]:
                best[mode] = wall
    assert len(canonical) == 1, "end-to-end backends disagree"
    speedup = best["python"] / best["native"]
    report.record(
        "serve_cold_compile_native", best["native"],
        actors=SIZES[-1],
        python_wall_s=round(best["python"], 6),
        speedup_vs_python=round(speedup, 2),
    )
    print(
        f"  cold compile n={SIZES[-1]}: python {1000 * best['python']:.1f}ms  "
        f"native {1000 * best['native']:.1f}ms  ({speedup:.2f}x)"
    )
    return speedup


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_PR8.json")
    parser.add_argument("--repeat", type=int, default=3,
                        help="interleaved rounds; the minimum wall is kept")
    args = parser.parse_args(argv)

    if get_kernels() is None:
        print("no native kernel available (no cc or REPRO_NATIVE=0); "
              "nothing to benchmark", file=sys.stderr)
        return 1

    report = TimingReport()
    print("chain-DP stage:")
    dp_speedup = bench_dp(report, args.repeat)
    print("kernel artifact cache:")
    bench_kernel_cache(report)
    print("end-to-end:")
    e2e_speedup = bench_end_to_end(report, args.repeat)

    with open(args.out, "w") as fh:
        json.dump(report.rows, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    assert dp_speedup >= MIN_DP_SPEEDUP, (
        f"native DP speedup {dp_speedup:.1f}x at n={SIZES[-1]} is below "
        f"the {MIN_DP_SPEEDUP}x bar"
    )
    assert e2e_speedup > 1.0, (
        f"native end-to-end cold compile is not a win ({e2e_speedup:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
