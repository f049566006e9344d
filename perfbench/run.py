"""The repository's benchmark: one workload per run, end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Workloads: ``cli_cold``, ``compile``, ``serve``, ``execute`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics
named in ``BENCHMARK.json``; ``--trace 1`` runs the same ops with
spans and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
of the run (environment, op classes, failures) is written under
``perfbench/.state/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import HERE, Result, make_context, run_child
from corpus import DEFAULT_SEED

WORKLOADS = {
    "cli_cold": "wl_cli",
    "compile": "wl_compile",
    "serve": "wl_serve",
    "execute": "wl_execute",
}


def _spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _metrics(res: Result, spec: dict, traced: bool) -> dict:
    """The metrics the spec names for this mode, in spec order.

    End-to-end metrics must all be measured.  A per-layer metric that
    this workload does not exercise reads 0.
    """
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name in res.metrics:
            value, unit = res.metrics[name]
            if unit != entry["unit"]:
                raise RuntimeError(f"{name}: unit {unit} != {entry['unit']}")
        elif traced:
            value = 0.0
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = _spec(root)
    ctx = make_context(root, args.seed, args.seconds, bool(args.trace))
    probe = run_child([ctx.python, os.path.join(HERE, "probe.py"),
                       "environment"], ctx.env, root, timeout=600)
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr)
        return 1
    env = json.loads(probe.stdout)

    module = importlib.import_module(WORKLOADS[args.workload])
    res = module.run(ctx)
    if res.attempted:
        res.put("ok_ratio", (res.attempted - res.failed) / res.attempted,
                "ratio")
    metrics = _metrics(res, spec, ctx.trace)

    mode = "traced" if ctx.trace else "end-to-end"
    print(f"perfbench {args.workload} seed={args.seed} {mode}")
    print(f"  environment: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} cc={env['cc']} backend={env['backend']}"
          f" comparable={'yes' if env['comparable'] else 'NO'} "
          f"{'; '.join(env['reasons'])}".rstrip())
    for line in res.lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:14.6f} {m['unit']}")
    for failure in res.failures:
        print(f"  FAILED: {failure}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics,
              "failures": res.failures, **res.record}
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(ctx.path(name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
