"""The benchmark's own determinism checks.

Run from the repository root::

    python -m pytest perfbench/tests -q

They pin what makes two runs of one seed comparable: the generated
inputs, the counters of the traced run, the compile replay against
``implement()``, and ``/stats`` against the planned request mix.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
from common import make_context  # noqa: E402


def _docs(ops):
    from repro.sdf.io import canonical_hash

    return [(label, canonical_hash(graph), vec) for label, graph, vec in ops]


def test_same_seed_same_inputs_other_seed_other_graphs():
    one = _docs(corpus.compile_ops(7))
    assert one == _docs(corpus.compile_ops(7))
    other = _docs(corpus.compile_ops(8))
    assert sorted(label for label, _h, _v in one) == sorted(
        label for label, _h, _v in other)
    assert set(one) != set(other)
    assert corpus.serve_plan(7) == corpus.serve_plan(7)
    assert corpus.execute_order(7) == corpus.execute_order(7)


def test_pinned_totals_hold_the_paper_anchor():
    pins = corpus.pinned()
    assert pins["plain"]["satrec"] == 262
    assert set(pins["plain"]) == set(corpus.SYSTEMS)
    assert set(pins["vectorized"]) == set(corpus.SYSTEMS)


def test_compile_replay_reproduces_implement():
    from repro import obs
    from repro.scheduling.pipeline import implement
    from wl_compile import replay, signature

    rec = obs.TraceRecorder()
    for i, (label, graph, vec) in enumerate(corpus.compile_ops(3)):
        direct = signature(implement(graph, vectorize=vec))
        assert replay(graph, vec, rec, str(i)) == direct, label


def _run(workload, trace, seed=5, seconds=1):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout[-3000:]
    return result


@pytest.mark.parametrize("workload", ["compile", "execute", "serve"])
def test_traced_counters_repeat_exactly(workload):
    first = _run(workload, trace=1)["metrics"]
    second = _run(workload, trace=1)["metrics"]
    counts = {n: m["value"] for n, m in first.items() if m["unit"] == "count"}
    assert any(counts.values())
    assert counts == {n: m["value"] for n, m in second.items()
                      if m["unit"] == "count"}


def test_serve_stats_match_the_planned_mix():
    import wl_serve
    from common import Result

    ctx = make_context(ROOT, seed=2, seconds=1e-6, trace=False)
    warm = wl_serve.Warm()
    server, _ = wl_serve.start_warm(ctx, warm)
    try:
        res = Result()
        session, meter = wl_serve._measure(ctx, warm, server, res, 1e-6)
    finally:
        server.close()
    cycles = len(corpus.MISS_SIZES)
    assert meter.ops == len(wl_serve.CYCLE) * cycles
    assert res.failed == 0, res.failures
    assert session.pass_stats == {
        "requests": 6 * cycles, "hits": 12 * cycles, "misses": cycles,
        "compiled": cycles, "errors": 0, "rejected": 0, "timeouts": 0,
    }


def test_end_to_end_metrics_match_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = _run("execute", trace=0)
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(BENCH, name),
                                            "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
