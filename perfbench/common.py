"""Shared machinery of the benchmark: environment, timing, spans, output.

Every workload module exposes ``run(ctx) -> Result``.  This module
holds what they share:

* :class:`Context` — checkout paths, the child-process environment,
  the seed, the measured duration and the traced/untraced switch;
* :func:`timed_passes` and :class:`Meter` — the closed loop over *whole
  passes* of a fixed op sequence, so every run of one seed times the
  same ops, with a :class:`Reference` timed between ops that scales
  every time to one machine speed;
* :func:`class_latency` — percentiles taken inside one class of ops
  only, with the tail sample count attached;
* :func:`median_setup` — ``setup_s`` as the median of several fresh
  set-ups;
* :func:`layer_times` — per-layer self time from ``repro.obs`` span
  trees recorded by the benchmark's own code.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7

#: A tail percentile is only meaningful with this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Environment variables that make a run incomparable with normal runs.
GUARDED_VARS = ("REPRO_NATIVE", "REPRO_CACHE_DIR")


@dataclass
class Context:
    root: str
    state: str
    seed: int
    seconds: float
    trace: bool
    env: Dict[str, str]
    python: str = sys.executable
    def path(self, *parts: str) -> str:
        return os.path.join(self.state, *parts)

    def scratch_dir(self, name: str) -> str:
        """A fresh, empty directory under the benchmark's state."""
        path = self.path(name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Result:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the final JSON line.
    lines: List[str] = field(default_factory=list)
    #: Extra data kept in the run record (never in the final JSON line).
    record: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# -- environment --------------------------------------------------------
def make_context(root: str, seed: int, seconds: float, trace: bool) -> Context:
    """Paths and the child environment for a run from checkout ``root``.

    ``HOME`` and ``TMPDIR`` point into the benchmark's state directory,
    so the kernel cache (``~/.cache/repro/kernels``) and every
    temporary file stay inside the checkout and persist across runs
    of one checkout.  ``REPRO_CACHE_DIR`` is deliberately left alone:
    the serve workload passes its fresh cache through ``--cache-dir``.
    """
    state = os.path.join(root, "perfbench", ".state")
    home = os.path.join(state, "home")
    tmp = os.path.join(state, "tmp")
    for path in (home, tmp):
        os.makedirs(path, exist_ok=True)
    src = os.path.join(root, "src")
    os.environ["HOME"] = home
    os.environ["TMPDIR"] = tmp
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONSTARTUP", None)
    if src not in sys.path:
        sys.path.insert(0, src)
    return Context(root=root, state=state, seed=seed, seconds=seconds,
                   trace=trace, env=env)


def environment_record(environ: Dict[str, str]) -> Dict[str, Any]:
    """The run-environment record and its comparability verdict.

    ``environ`` is the run's environment (the caller's, with ``HOME``,
    ``TMPDIR`` and ``PYTHONPATH`` pointed into the checkout).  Builds
    (or loads) the native kernels as a side effect, so a fresh checkout
    pays the ``cc`` build here, before anything is timed.
    """
    import platform

    from repro import obs
    from repro.native import resolve_backend

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    rec = obs.TraceRecorder()
    backend, _ = resolve_backend("auto", recorder=rec)
    fallback = rec.counter_totals().get("native.fallback", 0)
    reasons = []
    if fallback:
        reasons.append("native.fallback > 0")
    jobs = environ.get("REPRO_JOBS")
    if jobs is not None and jobs.strip() != "1":
        reasons.append(f"REPRO_JOBS={jobs}")
    for name in GUARDED_VARS:
        if name in environ:
            reasons.append(f"{name} is set")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": shutil.which("cc") is not None,
        "backend": backend,
        "comparable": not reasons,
        "reasons": reasons,
    }


# -- statistics ---------------------------------------------------------
def class_latency(
    res: Result, prefix: str, samples_s: Sequence[float], label: str
) -> Dict[str, float]:
    """p50/p90 in ms of one op class; adds a human line to ``res``.

    The line states the sample count and how many samples lie beyond
    p90, so a tail resting on fewer than :data:`TAIL_MIN_BEYOND`
    samples is visible as such.
    """
    n = len(samples_s)
    deciles = statistics.quantiles(samples_s, n=10, method="inclusive")
    p50, p90 = deciles[4] * 1e3, deciles[8] * 1e3
    beyond = sum(1 for s in samples_s if s * 1e3 > p90)
    flag = "" if beyond >= TAIL_MIN_BEYOND else "  (tail under 10 samples)"
    res.lines.append(
        f"  {label:<22} p50 {p50:9.3f} ms  p90 {p90:9.3f} ms  "
        f"n={n} beyond_p90={beyond}{flag}"
    )
    return {f"{prefix}p50_ms": p50, f"{prefix}p90_ms": p90,
            f"{prefix}n": n, f"{prefix}beyond_p90": beyond}


# -- machine speed ------------------------------------------------------
@dataclass(frozen=True)
class Reference:
    """A fixed piece of work that gauges the machine's current speed.

    The machine's speed drifts by tens of percent within seconds
    (shared cores), and CPU time drifts with it.  Timing a reference
    just before and just after a measurement and scaling the
    measurement by ``nominal_s / mean(reference)`` reports it at one
    machine speed.  A reference is the benchmark's own code, so a
    change to the program cannot move it.
    """

    measure: Callable[[], float]
    #: The reference's seconds on the 2-core Xeon VM this benchmark was
    #: tuned on; reported times are at that speed.
    nominal_s: float

    def factor(self, before: float, after: float) -> float:
        return 2 * self.nominal_s / (before + after)


class _Cell:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: str) -> None:
        self.a, self.b, self.c = a, b, c


def _loop_work() -> int:
    """Fixed interpreter work that allocates, hashes, probes and sorts.

    Its memory traffic (a fresh 20k-object table each time) makes it
    slow down with the workloads when a neighbour contends for the
    shared caches and memory; a loop over a table built once tracked
    them far worse.
    """
    table: Dict[int, _Cell] = {}
    for i in range(20000):
        table[(i * 2654435761) % 100003] = _Cell(i, i + 1, str(i))
    total = 0
    for k in range(0, 100003, 3):
        cell = table.get(k)
        if cell is not None:
            total += cell.a + len(cell.c)
    return total + len(sorted(table.values(), key=lambda c: c.c))


def _loop_s() -> float:
    """Seconds :func:`_loop_work` takes now.

    The cyclic collector is paused so that the loop's time does not
    depend on how many objects the benchmark process holds.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


#: For in-process Python work: compiles, VM runs, the server's requests.
#: Timed in the benchmark's own process, on the core the work runs on.
LOOP = Reference(_loop_s, 0.030)


def spawn_reference(ctx: Context) -> Reference:
    """For process start-up and imports: a bare interpreter start.

    The median of three ``python -c pass`` runs; the loop above does
    not track start-up, which is dominated by exec, loading and
    ``site``.
    """
    def measure() -> float:
        return statistics.median(
            run_child([ctx.python, "-c", "pass"], ctx.env, ctx.root).wall_s
            for _ in range(3))

    return Reference(measure, 0.075)


# -- the closed loop ----------------------------------------------------
class Meter:
    """Per-op wall and CPU seconds, scaled to one machine speed.

    The workload times each op itself and hands the figures to
    :meth:`add`.  The ``reference`` is timed before the first op, again
    whenever ``every_s`` seconds of op time have passed, and by
    :meth:`finish`; each op is scaled by the readings just before and
    just after its stretch.  Raw figures stay in ``walls``/``cpus``.
    """

    def __init__(self, reference: Reference, every_s: float = 0.25) -> None:
        self.reference = reference
        self.every_s = every_s
        self.walls: List[float] = []
        self.cpus: List[float] = []
        self.tags: List[str] = []
        self.refs: List[float] = []
        self._stretch: List[int] = []
        self._since = 0.0
        self.refs.append(reference.measure())

    def add(self, wall_s: float, cpu_s: float = 0.0, tag: str = "") -> None:
        self.walls.append(wall_s)
        self.cpus.append(cpu_s)
        self.tags.append(tag)
        self._stretch.append(len(self.refs) - 1)
        self._since += wall_s
        if self._since >= self.every_s:
            self.refs.append(self.reference.measure())
            self._since = 0.0

    def finish(self) -> None:
        """Close the last stretch with one more reference reading."""
        if self._since > 0.0:
            self.refs.append(self.reference.measure())
            self._since = 0.0

    def factor(self, index: int) -> float:
        """Scale from raw to reference-speed seconds for op ``index``."""
        k = self._stretch[index]
        return self.reference.factor(self.refs[k], self.refs[k + 1])

    @property
    def ops(self) -> int:
        return len(self.walls)

    @property
    def timed_s(self) -> float:
        return sum(self.walls)

    def scaled(self, tag: Optional[str] = None) -> List[float]:
        """Op wall seconds at reference speed, optionally of one tag."""
        return [w * self.factor(i) for i, w in enumerate(self.walls)
                if tag is None or self.tags[i] == tag]

    @property
    def ops_per_s(self) -> float:
        """Ops per reference-speed second of op wall time."""
        return self.ops / sum(self.scaled())

    @property
    def cpu_s(self) -> float:
        """Reference-speed CPU seconds over all ops."""
        return sum(c * self.factor(i) for i, c in enumerate(self.cpus))

    @property
    def median_factor(self) -> float:
        return self.reference.nominal_s / statistics.median(self.refs)

    def speed_line(self) -> str:
        return (f"  ops {self.ops}  timed {self.timed_s:.2f} s  raw "
                f"{self.ops / self.timed_s:.2f} ops/s  reference median "
                f"{1e3 * statistics.median(self.refs):.2f} ms")


def timed_passes(
    seconds: float,
    meter: Meter,
    one_pass: Callable[[int], None],
    prepare: Optional[Callable[[int], None]] = None,
    check: Optional[Callable[[int], None]] = None,
) -> int:
    """Run whole passes until ``meter`` holds ``seconds`` of op time.

    ``one_pass(index)`` runs the fixed op sequence once, timing each op
    into ``meter``.  ``prepare`` (input encoding) and ``check`` (output
    verification) run before and after each pass, between ops.
    Returns the number of passes.
    """
    index = 0
    while meter.timed_s < seconds:
        if prepare is not None:
            prepare(index)
        one_pass(index)
        if check is not None:
            check(index)
        index += 1
    meter.finish()
    return index


def self_usage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS in MB) of the benchmark's own process."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


# -- child processes ----------------------------------------------------
@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: List[str], env: Dict[str, str], cwd: str,
              timeout: float = 60.0) -> ChildRun:
    """Run ``argv`` to completion; wall time plus that child's rusage.

    The child is reaped with :func:`os.wait4`, so CPU time and peak RSS
    are the child's own (the per-child form of ``RUSAGE_CHILDREN``),
    unaffected by any other process the benchmark started.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc, timeout)
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        cpu_s=ru.ru_utime + ru.ru_stime,
        maxrss_mb=ru.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        stdout=out.decode("utf-8", "replace"),
        stderr=err.decode("utf-8", "replace"),
    )


def _drain(proc: subprocess.Popen, timeout: float) -> Tuple[bytes, bytes]:
    """Read both pipes to EOF without reaping the child."""
    import selectors

    deadline = time.monotonic() + timeout
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"child {proc.args!r} timed out")
            for key, _ in sel.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def median_setup(ctx: Context, one_setup: Callable[[], float],
                 samples: int = SETUP_SAMPLES) -> Tuple[float, List[float]]:
    """``setup_s``: the median of ``samples`` fresh set-ups, in seconds.

    Each set-up is scaled by the interpreter-start reference timed just
    before and just after it.
    """
    reference = spawn_reference(ctx)
    before = reference.measure()
    times = []
    for _ in range(samples):
        seconds = one_setup()
        after = reference.measure()
        times.append(seconds * reference.factor(before, after))
        before = after
    return statistics.median(times), times


def probe_setup(ctx: Context, workload: str) -> float:
    """Seconds from spawning ``probe.py workload`` to its ready line."""
    argv = [ctx.python, os.path.join(HERE, "probe.py"), workload]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=ctx.env, cwd=ctx.root,
                            stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed ({code})")
    return ready


# -- spans --------------------------------------------------------------
def layer_times(roots) -> Dict[str, List[float]]:
    """Self seconds of every span, grouped by span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    out: Dict[str, List[float]] = {}
    stack = list(roots)
    while stack:
        span = stack.pop()
        covered = 0.0
        reach = span.start
        for child in sorted(span.children, key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.setdefault(span.name, []).append(span.duration - covered)
        stack.extend(span.children)
    return out


def mean_ms(values: Sequence[float]) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def write_spans(recorder, path: str) -> int:
    """Write every span as one JSON line: name, start, end, parent, op."""
    rows = []

    def walk(span, parent: Optional[int], op: Any) -> None:
        op = span.attrs.get("op", op)
        ident = len(rows)
        rows.append({"id": ident, "parent": parent, "name": span.name,
                     "start": span.start, "end": span.end, "op": op})
        for child in span.children:
            walk(child, ident, op)

    for root in recorder.roots:
        walk(root, None, None)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return len(rows)
