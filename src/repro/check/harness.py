"""The differential check driver: random graphs through every oracle.

One *trial* generates a random consistent SDF graph (delays and vector
tokens included, so circular buffers and word-multiplied sizes are
exercised), compiles it with a randomly chosen topological-sort method,
and runs the full oracle battery of :mod:`repro.check.oracles`.  Any
violation is shrunk to a minimal reproducing graph before being
reported, ready to be pinned as a regression test.

A separate one-shot oracle cross-checks the serial and parallel paths
of the experiment runner on identical task lists.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..sdf.graph import SDFGraph
from ..sdf.random_graphs import (
    random_broadcast_sdf_graph,
    random_cyclic_sdf_graph,
    random_sdf_graph,
)
from ..lifetimes.periodic import DEFAULT_OCCURRENCE_CAP
from ..scheduling.pipeline import implement
from ..experiments.runner import parallel_map
from .fault_injection import InjectionReport, run_injection_selftest
from .oracles import build_artifacts, cyclic_oracles, run_oracles
from .shrink import shrink_graph

__all__ = [
    "CheckFailure",
    "CheckReport",
    "DEFAULT_FAMILIES",
    "broadcast_trial_graph",
    "cyclic_trial_graph",
    "describe_graph",
    "delayed_split_chain",
    "run_check",
    "trial_graph",
]

_METHODS = ("rpmc", "apgan", "natural")

#: Trial families ``run_check`` cycles through by default.  ``acyclic``
#: is the original battery (with the every-fifth delayed chain);
#: ``broadcast`` adds graphs with broadcast groups (plus the
#: sharing-win oracle); ``cyclic`` routes graphs with feedback edges
#: through :func:`repro.check.oracles.cyclic_oracles`.
DEFAULT_FAMILIES = ("acyclic", "broadcast", "cyclic")

#: Reusable stand-in when ``run_check`` has no recorder.
_NO_SPAN = nullcontext()


def describe_graph(graph: SDFGraph) -> str:
    """A one-line reconstruction recipe for a (small) graph."""
    edges = ", ".join(
        f"{e.source}-{e.production}/{e.consumption}->{e.sink}"
        + (f" delay={e.delay}" if e.delay else "")
        + (f" words={e.token_size}" if e.token_size != 1 else "")
        + (f" [{e.broadcast}]" if e.broadcast else "")
        for e in graph.edges()
    )
    return f"actors={graph.actor_names()} edges=[{edges}]"


@dataclass
class CheckFailure:
    """One trial whose artifacts violated at least one oracle."""

    trial: int
    graph_seed: int
    method: str
    violations: List[str]
    graph_summary: str
    shrunk_summary: Optional[str] = None
    shrunk_violations: List[str] = field(default_factory=list)


@dataclass
class CheckReport:
    """Everything one ``repro check`` run established."""

    trials: int
    seed: int
    failures: List[CheckFailure] = field(default_factory=list)
    runner_violations: List[str] = field(default_factory=list)
    injection: Optional[InjectionReport] = None

    @property
    def ok(self) -> bool:
        if self.failures or self.runner_violations:
            return False
        if self.injection is not None and not self.injection.all_caught:
            return False
        return True

    def summary_lines(self) -> List[str]:
        lines = [
            f"{self.trials} differential trial(s), seed {self.seed}: "
            f"{len(self.failures)} failure(s)"
        ]
        for f in self.failures:
            lines.append(
                f"  trial {f.trial} (graph seed {f.graph_seed}, "
                f"{f.method}): {len(f.violations)} violation(s)"
            )
            for v in f.violations[:4]:
                lines.append(f"    {v}")
            lines.append(f"    graph: {f.graph_summary}")
            if f.shrunk_summary:
                lines.append(f"    shrunk: {f.shrunk_summary}")
        for v in self.runner_violations:
            lines.append(f"  runner: {v}")
        if self.injection is not None:
            verdict = (
                "all caught" if self.injection.all_caught
                else "MUTATIONS MISSED"
            )
            lines.append(
                f"fault injection ({len(self.injection.outcomes)} "
                f"classes): {verdict}"
            )
            lines.extend("  " + l for l in self.injection.summary_lines())
        return lines


def trial_graph(graph_seed: int) -> SDFGraph:
    """The deterministic random graph for one trial.

    Built on :func:`random_sdf_graph`, then decorated: up to two edges
    get initial tokens (circular buffers in the VM and generated code)
    and some edges get multi-word tokens.  The decoration preserves
    consistency — a DAG stays deadlock-free under added delays, and
    token size never enters the balance equations.
    """
    rng = random.Random(graph_seed)
    base = random_sdf_graph(
        rng.randint(2, 9),
        seed=rng.randrange(2 ** 30),
        max_repetition=rng.choice((4, 6, 10)),
    )
    decorated = SDFGraph(f"check{graph_seed}")
    for a in base.actors():
        decorated.add_actor(a.name, a.execution_time)
    edges = base.edge_list()
    delayed = set()
    if edges and rng.random() < 0.7:
        for e in rng.sample(edges, k=min(len(edges), rng.randint(1, 2))):
            delayed.add(e.key)
    for e in edges:
        delay = 0
        if e.key in delayed:
            delay = e.consumption * rng.randint(1, 2)
        token_size = rng.choice((1, 1, 1, 2, 3))
        decorated.add_edge(
            e.source, e.sink, e.production, e.consumption,
            delay=delay, token_size=token_size,
        )
    return decorated


def delayed_split_chain(graph_seed: int) -> SDFGraph:
    """A chain whose *internal* edges carry initial tokens.

    Chain graphs route through the precise section 6 DP and their
    delayed internal edges exercise the episodic/persistent split at
    every window boundary — the exact configuration that used to fall
    outside the ``mlt <= sdppo_cost`` / ``mlt <= total`` oracles.  Any
    rate pair is consistent on a chain, and a DAG stays deadlock-free
    under added delays.
    """
    rng = random.Random(graph_seed)
    n = rng.randint(3, 7)
    g = SDFGraph(f"chaincheck{graph_seed}")
    names = [f"c{i}" for i in range(n)]
    for name in names:
        g.add_actor(name)
    interior = list(range(1, n - 2)) or [0]
    delayed = set(rng.sample(interior, k=min(len(interior), rng.randint(1, 2))))
    for i in range(n - 1):
        p, c = rng.randint(1, 4), rng.randint(1, 4)
        delay = c * rng.randint(1, 2) if i in delayed else 0
        g.add_edge(
            names[i], names[i + 1], p, c,
            delay=delay, token_size=rng.choice((1, 1, 2)),
        )
    return g


def broadcast_trial_graph(graph_seed: int) -> SDFGraph:
    """The deterministic broadcast-family graph for one trial.

    Small graphs with one or two broadcast groups (some delayed, some
    with multi-word tokens), pushed through the full oracle battery
    plus the sharing-win comparison against the k-parallel-edges model.
    """
    rng = random.Random(graph_seed)
    return random_broadcast_sdf_graph(
        rng.randint(4, 9),
        seed=rng.randrange(2 ** 30),
        num_groups=rng.randint(1, 2),
        max_fanout=3,
        delayed_group_fraction=0.3,
        token_size_choices=(1, 1, 2),
        max_repetition=rng.choice((4, 6)),
        name=f"bcastcheck{graph_seed}",
    )


def cyclic_trial_graph(graph_seed: int) -> SDFGraph:
    """The deterministic cyclic-family graph for one trial.

    Consistent graphs with one or two feedback edges whose initial
    tokens make them schedulable — the SCC clustering, greedy
    subschedule, and (where single appearance) the downstream shared
    memory pipeline all run under the interpreter's judgment.
    """
    rng = random.Random(graph_seed)
    return random_cyclic_sdf_graph(
        rng.randint(3, 8),
        seed=rng.randrange(2 ** 30),
        num_feedback=rng.randint(1, 2),
        delay_factor=rng.choice((1, 1, 2)),
        max_repetition=rng.choice((4, 6)),
        name=f"cycliccheck{graph_seed}",
    )


def _violations_for(
    graph: SDFGraph,
    method: str,
    seed: int,
    occurrence_cap: int,
    recorder=None,
) -> List[str]:
    art = build_artifacts(
        graph, method=method, seed=seed, occurrence_cap=occurrence_cap,
        recorder=recorder,
    )
    return run_oracles(art, recorder=recorder)


def _runner_probe(task_seed: int) -> Tuple[int, int, int, int]:
    """Picklable per-task statistic for the serial/parallel cross-check."""
    graph = random_sdf_graph(4, seed=task_seed)
    r = implement(graph, "apgan")
    return (r.dppo_cost, r.sdppo_cost, r.allocation.total, r.mco)


def runner_oracles(seed: int, tasks: int = 6) -> List[str]:
    """Serial vs parallel experiment statistics must be bit-identical.

    When the environment cannot create worker processes the parallel
    path degrades to serial and the check passes vacuously — that
    degradation itself is the documented contract.
    """
    task_seeds = [seed * 101 + i for i in range(tasks)]
    serial = parallel_map(_runner_probe, task_seeds, jobs=1)
    fanned = parallel_map(_runner_probe, task_seeds, jobs=2)
    if serial != fanned:
        return [
            f"parallel_map(jobs=2) disagrees with serial run: "
            f"{fanned} != {serial}"
        ]
    return []


def run_check(
    trials: int = 25,
    seed: int = 0,
    inject: bool = False,
    occurrence_cap: int = DEFAULT_OCCURRENCE_CAP,
    shrink: bool = True,
    recorder=None,
    families: Tuple[str, ...] = DEFAULT_FAMILIES,
) -> CheckReport:
    """Run the full differential check and return the evidence.

    Parameters
    ----------
    trials:
        Number of random graphs pushed through the oracle battery.
        Every fifth trial swaps the general random graph for a
        :func:`delayed_split_chain`, keeping the precise chain DP's
        episodic/persistent split under differential pressure.
    seed:
        Root seed; trial ``i`` uses graph seed ``seed * 100000 + i``,
        so a failing trial is reproducible in isolation.
    inject:
        Also run the mutation-kill self-test
        (:func:`repro.check.fault_injection.run_injection_selftest`).
    shrink:
        Minimize each failing graph before reporting it.
    recorder:
        Optional :class:`repro.obs.Recorder`; each trial runs under a
        span (with the graph seed and method as attributes, oracle
        groups nested below), so the exported trace shows which
        oracle dominated the run.
    families:
        Which trial families to cycle through (trial ``i`` draws
        ``families[i % len(families)]``); any non-empty subset of
        :data:`DEFAULT_FAMILIES`.

    The trial pipelines pick their DP kernel as
    :func:`~repro.scheduling.pipeline.implement` does; ``repro check``
    loads the kernel first, so with a compiler every trial compiles on
    it, and the ``oracle.native`` group reruns each trial's DPs on the
    Python recurrence and pins bit-identity.
    """
    if not families:
        raise ValueError("families must be non-empty")
    unknown = set(families) - set(DEFAULT_FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown check families {sorted(unknown)!r}; "
            f"known: {list(DEFAULT_FAMILIES)}"
        )
    report = CheckReport(trials=trials, seed=seed)
    rng = random.Random(seed)
    for trial in range(trials):
        graph_seed = seed * 100000 + trial
        family = families[trial % len(families)]
        if family == "cyclic":
            graph = cyclic_trial_graph(graph_seed)
            method = "cyclic"
        elif family == "broadcast":
            graph = broadcast_trial_graph(graph_seed)
            method = rng.choice(_METHODS)
        elif trial % 5 == 4:
            graph = delayed_split_chain(graph_seed)
            method = rng.choice(_METHODS)
        else:
            graph = trial_graph(graph_seed)
            method = rng.choice(_METHODS)
        if recorder is not None:
            trial_span = recorder.span(
                "check.trial", trial=trial, graph=graph.name, method=method
            )
        else:
            trial_span = _NO_SPAN

        def violations_for(candidate: SDFGraph, rec=None) -> List[str]:
            if family == "cyclic":
                return cyclic_oracles(
                    candidate, occurrence_cap=occurrence_cap, recorder=rec
                )
            return _violations_for(
                candidate, method, seed, occurrence_cap, recorder=rec,
            )

        try:
            with trial_span:
                violations = violations_for(graph, rec=recorder)
        except Exception as exc:  # a crash is a failure, not an abort
            violations = [f"harness: pipeline raised {exc!r}"]
        if not violations:
            continue
        failure = CheckFailure(
            trial=trial,
            graph_seed=graph_seed,
            method=method,
            violations=violations,
            graph_summary=describe_graph(graph),
        )
        if shrink:
            def still_fails(candidate: SDFGraph) -> bool:
                return bool(violations_for(candidate))

            shrunk = shrink_graph(graph, still_fails)
            if shrunk is not graph:
                failure.shrunk_summary = describe_graph(shrunk)
                try:
                    failure.shrunk_violations = violations_for(shrunk)
                except Exception as exc:
                    failure.shrunk_violations = [
                        f"harness: pipeline raised {exc!r}"
                    ]
        report.failures.append(failure)

    with (recorder.span("check.runner") if recorder is not None
          else _NO_SPAN):
        report.runner_violations = runner_oracles(seed)
    if inject:
        with (recorder.span("check.injection") if recorder is not None
              else _NO_SPAN):
            report.injection = run_injection_selftest(seed=seed)
    return report
