"""Cross-layer differential checking (the always-on oracle subsystem).

Wherever two layers claim the same quantity, the claim is checkable:
the block-level replay and the symbolic closed forms vs a naive
firing-at-a-time reference, native vs Python DP, serial vs parallel
runners, session-trusted vs re-validated orders.  This package
generates random consistent SDF graphs, runs them through the full
compilation pipeline, and cross-checks every layer pair:

* schedule replay vs :class:`~repro.codegen.vm.SharedMemoryVM` vs
  generated-Python execution (:mod:`repro.codegen.py_emitter`);
* the block-level replay (:class:`~repro.sdf.simulate.BlockScan`) and
  the loop-compressed :class:`~repro.sdf.symbolic.SymbolicTrace` vs a
  naive full-snapshot reference (validity, ``max_tokens``, liveness,
  live-array peaks), on pipeline, cyclic and blocked schedules;
* SDPPO's predicted shared cost vs realized lifetime/allocation totals;
* first-fit vs :func:`~repro.allocation.verify.verify_allocation` vs
  the branch-and-bound optimum on small instances;
* serial vs parallel experiment-runner statistics.

Two mechanisms keep the oracles honest:

* **fault injection** (:mod:`repro.check.fault_injection`) applies
  seeded mutations — perturbed offsets, dropped intersection-graph
  edges, skewed loop bounds, understated totals, shrunk buffers — and
  asserts each one is *caught*: a mutation-kill self-test proving the
  oracles have teeth;
* **counterexample shrinking** (:mod:`repro.check.shrink`) minimizes a
  failing graph while preserving the failure, so every discovered bug
  arrives as a small reproducible regression test.

Entry points: ``python -m repro check [--trials N --seed S --inject]``
and ``make check``.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "CheckFailure": ".harness",
    "CheckReport": ".harness",
    "DEFAULT_FAMILIES": ".harness",
    "InjectionOutcome": ".fault_injection",
    "InjectionReport": ".fault_injection",
    "MUTATION_CLASSES": ".fault_injection",
    "PipelineArtifacts": ".oracles",
    "broadcast_oracles": ".oracles",
    "build_artifacts": ".oracles",
    "cyclic_oracles": ".oracles",
    "run_check": ".harness",
    "run_injection_selftest": ".fault_injection",
    "run_oracles": ".oracles",
    "shrink_graph": ".shrink",
})
