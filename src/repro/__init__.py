"""Shared-memory implementations of synchronous dataflow specifications.

A from-scratch reproduction of Murthy & Bhattacharyya, *"Shared Memory
Implementations of Synchronous Dataflow Specifications Using Lifetime
Analysis Techniques"* (DATE 2000): SDF scheduling that minimizes data
memory by overlaying buffers with disjoint lifetimes.

Quickstart
----------
>>> from repro import SDFGraph, implement_best
>>> g = SDFGraph("example")
>>> _ = g.add_actors("ABC")
>>> _ = g.add_edge("A", "B", 10, 2)
>>> _ = g.add_edge("B", "C", 2, 3)
>>> result = implement_best(g)
>>> result.best_shared <= result.best_nonshared
True

See ``examples/`` for complete scenarios and ``DESIGN.md`` for the
module map.
"""

from ._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "SDFError": ".exceptions",
    "GraphStructureError": ".exceptions",
    "InconsistentGraphError": ".exceptions",
    "ScheduleError": ".exceptions",
    "AllocationError": ".exceptions",
    "CodegenError": ".exceptions",
    "Actor": ".sdf.graph",
    "Edge": ".sdf.graph",
    "SDFGraph": ".sdf.graph",
    "Firing": ".sdf.schedule",
    "Loop": ".sdf.schedule",
    "LoopedSchedule": ".sdf.schedule",
    "parse_schedule": ".sdf.schedule",
    "flat_single_appearance_schedule": ".sdf.schedule",
    "repetitions_vector": ".sdf.repetitions",
    "is_consistent": ".sdf.repetitions",
    "validate_schedule": ".sdf.simulate",
    "is_valid_schedule": ".sdf.simulate",
    "max_tokens": ".sdf.simulate",
    "buffer_memory_nonshared": ".sdf.simulate",
    "bmlb": ".sdf.bounds",
    "dppo": ".scheduling.dppo",
    "sdppo": ".scheduling.sdppo",
    "chain_sdppo": ".scheduling.chain_sdppo",
    "apgan": ".scheduling.apgan",
    "rpmc": ".scheduling.rpmc",
    "implement": ".scheduling.pipeline",
    "implement_best": ".scheduling.pipeline",
    "PeriodicLifetime": ".lifetimes.periodic",
    "ScheduleTree": ".lifetimes.schedule_tree",
    "extract_lifetimes": ".lifetimes.intervals",
    "allocate": ".allocation.first_fit",
    "ffdur": ".allocation.first_fit",
    "ffstart": ".allocation.first_fit",
    "first_fit": ".allocation.first_fit",
    "mcw_optimistic": ".allocation.clique",
    "mcw_pessimistic": ".allocation.clique",
    "verify_allocation": ".allocation.verify",
}, extra=("__version__",))
