"""Scheduling algorithms: DPPO, SDPPO, chain DP, APGAN, RPMC, pipeline."""

from .._lazy import attach

# ``dppo``, ``sdppo``, ``chain_sdppo``, ``apgan`` and ``rpmc`` share
# their submodule's name, so ``attach`` binds them eagerly.
__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "OptimalSASResult": ".exhaustive",
    "optimal_sas": ".exhaustive",
    "CyclicScheduleResult": ".cyclic",
    "cluster_cycles": ".cyclic",
    "schedule_cyclic": ".cyclic",
    "strongly_connected_components": ".cyclic",
    "ChainContext": ".common",
    "SplitTable": ".common",
    "build_schedule_from_splits": ".common",
    "DPPOResult": ".dppo",
    "dppo": ".dppo",
    "SDPPOResult": ".sdppo",
    "sdppo": ".sdppo",
    "ChainSDPPOResult": ".chain_sdppo",
    "CostTriple": ".chain_sdppo",
    "chain_sdppo": ".chain_sdppo",
    "combine_triples": ".chain_sdppo",
    "APGANResult": ".apgan",
    "apgan": ".apgan",
    "RPMCResult": ".rpmc",
    "rpmc": ".rpmc",
    "CompilationSession": ".session",
    "ImplementationResult": ".pipeline",
    "BestResult": ".pipeline",
    "implement": ".pipeline",
    "implement_best": ".pipeline",
    "VectorizeResult": ".vectorize",
    "vectorize_schedule": ".vectorize",
})
