"""Comparison baselines: flat-SAS sharing, dynamic scheduling, random search."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "FlatSharingResult": ".flat_sharing",
    "flat_shared_implementation": ".flat_sharing",
    "DynamicScheduleResult": ".dynamic_scheduler",
    "demand_driven_schedule": ".dynamic_scheduler",
    "RandomSearchResult": ".random_search",
    "random_search": ".random_search",
})
