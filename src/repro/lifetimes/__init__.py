"""Lifetime analysis: schedule trees, periodic intervals, extraction."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "DEFAULT_OCCURRENCE_CAP": ".periodic",
    "fine_grained_peak": ".granularity",
    "granularity_levels": ".granularity",
    "PeriodicLifetime": ".periodic",
    "ScheduleTree": ".schedule_tree",
    "ScheduleTreeNode": ".schedule_tree",
    "LifetimeSet": ".intervals",
    "extract_lifetimes": ".intervals",
    "lifetime_for_edge": ".intervals",
})
