"""Dynamic storage allocation: WIG, first-fit, clique bounds, verification."""

from .._lazy import attach

# ``first_fit`` shares its submodule's name, so ``attach`` binds it
# eagerly.
__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "optimal_allocation": ".optimal",
    "IntersectionGraph": ".intersection_graph",
    "build_intersection_graph": ".intersection_graph",
    "Allocation": ".first_fit",
    "FirstFitResult": ".first_fit",
    "allocate": ".first_fit",
    "first_fit": ".first_fit",
    "ffdur": ".first_fit",
    "ffstart": ".first_fit",
    "clique_weight_at": ".clique",
    "mcw_optimistic": ".clique",
    "mcw_pessimistic": ".clique",
    "mcw_exact_occurrences": ".clique",
    "find_conflicts": ".verify",
    "verify_allocation": ".verify",
})
