"""Extensions beyond the paper's core flow (sections 11.1.4 and 12).

* :mod:`buffer_merging` — CBP-zero in-place merging of an actor's input
  and output buffers (section 12's "buffer merging" future work);
* :mod:`regularity` — the optimal-looping DP over firing sequences that
  section 12 proposes for regularity extraction (reference [2]);
* :mod:`higher_order` — the "Chain" higher-order constructor of
  figure 29 and the fine-grained FIR it generates;
* :mod:`nas` — two-appearance schedules trading code size for buffer
  memory (section 11.1.4, after Sung et al. [25]).
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "MergeCandidate": ".buffer_merging",
    "find_merge_candidates": ".buffer_merging",
    "merged_allocation": ".buffer_merging",
    "optimal_looping": ".regularity",
    "compress_firing_sequence": ".regularity",
    "strip_instance_suffix": ".regularity",
    "SubgraphTemplate": ".higher_order",
    "chain_expand": ".higher_order",
    "fir_graph": ".higher_order",
    "TwoAppearanceResult": ".nas",
    "two_appearance_search": ".nas",
})
