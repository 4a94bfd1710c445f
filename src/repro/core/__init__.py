"""The paper's contribution: sortable summarizations and Coconut indexes."""

from .coconut_tree import CoconutTree
from .coconut_trie import CoconutTrie
from .dtw_search import (
    DTWSearchResult,
    dtw_exact_search,
    dtw_mindist_to_words,
    query_envelope,
)
from .invsax import (
    deinterleave_keys,
    int_to_key,
    interleave_words,
    invsax_keys,
    key_bytes,
    key_to_int,
    query_key,
    sortable_summary_size,
)
from .knn import KNNOutcome
from .lsm import CoconutLSM
from .sims import sims_scan
from .zorder import (
    Quantizer,
    deinterleave_codes,
    interleave_codes,
    zorder_keys_for_features,
)

__all__ = [
    "CoconutLSM",
    "CoconutTree",
    "CoconutTrie",
    "DTWSearchResult",
    "KNNOutcome",
    "Quantizer",
    "deinterleave_codes",
    "dtw_exact_search",
    "dtw_mindist_to_words",
    "interleave_codes",
    "query_envelope",
    "zorder_keys_for_features",
    "deinterleave_keys",
    "int_to_key",
    "interleave_words",
    "invsax_keys",
    "key_bytes",
    "key_to_int",
    "query_key",
    "sims_scan",
    "sortable_summary_size",
]
