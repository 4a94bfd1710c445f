"""Skip-sequential scan of in-memory summarizations (SIMS).

The exact-search engine shared by the Coconut indexes (Algorithm 5,
CoconutTreeSIMS) and the ADS baseline (the original SIMS).  The
summarizations of the whole collection are held in memory, a vectorized
pass computes a lower bound for every record, and only records whose
bound beats the best-so-far answer are fetched from disk — in storage
order, so the disk head only moves forward (skip-sequential access).

The caller provides the summary array (aligned with its on-disk record
order) and a fetch callback; this module owns the pruning loop, which
re-filters after every fetched block because the best-so-far keeps
shrinking as real distances come in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..series.distance import early_abandon_euclidean_block
from ..summaries.paa import paa
from ..summaries.sax import SAXConfig, mindist_paa_to_words

#: fetch(positions ascending) -> (series matrix, identifier per row)
FetchFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Records refined per skip-sequential fetch block.  Shared by every
#: SIMS-style engine (single-query, batched, parallel) so thresholds
#: are re-consulted on the same cadence everywhere, and used by the
#: query scheduler as the ceiling on its fetch-partition floor (a
#: partition never needs to be larger than one refine block).
SIMS_BLOCK_RECORDS = 4096


@dataclass
class SIMSOutcome:
    answer_id: int
    distance: float
    visited_records: int
    pruned_fraction: float


def sims_scan(
    query: np.ndarray,
    words: np.ndarray,
    config: SAXConfig,
    fetch: FetchFn,
    initial_bsf: float = float("inf"),
    initial_answer: int = -1,
    block_records: int = SIMS_BLOCK_RECORDS,
) -> SIMSOutcome:
    """Exact nearest neighbor via lower-bound scan + skip-sequential fetch.

    Parameters
    ----------
    query:
        Raw (z-normalized) query series.
    words:
        (N, word_length) full-cardinality SAX words, in the same order
        as the records are laid out on disk.
    fetch:
        Callback that reads raw series for ascending positions and
        returns (series rows, identifier per row).  It is responsible
        for charging I/O to the simulated disk.
    initial_bsf / initial_answer:
        Best-so-far seeded by a preceding approximate search; the
        better the seed, the more records are pruned (paper Fig. 9d-f).
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    query_paa = paa(query, config.word_length)[0]
    mindists = mindist_paa_to_words(query_paa, words, config)
    bsf = float(initial_bsf)
    answer = int(initial_answer)
    candidates = np.nonzero(mindists < bsf)[0]
    visited = 0
    for start in range(0, len(candidates), block_records):
        block = candidates[start : start + block_records]
        # bsf may have shrunk since the candidate list was computed.
        block = block[mindists[block] < bsf]
        if len(block) == 0:
            continue
        series, identifiers = fetch(block)
        # A row the kernel abandons (``inf``) provably has distance
        # > bsf, so it could never have won the argmin update below.
        distances = early_abandon_euclidean_block(query, series, bsf)
        visited += len(block)
        best = int(np.argmin(distances))
        if distances[best] < bsf:
            bsf = float(distances[best])
            answer = int(identifiers[best])
    n = len(words)
    pruned = 1.0 - (visited / n) if n else 0.0
    return SIMSOutcome(
        answer_id=answer,
        distance=bsf,
        visited_records=visited,
        pruned_fraction=pruned,
    )
