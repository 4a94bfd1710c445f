"""DTW-compatible similarity search over Coconut indexes.

The paper (Sec. 2) notes that data series indexes use ED but "simple
modifications can be applied to make them compatible with DTW".  This
module implements that modification for Coconut, following the
envelope construction of Keogh's LB_Keogh lineage:

1. Build the query's Sakoe-Chiba envelope (U, L).
2. Per SAX segment, take ``Umax`` (the max of U) and ``Lmin`` (the min
   of L).  For any candidate whose segment *mean* falls in the SAX
   region [lo, hi], convexity of ``x -> max(0, x - a)**2`` gives

       DTW(Q, C)^2 >= LB_Keogh(Q, C)^2
                   >= sum_s len_s * (max(0, lo_s - Umax_s)^2
                                     + max(0, Lmin_s - hi_s)^2)

   so the SAX words alone yield a valid DTW lower bound.
3. Scan summaries with this bound (SIMS-style), refine survivors with
   the point-wise LB_Keogh, and compute constrained DTW only for what
   remains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..series.distance import check_window, dtw, lb_keogh
from ..summaries.sax import (
    CellIndex,
    SAXConfig,
    bounds_from_tables,
    extended_breakpoints,
)
from ..summaries.paa import segment_boundaries


def query_envelope(query: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The Sakoe-Chiba envelope (upper, lower) of a query series."""
    query = np.asarray(query, dtype=np.float64).ravel()
    window = check_window(window)
    n = len(query)
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        upper[i] = query[lo:hi].max()
        lower[i] = query[lo:hi].min()
    return upper, lower


def envelope_segment_bounds(
    upper: np.ndarray, lower: np.ndarray, config: SAXConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-SAX-segment (Umax, Lmin) of the envelope."""
    bounds = segment_boundaries(len(upper), config.word_length)
    u_max = np.maximum.reduceat(upper, bounds[:-1])
    l_min = np.minimum.reduceat(lower, bounds[:-1])
    return u_max, l_min


def dtw_mindist_to_words(
    upper: np.ndarray,
    lower: np.ndarray,
    words: "np.ndarray | CellIndex",
    config: SAXConfig,
) -> np.ndarray:
    """Vectorized DTW lower bound from a query envelope to SAX words.

    The gap of a (segment, symbol) cell depends on the envelope alone,
    so it is evaluated once per cell — a ``(word_length, cardinality)``
    table — and gathered per record by the Euclidean scan's kernel
    (``words``: symbols, or a column's :class:`CellIndex` over them).
    """
    u_max, l_min = envelope_segment_bounds(upper, lower, config)
    u_max, l_min = u_max[:, None], l_min[:, None]
    ext = extended_breakpoints(config.cardinality)
    region_lo, region_hi = ext[:-1], ext[1:]
    above = np.where(region_lo > u_max, region_lo - u_max, 0.0)
    below = np.where(region_hi < l_min, l_min - region_hi, 0.0)
    gap = above + below
    index = CellIndex.of(words, config)
    return bounds_from_tables((gap * gap).reshape(1, -1), index, config)[0]


@dataclass
class DTWSearchResult:
    answer_idx: int
    distance: float
    visited_records: int
    refined_records: int
    pruned_fraction: float


def dtw_exact_search(
    index,
    query: np.ndarray,
    window: int,
    block_records: int = 2048,
) -> DTWSearchResult:
    """Exact 1-NN under constrained DTW over a Coconut index.

    ``index`` is any built SIMS-backed Coconut index (Tree, Trie or
    LSM, either variant); the scan reuses its summary column and fetch
    path, so I/O is charged to the same simulated disk.  The query
    (its length, NaN / inf) and ``window`` are checked once, before
    anything is read: ``ValueError`` leaves ``DiskStats`` untouched.
    The answer is the smallest ``(distance, id)`` pair, so among tying
    series it names brute force's smallest id.
    """
    query = index._query_array(query)
    window = check_window(window)
    column, fetch = index._prepare_sims()
    upper, lower = query_envelope(query, window)
    bounds = column.dtw_lower_bounds(upper, lower)

    # Seed: DTW distance to the best ED approximate answer.
    seed = index._seed(query)
    bsf = float("inf")
    answer = -1
    if seed.answer_idx >= 0:
        candidate = index.raw.get(seed.answer_idx).astype(np.float64)
        bsf = dtw(query, candidate, window=window)
        answer = seed.answer_idx

    # A bound equal to ``bsf`` may still tie it at a smaller id, so only
    # a bound strictly above it prunes, and ties go to the smaller id.
    order = np.nonzero(bounds <= bsf)[0]
    visited = refined = 0
    for start in range(0, len(order), block_records):
        block = order[start : start + block_records]
        block = block[bounds[block] <= bsf]
        if len(block) == 0:
            continue
        series, identifiers = fetch(block)
        visited += len(block)
        for row, identifier in zip(series, identifiers):
            row = row.astype(np.float64)
            if lb_keogh(query, row, window) > bsf:
                continue
            refined += 1
            distance = dtw(query, row, window=window)
            if (distance, int(identifier)) < (bsf, answer):
                bsf = distance
                answer = int(identifier)
    n = len(column)
    return DTWSearchResult(
        answer_idx=answer,
        distance=bsf,
        visited_records=visited,
        refined_records=refined,
        pruned_fraction=1.0 - visited / n if n else 0.0,
    )
