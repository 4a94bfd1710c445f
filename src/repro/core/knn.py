"""k-nearest-neighbor search over Coconut indexes.

The paper defines similarity search as 1-NN (Definition 2) but the
data mining tasks it motivates (classification, clustering, deviation
detection) consume k nearest neighbors; this module generalizes the
SIMS engine accordingly.  The scan keeps a bounded max-heap of the k
best answers and prunes against the k-th best distance — with k = 1 it
degenerates to Algorithm 5 exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..series.distance import early_abandon_euclidean_block
from ..summaries.paa import paa
from ..summaries.sax import SAXConfig
from .sims import SIMS_BLOCK_RECORDS, FetchFn
from .summary_column import WordColumn


@dataclass
class KNNOutcome:
    """k answers in ascending distance order (plus I/O, when measured)."""

    answer_ids: list[int]
    distances: list[float]
    visited_records: int
    pruned_fraction: float
    io: object | None = None
    simulated_io_ms: float = 0.0
    wall_s: float = 0.0

    @property
    def total_cost_s(self) -> float:
        return self.simulated_io_ms / 1000.0 + self.wall_s


class _BoundedMaxHeap:
    """Keeps the k lexicographically smallest (distance, id) pairs.

    The retained set is a pure function of the *multiset* of offered
    pairs — k smallest under ``(distance, identifier)`` order, one
    entry per identifier — never of the order they were offered in.
    Offers commute, so merging heaps built over disjoint parts of an
    offer stream gives exactly the heap of one pass over the union,
    ties included.
    """

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        # (-distance, -identifier): heap[0] is the lex-largest retained
        # pair, the one a better offer evicts first.
        self._heap: list[tuple[float, int]] = []
        self._ids: set[int] = set()

    def offer(self, distance: float, identifier: int) -> None:
        if identifier in self._ids:
            return
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-distance, -identifier))
            self._ids.add(identifier)
        elif (-distance, -identifier) > self._heap[0]:
            evicted = heapq.heapreplace(self._heap, (-distance, -identifier))
            self._ids.discard(-evicted[1])
            self._ids.add(identifier)

    def offer_block(
        self, distances: np.ndarray, identifiers: np.ndarray
    ) -> None:
        """Offer one refined block; same heap as offering it row by row.

        Rows above the current threshold cannot enter a full heap
        (thresholds only shrink); a block offered to a short heap has
        already lost, in :func:`refine_block`, the rows whose bound
        rules them out.  Of the rest, only the
        ``k + len(heap)`` lexicographically smallest ``(distance, id)``
        pairs are offered, in block order: at most ``len(heap)`` of
        them revisit an identifier the heap holds, which leaves the
        ``k`` smallest new pairs — all the order-independent heap can
        retain of the block.

        Identifiers must be distinct within the block (one fetch of
        distinct positions).  The heap then equals the per-row loop's
        whenever a revisit changes nothing in that loop: the identifier
        is still held, or comes back no better than what evicted it.
        The engines' only revisits are approximate-probe seeds (the
        best one, or on the served path all of them), each at its own
        distance up to the rounding of a different distance kernel —
        which is why the cut keeps slack for held identifiers instead
        of assuming a revisit ranks where the held pair does.
        """
        distances = np.asarray(distances, dtype=np.float64)
        identifiers = np.asarray(identifiers)
        rows = np.nonzero(distances <= self.threshold)[0]
        cut = self.k + len(self._heap)
        if len(rows) > cut:
            candidates = distances[rows]
            last = np.partition(candidates, cut - 1)[cut - 1]
            below = rows[candidates < last]
            # Distance ties at the cut are ranked by identifier.
            tied = rows[candidates == last]
            tied = tied[np.argsort(identifiers[tied], kind="stable")]
            rows = np.sort(np.concatenate([below, tied[: cut - len(below)]]))
        for distance, identifier in zip(
            distances[rows].tolist(), identifiers[rows].tolist()
        ):
            self.offer(distance, identifier)

    def merge(self, other: "_BoundedMaxHeap") -> None:
        """Offer every pair another heap retained (coordinator merge)."""
        for distance, identifier in other.items():
            self.offer(distance, identifier)

    def items(self) -> list[tuple[float, int]]:
        """Retained (distance, id) pairs in arbitrary order."""
        return [(-d, -i) for d, i in self._heap]

    @property
    def threshold(self) -> float:
        """The pruning bound: k-th best distance (inf until k found)."""
        if len(self._heap) < self.k:
            return float("inf")
        return -self._heap[0][0]

    def sorted_items(self) -> list[tuple[float, int]]:
        return sorted((-d, -i) for d, i in self._heap)


#: Lowest-bound rows :func:`refine_block` refines to find a threshold
#: while the heap it feeds is short of k entries.
REFINE_FIRST_ROWS = 64


def refine_block(
    query: np.ndarray,
    series: np.ndarray,
    identifiers: np.ndarray,
    rows: np.ndarray,
    bounds: np.ndarray,
    heap: _BoundedMaxHeap,
) -> None:
    """Offer the distances of ``series[rows]`` to ``heap`` in one offer.

    ``rows`` are ascending distinct positions into ``series``,
    ``identifiers`` and ``bounds``, the lower bound of every fetched
    row.  While the heap is short of k entries its threshold is ``inf``
    and prunes nothing, so a block of more than
    :data:`REFINE_FIRST_ROWS` rows first refines that many
    lowest-bound rows: their k-th best distance is a threshold the heap
    will reach, and only the rows whose bound is ``<=`` it are refined
    and offered (``<=`` keeps a row that may tie the k-th distance at a
    smaller id).  Otherwise every row is.

    The heap ends as if every row had been offered: distances are
    row-wise, so a row refined twice gets the same bits; a row whose
    bound exceeds a threshold the heap reaches has a distance above it
    and can never be retained; and the rows still go to
    :meth:`_BoundedMaxHeap.offer_block` together, in storage order.
    """
    if heap.threshold == float("inf") and heap.k <= REFINE_FIRST_ROWS < len(rows):
        row_bounds = bounds[rows]
        first = np.argpartition(row_bounds, REFINE_FIRST_ROWS)[:REFINE_FIRST_ROWS]
        distances = early_abandon_euclidean_block(
            query, series[rows[first]], float("inf")
        )
        reached = np.partition(distances, heap.k - 1)[heap.k - 1]
        rows = rows[row_bounds <= reached]
    if len(rows) < len(series):  # else ``rows`` is every row, in order
        series, identifiers = series[rows], identifiers[rows]
    # A row the kernel abandons (``inf``) has distance strictly above
    # the threshold, so its offer was doomed anyway (thresholds only
    # shrink).
    distances = early_abandon_euclidean_block(query, series, heap.threshold)
    heap.offer_block(distances, identifiers)


def seeded_sims_knn(index, query: np.ndarray, k: int, prepare) -> KNNOutcome:
    """Shared exact-kNN wrapper for SIMS-backed indexes.

    Runs the approximate search as a pruning seed, then the kNN scan
    over whatever column/fetch the index's ``prepare`` callback
    yields — all inside one measurement so I/O (including any summary
    load ``prepare`` performs) is charged to the query.
    """
    from ..indexes.base import Measurement  # deferred: base imports core

    query = index._query_array(query)
    with Measurement(index.disk) as measure:
        column, fetch = prepare()
        seed = index.approximate_search(query)
        seeds = (
            [(seed.distance, seed.answer_idx)] if seed.answer_idx >= 0 else []
        )
        outcome = sims_knn_scan(
            query, k, column, index.config, fetch, seed_distances=seeds
        )
    outcome.visited_records += seed.visited_records
    outcome.io = measure.io
    outcome.simulated_io_ms = measure.simulated_io_ms
    outcome.wall_s = measure.wall_s
    return outcome


def sims_knn_scan(
    query: np.ndarray,
    k: int,
    column: WordColumn,
    config: SAXConfig,
    fetch: FetchFn,
    seed_distances: list[tuple[float, int]] | None = None,
    block_records: int = SIMS_BLOCK_RECORDS,
) -> KNNOutcome:
    """Exact k-NN via the skip-sequential summary scan.

    ``seed_distances`` are (distance, id) pairs from an approximate
    pass; they tighten the pruning bound from the start.  Each fetched
    block is refined by :func:`refine_block`: lowest bounds first while
    the heap is short of k, then only the rows that can still enter.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    heap = _BoundedMaxHeap(k)
    for distance, identifier in seed_distances or []:
        heap.offer(float(distance), int(identifier))
    query_paa = paa(query, config.word_length)[0]
    mindists = column.lower_bounds(query_paa)
    candidates = np.nonzero(mindists < heap.threshold)[0]
    visited = 0
    for start in range(0, len(candidates), block_records):
        block = candidates[start : start + block_records]
        block = block[mindists[block] < heap.threshold]
        if len(block) == 0:
            continue
        series, identifiers = fetch(block)
        refine_block(
            query, series, identifiers, np.arange(len(block)),
            mindists[block], heap,
        )
        visited += len(block)
    items = heap.sorted_items()
    n = len(column)
    return KNNOutcome(
        answer_ids=[i for _, i in items],
        distances=[d for d, _ in items],
        visited_records=visited,
        pruned_fraction=1.0 - (visited / n) if n else 0.0,
    )
