"""k-nearest-neighbor search over Coconut indexes.

The paper defines similarity search as 1-NN (Definition 2) but the
data mining tasks it motivates (classification, clustering, deviation
detection) consume k nearest neighbors.  This module holds what every
k-NN search refines with: the bounded max-heap of the k best
``(distance, id)`` pairs whose k-th distance is the pruning threshold,
the refine of one fetched block into it, the :class:`KNNOutcome` it
answers, and the brute-force scan (:func:`scan_knn`).  The SIMS engine
over them is :func:`repro.parallel.batch.batched_exact_knn`; with
k = 1 it is Algorithm 5 exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..series.distance import early_abandon_euclidean_block


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
    Offers commute, ties included, so an engine may offer a block's
    rows in any order it likes.
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
        (thresholds only shrink).  Of the rest, only the
        ``k + len(heap)`` lexicographically smallest ``(distance, id)``
        pairs are offered, in block order: at most ``len(heap)`` of
        them revisit an identifier the heap holds, which leaves the
        ``k`` smallest new pairs — all the order-independent heap can
        retain of the block.

        Identifiers must be distinct within the block (one fetch of
        distinct positions).  The heap then equals the per-row loop's
        whenever a revisit changes nothing in that loop: the identifier
        is still held, or comes back no better than what evicted it.
        The engines' only revisit is the approximate probe's seed, its
        best answer, at its own distance up to the rounding of a
        different distance kernel — which is why the cut keeps slack
        for held identifiers instead of assuming a revisit ranks where
        the held pair does.
        """
        distances = np.asarray(distances, dtype=np.float64)
        identifiers = np.asarray(identifiers)
        rows = (distances <= self.threshold).nonzero()[0]
        if len(rows) == 0:
            return
        cut = self.k + len(self._heap)
        if len(rows) > cut:
            bar = np.partition(distances[rows], cut - 1)[cut - 1]
            rows = rows[distances[rows] <= bar]
            if len(rows) > cut:  # distance ties at the cut are ranked by identifier
                ranked = np.lexsort((identifiers[rows], distances[rows]))
                rows = np.sort(rows[ranked[:cut]])
        for distance, identifier in zip(
            distances[rows].tolist(), identifiers[rows].tolist()
        ):
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

    def outcome(self, visited: int, n_records: int) -> KNNOutcome:
        """The retained answers, ascending, as a :class:`KNNOutcome` of a
        search that refined ``visited`` of ``n_records`` records."""
        items = self.sorted_items()
        return KNNOutcome(
            answer_ids=[identifier for _, identifier in items],
            distances=[distance for distance, _ in items],
            visited_records=visited,
            pruned_fraction=1.0 - (visited / n_records) if n_records else 0.0,
        )


#: Lowest-bound rows the prime pass
#: (:func:`repro.parallel.batch.prime_short_heaps`) refines for each
#: heap that is short of k entries.
REFINE_FIRST_ROWS = 64


def refine_block(
    query: np.ndarray,
    series: np.ndarray,
    identifiers: np.ndarray,
    rows: np.ndarray,
    heap: _BoundedMaxHeap,
    bounds: np.ndarray | None = None,
) -> None:
    """Offer the distances of ``series[rows]`` that can enter ``heap``.

    ``rows`` are ascending distinct positions into ``series`` and
    ``identifiers``.  Without ``bounds`` they are refined in one call
    and go to :meth:`_BoundedMaxHeap.offer_block` together, in storage
    order, so the heap ends as if each row had been offered on its own.

    ``bounds`` holds a lower bound of each row's distance
    (:func:`repro.core.sims.fetch_rows_that_can_win`).  With more rows
    than ``heap.k``, the refine takes the lowest bound first: the
    ``k`` rows with the lowest bounds are refined and offered, then
    only the other rows whose bound is ``<=`` the threshold the heap
    has after them.  A row left out has a bound, so a distance,
    strictly above a threshold that only shrinks: no offer could have
    admitted it.  Offers commute, so the heap ends as the one-call
    refine leaves it.
    """
    if bounds is not None and len(rows) > heap.k:
        first = np.zeros(len(rows), dtype=bool)
        first[np.argpartition(bounds, heap.k - 1)[: heap.k]] = True
        _refine(query, series, identifiers, rows[first], heap)
        rows = rows[~first & (bounds <= heap.threshold)]
        if len(rows) == 0:
            return
    _refine(query, series, identifiers, rows, heap)


def _refine(query, series, identifiers, rows, heap) -> None:
    """Refine ``series[rows]`` in one kernel call and one offer."""
    if len(rows) < len(series):  # else ``rows`` is every row, in order
        series, identifiers = series[rows], identifiers[rows]
    # A row the kernel abandons (``inf``) has distance strictly above
    # the threshold, so its offer was doomed anyway (thresholds only
    # shrink).
    distances = early_abandon_euclidean_block(query, series, heap.threshold)
    heap.offer_block(distances, identifiers)


def scan_knn(raw, queries: np.ndarray, k: int) -> list[KNNOutcome]:
    """Brute force: the exact k nearest neighbors of every query in
    ``queries`` (a checked ``(Q, n)`` batch) in one pass over ``raw``.

    ``raw.scan()`` is streamed once; each block is refined for each
    query against that query's k-th best at the block's start.  A row
    the kernel abandons (``inf``) sits strictly above it, so every heap
    retains exactly what a full-distance scan would, ties ranked by id.
    Every record counts as visited.
    """
    heaps = [_BoundedMaxHeap(k) for _ in queries]
    for start, block in raw.scan():
        identifiers = np.arange(start, start + len(block))
        for heap, query in zip(heaps, queries):
            distances = early_abandon_euclidean_block(query, block, heap.threshold)
            heap.offer_block(distances, identifiers)
    return [heap.outcome(raw.n_series, raw.n_series) for heap in heaps]

