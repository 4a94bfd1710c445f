"""Batched exact-kNN executor: one shared SIMS pass for many queries.

Answering queries one at a time repeats the two expensive steps of
Algorithm 5 per query: loading/scanning the summary column and fetching
unpruned records from disk.  A batch shares both.  The engine computes
every query's lower-bound vector over the same in-memory summaries,
takes the *union* of unpruned positions, and walks that union once in
ascending storage order — each fetched block of records is evaluated
against every query that still needs it, so a page is read once per
pass and serves the whole batch.  When that union holds more than
:data:`~repro.core.knn.REFINE_FIRST_ROWS` rows, a prime pass first
refines each short heap's lowest-bound rows (:func:`prime_short_heaps`),
so the walk starts at thresholds close to the final ones.

It is the one exact engine.  Every SIMS index's ``exact_knn`` and
exact ``query_batch`` make one call of it
(:class:`repro.core.sims.SIMSIndex`), and the 1-NN
:func:`repro.core.sims.sims_scan` behind ``exact_search`` is its seeded
``k = 1`` one-query call.  Only a ``k = 1`` search is seeded from the
approximate probe: one probe answer fills a 1-NN heap, while a
``k > 1`` heap would stay short and be primed anyway, so library
``k > 1`` batches and ``exact_knn`` calls run unseeded, as served
exact tickets do.
Results are exact: pruning uses per-query thresholds that only ever
shrink, and keeps every record whose bound reaches one (``<=``), so
every record that could beat or tie a query's k-th best distance is
visited on that query's behalf, and each heap keeps the smallest
``(distance, id)`` pairs.  The cross-index equivalence suite asserts
this against the serial-scan oracle for every index variant.
"""

from __future__ import annotations

import numpy as np

from ..core.knn import REFINE_FIRST_ROWS, KNNOutcome, _BoundedMaxHeap, refine_block
from ..core.sims import SIMS_BLOCK_RECORDS, fetch_rows_that_can_win
from ..core.summary_column import WordColumn
from ..summaries.paa import paa
from ..summaries.sax import SAXConfig

#: Cap on the Q x N lower-bound matrix the engine materializes; larger
#: batches are split into query sub-batches (fetch sharing is then per
#: sub-batch, but memory stays ~128 MB instead of growing with Q x N).
MAX_MINDIST_CELLS = 16_000_000


def batched_exact_knn(
    queries: np.ndarray,
    k: int,
    column: WordColumn,
    config: SAXConfig,
    fetch,
    seeds: list[list[tuple[float, int]]] | None = None,
    block_records: int = SIMS_BLOCK_RECORDS,
) -> list[KNNOutcome]:
    """Exact k nearest neighbors for every query in one shared pass.

    ``queries`` is a (Q, n) batch (one query: ``query[None]``),
    ``column`` the summary column in storage order and ``fetch`` its
    fetch (:data:`repro.core.sims.FetchFn`).  ``seeds`` holds one
    (distance, id) seed list per query, from an approximate pass (ids
    < 0 are ignored), which tightens the pruning bound from the start;
    a ``seeds`` of any other length is refused before anything is
    fetched.  ``fetch`` is
    called with ascending positions exactly once per unpruned block —
    the same skip-sequential contract as the per-query engine, shared
    batch-wide — in two passes when some heap is short of k and the
    candidate union holds more than
    :data:`~repro.core.knn.REFINE_FIRST_ROWS` rows: the prime pass
    (:func:`prime_short_heaps`), then the walk over the union
    recomputed at the primed thresholds.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = len(queries)
    if seeds is not None and len(seeds) != n_queries:
        raise ValueError(
            f"seeds holds {len(seeds)} seed lists for {n_queries} queries"
        )
    n = len(column)
    if n_queries > 1 and n_queries * n > MAX_MINDIST_CELLS:
        half = n_queries // 2
        seeds = seeds or [[] for _ in range(n_queries)]
        return batched_exact_knn(
            queries[:half], k, column, config, fetch, seeds[:half], block_records
        ) + batched_exact_knn(
            queries[half:], k, column, config, fetch, seeds[half:], block_records
        )
    heaps = seeded_heaps(n_queries, k, seeds)
    if n == 0 or n_queries == 0:
        return [heap.outcome(0, n) for heap in heaps]
    query_paa = paa(queries, config.word_length)
    mindists = column.lower_bounds(query_paa)
    union = candidate_union(mindists, heaps)
    primed = [0] * n_queries
    short = [i for i, heap in enumerate(heaps) if heap.threshold == float("inf")]
    if short and k <= REFINE_FIRST_ROWS < len(union):
        primed = prime_short_heaps(queries, heaps, short, mindists, fetch, block_records)
        union = candidate_union(mindists, heaps)
    walked = walk_candidate_blocks(queries, heaps, mindists, union, fetch, block_records)
    return [
        heap.outcome(primed[i] + walked[i], n) for i, heap in enumerate(heaps)
    ]


def seeded_heaps(
    n_queries: int,
    k: int,
    seeds: list[list[tuple[float, int]]] | None,
) -> list[_BoundedMaxHeap]:
    """One bounded heap per query, primed with its seed list."""
    heaps = [_BoundedMaxHeap(k) for _ in range(n_queries)]
    for heap, pairs in zip(heaps, seeds or []):
        for distance, identifier in pairs:
            if identifier >= 0:
                heap.offer(float(distance), int(identifier))
    return heaps


def candidate_union(mindists: np.ndarray, heaps: list[_BoundedMaxHeap]) -> np.ndarray:
    """Ascending positions whose bound reaches some query's threshold.

    ``<=``, not ``<``: a row whose bound equals the k-th distance may
    tie it at a smaller id, and ties are ranked by id.
    """
    thresholds = np.array([[heap.threshold] for heap in heaps])
    return np.logical_or.reduce(mindists <= thresholds).nonzero()[0]


def prime_short_heaps(
    queries: np.ndarray,
    heaps: list[_BoundedMaxHeap],
    short: list[int],
    mindists: np.ndarray,
    fetch,
    block_records: int,
) -> list[int]:
    """Refine each short heap's lowest-bound rows; returns visited counts.

    A heap is short while its threshold is ``inf`` (fewer than k
    entries); ``short`` lists the short heaps, of ``k <=
    REFINE_FIRST_ROWS``.  Each takes its
    :data:`~repro.core.knn.REFINE_FIRST_ROWS` lowest-bound positions,
    which usually hold its k nearest neighbors.  The union of those
    positions is fetched in ascending order, block by block, and each
    short query refines only its own rows
    (:func:`repro.core.knn.refine_block`).  Its heap is then full at a
    threshold near the final one, where the walk that follows prunes
    almost everything.

    Exact: the primed distances are exact and a threshold only shrinks.
    A primed row has been offered to its query's heap, so its bound in
    ``mindists`` is set to ``inf``: the walk never fetches it for that
    query again, and each row counts once in ``visited_records``.  The
    caller primes only a union of more than ``REFINE_FIRST_ROWS`` rows,
    so every primed heap is full and its threshold finite, and no
    ``inf`` bound reaches it.
    """
    visited = [0] * len(heaps)
    own = np.argpartition(mindists[short], REFINE_FIRST_ROWS - 1, axis=1)
    own = own[:, :REFINE_FIRST_ROWS]
    positions = np.unique(own)
    member = np.zeros((len(short), len(positions)), dtype=bool)
    member[np.arange(len(short))[:, None], np.searchsorted(positions, own)] = True
    for start in range(0, len(positions), block_records):
        block = positions[start : start + block_records]
        series, identifiers = fetch(block)
        for j, i in enumerate(short):
            rows = np.flatnonzero(member[j, start : start + len(block)])
            if len(rows):
                refine_block(queries[i], series, identifiers, rows, heaps[i])
    for j, i in enumerate(short):
        visited[i] = REFINE_FIRST_ROWS
        mindists[i, own[j]] = float("inf")
    return visited


def walk_candidate_blocks(
    queries: np.ndarray,
    heaps: list[_BoundedMaxHeap],
    mindists: np.ndarray,
    candidates: np.ndarray,
    fetch,
    block_records: int,
) -> list[int]:
    """The shared SIMS fetch loop; returns per-query visited counts.

    Walks ``candidates`` (ascending positions into ``mindists``
    columns) block by block: thresholds shrink as true distances come
    in, so each block is re-filtered per query (bound ``<=``
    threshold, as in :func:`candidate_union`) before the union of
    survivors is fetched once.  Each query's rows lose those
    :func:`repro.core.sims.rows_that_can_win` rules out against its
    heap's threshold, then are refined by
    :func:`repro.core.knn.refine_block` lowest bound first: the k
    lowest-bound kept rows, then only the others whose bound reaches
    the threshold they leave, which is usually none of them.
    """
    visited = [0] * len(queries)
    for start in range(0, len(candidates), block_records):
        block = candidates[start : start + block_records]
        thresholds = [heap.threshold for heap in heaps]
        need = mindists[:, block] <= np.array(thresholds)[:, None]
        alive = np.logical_or.reduce(need).nonzero()[0]
        if len(alive) < len(block):
            if len(alive) == 0:
                continue
            block, need = block[alive], need[:, alive]
        wanted, wants = [], []
        for i, threshold in enumerate(thresholds):
            rows = need[i].nonzero()[0]
            if len(rows):
                # Every row fetched for a query counts as visited, even
                # one the distance bound proves useless without an
                # exact distance.
                visited[i] += len(rows)
                wanted.append(i)
                wants.append((queries[i], rows, threshold))
        series, identifiers, kept, bounds = fetch_rows_that_can_win(
            fetch, block, wants
        )
        for i, rows, row_bounds in zip(wanted, kept, bounds):
            if len(rows):
                refine_block(
                    queries[i], series, identifiers, rows, heaps[i], row_bounds
                )
    return visited
