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

Results are exact and identical to the per-query engine: pruning uses
per-query thresholds that only ever shrink, so every record that could
beat a query's k-th best distance is visited on that query's behalf.
The cross-index equivalence suite asserts this against the serial-scan
oracle and the per-query path for every index variant.
"""

from __future__ import annotations

import numpy as np

from ..core.knn import REFINE_FIRST_ROWS, KNNOutcome, _BoundedMaxHeap, refine_block
from ..core.sims import SIMS_BLOCK_RECORDS, fetch_rows_that_can_win
from ..core.summary_column import WordColumn
from ..indexes.base import BatchReport, Measurement, QueryResult
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

    Parameters mirror :func:`repro.core.knn.sims_knn_scan`, except that
    ``queries`` is a (Q, n) batch and ``seeds`` holds one (distance,
    id) seed list per query (ids < 0 are ignored); a ``seeds`` of any
    other length is refused before anything is fetched.  ``fetch`` is
    called with ascending positions exactly once per unpruned block —
    the same skip-sequential contract as the per-query engine, shared
    batch-wide — in two passes when the candidate union holds more
    than :data:`~repro.core.knn.REFINE_FIRST_ROWS` rows: the prime pass
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
        return [
            _outcome(heap, visited=0, n_records=n) for heap in heaps
        ]
    query_paa = paa(queries, config.word_length)
    mindists = column.lower_bounds(query_paa)
    union = candidate_union(mindists, heaps)
    visited = np.zeros(n_queries, dtype=np.int64)
    if len(union) > REFINE_FIRST_ROWS:
        visited += prime_short_heaps(queries, heaps, mindists, fetch, block_records)
        union = candidate_union(mindists, heaps)
    visited += walk_candidate_blocks(
        queries, heaps, mindists, union, fetch, block_records
    )
    return [
        _outcome(heap, visited=int(visited[i]), n_records=n)
        for i, heap in enumerate(heaps)
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
    """Ascending positions whose bound beats some query's threshold."""
    thresholds = np.array([heap.threshold for heap in heaps])
    return np.nonzero((mindists < thresholds[:, None]).any(axis=0))[0]


def prime_short_heaps(
    queries: np.ndarray,
    heaps: list[_BoundedMaxHeap],
    mindists: np.ndarray,
    fetch,
    block_records: int,
) -> np.ndarray:
    """Refine each short heap's lowest-bound rows; returns visited counts.

    A heap is short while its threshold is ``inf`` (fewer than k
    entries); one of ``k <= REFINE_FIRST_ROWS`` takes its
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
    query again, and each row counts once in ``visited_records``.
    """
    visited = np.zeros(len(heaps), dtype=np.int64)
    short = np.array(
        [
            i
            for i, heap in enumerate(heaps)
            if heap.threshold == float("inf") and heap.k <= REFINE_FIRST_ROWS
        ],
        dtype=np.int64,
    )
    if len(short) == 0:
        return visited
    n_first = min(REFINE_FIRST_ROWS, mindists.shape[1])
    own = np.argpartition(mindists[short], n_first - 1, axis=1)[:, :n_first]
    positions = np.unique(own)
    member = np.zeros((len(short), len(positions)), dtype=bool)
    member[np.arange(len(short))[:, None], np.searchsorted(positions, own)] = True
    for start in range(0, len(positions), block_records):
        block = positions[start : start + block_records]
        series, identifiers = fetch(block)
        for j, i in enumerate(short.tolist()):
            rows = np.flatnonzero(member[j, start : start + len(block)])
            if len(rows):
                refine_block(
                    queries[i], series, identifiers, rows, mindists[i, block], heaps[i]
                )
    visited[short] = n_first
    mindists[short[:, None], own] = float("inf")
    return visited


def walk_candidate_blocks(
    queries: np.ndarray,
    heaps: list[_BoundedMaxHeap],
    mindists: np.ndarray,
    candidates: np.ndarray,
    fetch,
    block_records: int,
) -> np.ndarray:
    """The shared SIMS fetch loop; returns per-query visited counts.

    Walks ``candidates`` (ascending positions into ``mindists``
    columns) block by block: thresholds shrink as true distances come
    in, so each block is re-filtered per query before the union of
    survivors is fetched once.  Each query's rows lose those
    :func:`repro.core.sims.rows_that_can_win` rules out against its
    heap's threshold, then are refined by
    :func:`repro.core.knn.refine_block`: lowest bounds first while the
    query's heap is short of k, then only the rows that can still enter.
    """
    n_queries = len(queries)
    visited = np.zeros(n_queries, dtype=np.int64)
    for start in range(0, len(candidates), block_records):
        block = candidates[start : start + block_records]
        thresholds = np.array([heap.threshold for heap in heaps])
        bounds = mindists[:, block]
        need = bounds < thresholds[:, None]
        alive = need.any(axis=0)
        block, bounds, need = block[alive], bounds[:, alive], need[:, alive]
        if len(block) == 0:
            continue
        wanted = np.flatnonzero(need.any(axis=1))
        wants = [
            (queries[i], np.flatnonzero(need[i]), heaps[i].threshold) for i in wanted
        ]
        # Every row fetched for a query counts as visited, even one the
        # distance bound or ``refine_block`` proves useless without an
        # exact distance.
        visited += need.sum(axis=1)
        series, identifiers, kept, taken = fetch_rows_that_can_win(
            fetch, block, wants
        )
        if taken is not None:
            bounds = bounds[:, taken]
        for i, rows in zip(wanted.tolist(), kept):
            if len(rows):
                refine_block(
                    queries[i], series, identifiers, rows, bounds[i], heaps[i]
                )
    return visited


def _outcome(heap: _BoundedMaxHeap, visited: int, n_records: int) -> KNNOutcome:
    items = heap.sorted_items()
    return KNNOutcome(
        answer_ids=[identifier for _, identifier in items],
        distances=[distance for distance, _ in items],
        visited_records=visited,
        pruned_fraction=1.0 - (visited / n_records) if n_records else 0.0,
    )


def sims_query_batch(index, batch, prepare) -> BatchReport:
    """Shared ``query_batch`` implementation for SIMS-backed indexes.

    ``prepare`` runs inside the measurement and returns the (column,
    fetch) pair of the index — loading summaries there charges their
    I/O to the batch, shared across all queries.  Each query is seeded
    with its approximate answer, exactly as the per-query engines do,
    from one shared probe pass (``index._approximate_batch``: the
    answers of ``approximate_search``, each distinct leaf read once).
    """
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    with Measurement(index.disk) as measure:
        column, fetch = prepare()
        seeds = [
            [(approx.distance, approx.answer_idx)]
            for approx in index._approximate_batch(queries)
        ]
        outcomes = batched_exact_knn(
            queries, batch.k, column, index.config, fetch, seeds
        )
    return build_batch_report(outcomes, measure)


def approx_query_batch(index, batch) -> BatchReport:
    """Shared-leaf-read approximate batch (one read per distinct leaf).

    Indexes whose approximate search inspects a leaf (or a small range
    of physically adjacent leaves) around the query's key implement
    ``_approximate_batch(queries)``: the batch is answered in ascending
    target-leaf order with a per-batch leaf cache, so a leaf shared by
    several queries is read once and the visits walk the leaf file
    forward.  Answers — indexes, distances, visited counts — are
    identical to issuing :meth:`approximate_search` per query; only the
    I/O totals shrink.
    """
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    with Measurement(index.disk) as measure:
        results = index._approximate_batch(queries)
    ids = [[r.answer_idx] if r.answer_idx >= 0 else [] for r in results]
    distances = [[r.distance] if r.answer_idx >= 0 else [] for r in results]
    return BatchReport(
        results=results,
        knn_ids=ids,
        knn_distances=distances,
        io=measure.io,
        simulated_io_ms=measure.simulated_io_ms,
        wall_s=measure.wall_s,
    )


def build_batch_report(
    outcomes: list[KNNOutcome], measure: Measurement
) -> BatchReport:
    """Package per-query kNN outcomes as the uniform batch report."""
    results = []
    for outcome in outcomes:
        results.append(
            QueryResult(
                answer_idx=outcome.answer_ids[0] if outcome.answer_ids else -1,
                distance=(
                    outcome.distances[0] if outcome.distances else float("inf")
                ),
                visited_records=outcome.visited_records,
                pruned_fraction=outcome.pruned_fraction,
            )
        )
    return BatchReport(
        results=results,
        knn_ids=[list(outcome.answer_ids) for outcome in outcomes],
        knn_distances=[list(outcome.distances) for outcome in outcomes],
        io=measure.io,
        simulated_io_ms=measure.simulated_io_ms,
        wall_s=measure.wall_s,
    )
