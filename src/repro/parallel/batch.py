"""Batched exact-kNN executor: one shared SIMS pass for many queries.

Answering queries one at a time repeats the two expensive steps of
Algorithm 5 per query: loading/scanning the summary column and fetching
unpruned records from disk.  A batch shares both.  The engine computes
every query's lower-bound vector over the same in-memory summaries,
takes the *union* of unpruned positions, and walks that union once in
ascending storage order — each fetched block of records is evaluated
against every query that still needs it, so a page read once serves the
whole batch (the bufferpool never sees the same page twice in a pass).

Results are exact and identical to the per-query engine: pruning uses
per-query thresholds that only ever shrink, so every record that could
beat a query's k-th best distance is visited on that query's behalf.
The cross-index equivalence suite asserts this against the serial-scan
oracle and the per-query path for every index variant.
"""

from __future__ import annotations

import numpy as np

from ..core.knn import KNNOutcome, _BoundedMaxHeap, refine_block
from ..core.sims import SIMS_BLOCK_RECORDS
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
    id) seed list per query (ids < 0 are ignored).  ``fetch`` is called
    with ascending positions exactly once per unpruned block — the same
    skip-sequential contract as the per-query engine, shared batch-wide.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries = len(queries)
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
    thresholds = np.array([heap.threshold for heap in heaps])
    union = np.nonzero((mindists < thresholds[:, None]).any(axis=0))[0]
    visited = walk_candidate_blocks(
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
    survivors is fetched once.  Each query's rows are then refined by
    :func:`repro.core.knn.refine_block`: lowest bounds first while the
    query's heap is short of k, then only the rows that can still
    enter.
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
        series, identifiers = fetch(block)
        for i in range(n_queries):
            rows = np.nonzero(need[i])[0]
            if len(rows) == 0:
                continue
            # Every row fetched for query ``i`` counts as visited, even
            # one ``refine_block`` proves useless without a distance.
            refine_block(queries[i], series, identifiers, rows, bounds[i], heaps[i])
            visited[i] += len(rows)
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
    with its approximate answer, exactly as the per-query engines do.
    """
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    with Measurement(index.disk) as measure:
        column, fetch = prepare()
        seeds = []
        for query in queries:
            approx = index.approximate_search(query)
            seeds.append([(approx.distance, approx.answer_idx)])
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
