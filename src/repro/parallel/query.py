"""Multi-worker batched query execution: the parallel SIMS engine.

The batched executor (:mod:`repro.parallel.batch`) shares the two
expensive steps of the exact-search SIMS pass across a whole query
batch, but executes both on one thread.  This module parallelizes each
step while keeping the *answers* bit-identical to the serial batched
engine:

1. **Parallel lower-bound scan.**  The summary column is partitioned
   into contiguous worker ranges; each worker computes every query's
   mindist vector and the batch's candidate union over its own range.
   Lower bounds are elementwise per record, so concatenating the
   per-range results in range order reproduces the serial matrix and
   candidate list exactly — candidates stay in ascending storage
   order, preserving the skip-sequential fetch contract.  The ranges
   run on the repository's one pool (:mod:`repro.parallel.pool`):
   threads that share the summary column zero-copy while NumPy
   releases the GIL.

2. **Shard-parallel record fetch.**  The candidate union is cut into
   contiguous chunks, one per worker.  A read-only
   :class:`repro.storage.disk.ShardedDisk` session hands each worker a
   private I/O domain; the worker streams its chunk's unpruned blocks
   through its own :class:`repro.storage.bufferpool.BufferPool` (its
   own head, its own counters, its own cache) and fills per-query
   bounded max-heaps seeded exactly like the serial engine's.  Fetch
   partitions run on the same pool, or inline when
   ``pool_kind="serial"``.

**Answer equivalence.**  Worker heaps retain the k lexicographically
smallest ``(distance, id)`` pairs of everything offered to them
(:class:`repro.core.knn._BoundedMaxHeap`), an offer-order-independent
set.  Each worker's pruning threshold is never tighter than the serial
engine's at the same record (a worker sees a subset of the offers, so
its k-th best distance can only be worse), so every record the serial
engine visits is visited here on the same query's behalf.  The
coordinator merge — re-offering every worker's retained pairs into
fresh seeded heaps — therefore reproduces the serial batched answers,
ids, distances and tie order included, for any worker count and any
candidate partitioning.  ``visited_records`` may exceed the serial
engine's (workers lack each other's threshold feedback and prune
less); a worker's extra visit can displace a serial answer only if its
true distance *exactly* equals the final k-th distance while its SAX
lower bound is exactly tight (``mindist == distance == threshold`` in
float64) — the same degenerate strict-``<``-pruning boundary on which
the serial engines themselves are already cut off from a tying record
the brute-force oracle would keep.  Outside that measure-zero
configuration the answers cannot differ, and the equivalence suite and
benchmark assert equality outright.

**I/O determinism.**  Each worker's access sequence is a pure function
of (queries, seeds, summary column, its candidate chunk) — never of
pool scheduling — and each classifies against its own head.
Executing the same per-worker plans inline (``pool_kind="serial"``)
is the *serial replay oracle*: the reconciled
:class:`repro.storage.cost.DiskStats` of a threaded run are
bit-identical to it.  The sharded fetch may read a boundary page
once per adjacent worker where the serial pass read it once — the
usual price of partitioned I/O domains; the equivalence suite pins the
replay contract, and the benchmark reports both costs.
"""

from __future__ import annotations

import numpy as np

from ..core.knn import _BoundedMaxHeap
from ..core.sims import SIMS_BLOCK_RECORDS
from ..core.summary_column import WordColumn
from ..indexes.base import BatchReport, Measurement
from ..series.distance import early_abandon_euclidean_block
from ..storage.bufferpool import BufferPool
from ..storage.disk import ShardedDisk
from ..summaries.paa import paa
from ..summaries.sax import SAXConfig
from .batch import (
    MAX_MINDIST_CELLS,
    _outcome,
    batched_exact_knn,
    build_batch_report,
    seeded_heaps,
    walk_candidate_blocks,
)
from .heal import run_self_healing
from .pool import check_pool_kind, pool_map, resolve_workers

#: Pages cached by each fetch worker's shard-scoped buffer pool.  The
#: skip-sequential fetch never revisits a page, so the pool changes no
#: counter — it exists so every worker's reads go through a private
#: cache domain.
QUERY_SHARD_POOL_PAGES = 8


def partition_ranges(n: int, n_parts: int) -> "list[tuple[int, int]]":
    """Split ``[0, n)`` into ``n_parts`` contiguous balanced ranges."""
    bounds = np.linspace(0, n, max(1, n_parts) + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]


def _scan_range(
    query_paa: np.ndarray,
    column: WordColumn,
    lo: int,
    hi: int,
    thresholds: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray]":
    """One worker's lower-bound scan: (mindist rows, local candidates).

    ``[lo, hi)`` is the worker's contiguous range of the summary
    column; the returned candidate positions are *local* to it.
    """
    mindists = column.lower_bounds(query_paa, lo, hi)
    union = np.nonzero((mindists < thresholds[:, None]).any(axis=0))[0]
    return mindists, union


def parallel_lower_bound_scan(
    query_paa: np.ndarray,
    column: WordColumn,
    thresholds: np.ndarray,
    workers: int,
    pool_kind: str = "thread",
) -> "tuple[np.ndarray, np.ndarray]":
    """Compute (mindist matrix, candidate union) on a worker pool.

    Bit-identical to the serial computation for any worker count and
    pool kind: lower bounds are elementwise per record, and per-range
    results concatenate in range order (candidates ascending).
    """
    ranges = [r for r in partition_ranges(len(column), workers) if r[1] > r[0]]
    if not ranges:
        return (
            np.empty((len(query_paa), 0)),
            np.empty(0, dtype=np.int64),
        )
    parts = pool_map(
        lambda lo, hi: _scan_range(query_paa, column, lo, hi, thresholds),
        list(zip(*ranges)),
        len(ranges),
        pool_kind,
    )
    mindists = np.concatenate([m for m, _ in parts], axis=1)
    union = np.concatenate(
        [local + lo for (_, local), (lo, _) in zip(parts, ranges)]
    ).astype(np.int64)
    return mindists, union


def run_on_read_shards(
    disk, label: str, n_parts: int, work, pool_kind: str,
    wrap_device=None, attempt_index: int = 0,
) -> list:
    """``work(p, device)`` for each partition on its own read-only shard.

    One read-only :class:`ShardedDisk` session over ``disk`` hands
    partition ``p`` a private I/O domain (``wrap_device(shard, p,
    attempt_index)`` when the fault seam is set), read through a
    shard-scoped :class:`BufferPool`.  Partitions run on the pool, or
    inline with ``pool_kind="serial"``; either way the shards reconcile
    into the parent in partition order, so the resulting
    :class:`DiskStats` are a pure function of the plans.  A worker
    exception aborts the session — nothing reconciled — which is what
    makes the callers' retry loops sound.
    """
    session = ShardedDisk(
        disk, n_parts, names=[f"{label}-p{p}" for p in range(n_parts)]
    )

    def run(p: int):
        shard = session.shards[p]
        device = (
            shard if wrap_device is None else wrap_device(shard, p, attempt_index)
        )
        with BufferPool(device, QUERY_SHARD_POOL_PAGES) as pool:
            return work(p, pool)

    with session:
        return pool_map(run, [range(n_parts)], n_parts, pool_kind)


def _fetch_partition(
    queries: np.ndarray,
    k: int,
    mindists: np.ndarray,
    candidates: np.ndarray,
    seeds: "list[list[tuple[float, int]]]",
    fetch,
    block_records: int,
) -> "tuple[list[_BoundedMaxHeap], np.ndarray]":
    """One fetch worker: walk a candidate chunk, fill per-query heaps.

    Runs the *same* block loop as the serial batched engine
    (:func:`repro.parallel.batch.walk_candidate_blocks`) on this
    worker's chunk — except the thresholds only ever see the chunk's
    offers (plus the shared seeds), so they are never tighter than the
    serial engine's and pruning can only be more conservative.
    """
    heaps = seeded_heaps(len(queries), k, seeds)
    visited = walk_candidate_blocks(
        queries, heaps, mindists, candidates, fetch, block_records
    )
    return heaps, visited


def parallel_batched_exact_knn(
    queries: np.ndarray,
    k: int,
    column: WordColumn,
    config: SAXConfig,
    make_fetch,
    disk,
    seeds: "list[list[tuple[float, int]]] | None" = None,
    workers: int | None = 2,
    pool_kind: str = "thread",
    block_records: int = SIMS_BLOCK_RECORDS,
    wrap_device=None,
    scan_workers: int | None = None,
    min_fetch_records: int = 1,
    heal_report=None,
):
    """Exact k-NN for a batch, both SIMS phases on worker pools.

    Parameters mirror :func:`repro.parallel.batch.batched_exact_knn`
    except that ``make_fetch(device)`` is a factory: called with
    ``None`` it returns the index's ordinary fetch (the serial path);
    called with a worker's device (a shard-scoped buffer pool) it
    returns a fetch whose every read lands on that device.  ``workers``
    follows the build convention (``None``/``0`` = all cores, ``1`` =
    the serial engine); ``pool_kind="serial"`` executes the parallel
    plan inline — the replay oracle for the I/O-determinism contract.
    ``scan_workers`` overrides the lower-bound scan's fan-out (the
    planner's clamp; default: same as the fetch), and
    ``min_fetch_records`` is the planner's floor on candidates per
    fetch partition.

    ``wrap_device(shard, partition, attempt)`` is the self-healing
    fault seam (:mod:`repro.parallel.heal`): each fetch worker's reads
    route through its return value.  When a worker raises an injected
    device fault the read-only session aborts (no stats reconciled),
    transients are retried, and anything else degrades the
    whole batch to the serial engine — answers and tie order are the
    serial oracle's either way.

    Returns the same ``KNNOutcome`` list as the serial engine, with
    identical ids, distances and tie order for any worker count;
    ``visited_records`` counts what the workers actually evaluated.
    """
    check_pool_kind(pool_kind)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    n_queries, n = len(queries), len(column)
    workers = resolve_workers(workers)
    if workers <= 1:
        return batched_exact_knn(
            queries, k, column, config, make_fetch(None), seeds, block_records
        )
    if n_queries > 1 and n_queries * n > MAX_MINDIST_CELLS:
        # Same sub-batch split (and seed routing) as the serial engine:
        # the memory cap applies to the per-worker mindist slices too.
        half = n_queries // 2
        seeds = seeds or [[] for _ in range(n_queries)]
        halves = [
            parallel_batched_exact_knn(
                queries[part], k, column, config, make_fetch, disk,
                seeds[part], workers, pool_kind, block_records, wrap_device,
                scan_workers=scan_workers,
                min_fetch_records=min_fetch_records, heal_report=heal_report,
            )
            for part in (slice(None, half), slice(half, None))
        ]
        return halves[0] + halves[1]
    seeds = seeds or [[] for _ in range(n_queries)]
    heaps = seeded_heaps(n_queries, k, seeds)
    if n == 0 or n_queries == 0:
        return [_outcome(heap, visited=0, n_records=n) for heap in heaps]
    query_paa = paa(queries, config.word_length)
    thresholds = np.array([heap.threshold for heap in heaps])
    mindists, union = parallel_lower_bound_scan(
        query_paa, column, thresholds,
        scan_workers if scan_workers is not None else workers,
        pool_kind,
    )
    visited = np.zeros(n_queries, dtype=np.int64)
    if len(union):
        n_chunks = min(workers, len(union))
        if min_fetch_records > 1:
            n_chunks = max(1, min(n_chunks, len(union) // min_fetch_records))
        chunks = [
            chunk
            for chunk in np.array_split(union, n_chunks)
            if len(chunk)
        ]
        results = run_self_healing(
            lambda attempt_index: run_on_read_shards(
                disk,
                "query-fetch",
                len(chunks),
                lambda p, device: _fetch_partition(
                    queries, k, mindists, chunks[p], seeds, make_fetch(device),
                    block_records,
                ),
                pool_kind,
                wrap_device,
                attempt_index,
            ),
            # The sentinel routes degradation out of the helper: the
            # serial engine redoes the whole batch (scan included) on
            # the parent device, so its answers are the oracle's by
            # construction.
            fallback=lambda: None,
            label="parallel query fetch",
            report=heal_report,
        )
        if results is None:
            return batched_exact_knn(
                queries, k, column, config, make_fetch(None), seeds, block_records
            )
        for worker_heaps, worker_visited in results:
            for i in range(n_queries):
                heaps[i].merge(worker_heaps[i])
            visited += worker_visited
    return [
        _outcome(heap, visited=int(visited[i]), n_records=n)
        for i, heap in enumerate(heaps)
    ]


def parallel_sims_query_batch(
    index, batch, prepare_parallel, query_workers, pool_kind: str = "thread",
    wrap_device=None, scan_workers: int | None = None,
    min_fetch_records: int = 1, heal_report=None,
) -> BatchReport:
    """Multi-worker ``query_batch`` for SIMS-backed indexes.

    ``prepare_parallel`` runs inside the measurement and returns the
    index's ``(column, make_fetch)`` pair — summary-column I/O is
    charged to the batch, and ``make_fetch`` binds fetches to worker
    devices.  Approximate seeding stays on the parent device, before
    the sharded fetch session opens, exactly like the serial engine.
    The trailing keywords carry the planner's decisions to
    :func:`parallel_batched_exact_knn`.
    """
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    with Measurement(index.disk) as measure:
        column, make_fetch = prepare_parallel()
        seeds = []
        for query in queries:
            approx = index.approximate_search(query)
            seeds.append([(approx.distance, approx.answer_idx)])
        outcomes = parallel_batched_exact_knn(
            queries,
            batch.k,
            column,
            index.config,
            make_fetch,
            index.disk,
            seeds=seeds,
            workers=query_workers,
            pool_kind=pool_kind,
            wrap_device=wrap_device,
            scan_workers=scan_workers,
            min_fetch_records=min_fetch_records,
            heal_report=heal_report,
        )
    return build_batch_report(outcomes, measure)


def parallel_serial_scan_batch(
    index, batch, query_workers, pool_kind: str = "thread", wrap_device=None,
    heal_report=None,
) -> BatchReport:
    """Multi-worker batched brute-force scan (the SerialScan path).

    The record space is split into page-aligned contiguous ranges, one
    per worker; each worker streams its range through a read-only
    shard + private pool and keeps per-query heaps of its local top-k.
    Because the heaps retain the k lexicographically smallest
    ``(distance, id)`` pairs, the coordinator merge equals the serial
    single-pass answers exactly — ties included — for any partitioning.

    ``wrap_device`` is the self-healing fault seam (see
    :func:`parallel_batched_exact_knn`): injected worker faults retry
    on transients and otherwise degrade to one full-range scan on the
    parent device — the exact serial plan.
    """
    check_pool_kind(pool_kind)
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    raw = index._require_built()
    k = batch.k
    workers = resolve_workers(query_workers)
    spp = raw.series_per_page if raw.pages_per_series == 1 else 1
    n_pages = -(-raw.n_series // spp)
    ranges = []
    for page_lo, page_hi in partition_ranges(n_pages, min(workers, n_pages)):
        lo, hi = page_lo * spp, min(page_hi * spp, raw.n_series)
        if hi > lo:
            ranges.append((lo, hi))

    def scan_range(lo: int, hi: int, device) -> "list[_BoundedMaxHeap]":
        view = raw.view(device)
        local = [_BoundedMaxHeap(k) for _ in queries]
        for start, block in view.scan(start=lo, stop=hi):
            identifiers = np.arange(start, start + len(block))
            for heap, query in zip(local, queries):
                # Refine against this heap's block-start k-th best: a
                # row at ``inf`` sits strictly above the threshold, so
                # the multiset of *retained* offers — all the
                # order-independent heap ever looks at — is unchanged.
                distances = early_abandon_euclidean_block(
                    query, block, heap.threshold
                )
                heap.offer_block(distances, identifiers)
        return local

    heaps = [_BoundedMaxHeap(k) for _ in queries]
    with Measurement(index.disk) as measure:
        if len(ranges) <= 1:
            results = [
                scan_range(*ranges[p], index.disk) for p in range(len(ranges))
            ]
        else:
            results = run_self_healing(
                lambda attempt_index: run_on_read_shards(
                    index.disk,
                    "scan",
                    len(ranges),
                    lambda p, device: scan_range(*ranges[p], device),
                    pool_kind,
                    wrap_device,
                    attempt_index,
                ),
                # Degradation is the serial plan itself: one full-range
                # scan on the parent device.
                fallback=lambda: [scan_range(0, raw.n_series, index.disk)],
                label="parallel serial scan",
                report=heal_report,
            )
        for local in results:
            for heap, partial in zip(heaps, local):
                heap.merge(partial)
    outcomes = [
        _outcome(heap, visited=raw.n_series, n_records=raw.n_series)
        for heap in heaps
    ]
    return build_batch_report(outcomes, measure)
