"""Parallel query scheduling: shared bounds + cost-model plans.

The multi-worker SIMS pass (:mod:`repro.parallel.query`) leaves two
gaps this module closes, and one decision it records:

1. **Exact workers share seeds but not threshold feedback.**  Each
   fetch worker prunes against the k-th best of *its own* offers, so a
   hard query pays redundant visits on every worker that does not own
   its nearest neighbors.  :class:`SharedBoundBoard` closes the loop:
   a per-query array of published distance bounds that workers consult
   at block boundaries.  Reads are a bare reference grab of an
   immutable snapshot (atomic under the GIL — the "lock-free" side);
   publishes min-merge into a fresh snapshot under a lock and bump an
   epoch.

   **Why sharing cannot change the answers.**  Every published value
   is some heap's k-th best over a subset of the global offer multiset,
   so it is a *certified upper bound* on the final k-th distance —
   stale or out-of-order snapshots only loosen it, never break it.  A
   record pruned by a shared bound has ``mindist >= bound >= final
   threshold``, which is exactly the record the serial engine's own
   strict-``<`` pruning declares useless; outside the measure-zero tie
   boundary documented in :mod:`repro.parallel.query`, the retained
   k-smallest set cannot change.  Visits, by contrast, can only
   shrink: each worker prunes against the *running minimum* of its
   local threshold and every board snapshot it has seen, which an
   induction over blocks shows is never above the threshold the same
   worker would have used without sharing (``docs/queries.md`` spells
   the argument out).  DiskStats under sharing are interleaving-
   dependent — the replay-determinism contract holds with
   ``bound_sharing="off"``, and the equivalence suite pins both.

2. **Approximate batches ran serially.**  Their visit order (ascending
   target leaf for the trees, batch order for the LSM run probes) is a
   partitionable sort: :func:`parallel_approx_batch` range-partitions
   it across read-only :class:`repro.storage.disk.ShardedDisk`
   sessions, one per-partition cache each, with per-query answers
   pinned to the serial per-batch cache oracle (the answer of a query
   never depends on cache hits, only its I/O charging does).

On top of both sits the **cost-model planner**
(:func:`plan_query_batch`): it prices the batch with
:class:`repro.storage.cost.QueryCostModel` (lower-bound cells, refine
records, pool-task overhead) and clamps the scan fan-out and the fetch
partition floor below the requested worker count.  Every decision is
recorded on a :class:`PlanReport` attached to the batch report.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

from ..core.sims import SIMS_BLOCK_RECORDS
from ..indexes.base import BatchReport, Measurement, QueryResult
from ..storage.cost import DEFAULT_QUERY_COST
from .batch import approx_query_batch, sims_query_batch
from .heal import run_self_healing
from .pool import check_pool_kind, resolve_workers
from .query import (
    SHARING_MODES,
    parallel_sims_query_batch,
    run_on_read_shards,
)

#: A scan worker's slice must amortize at least this many task spawns.
SCAN_SPAN_TASKS = 4

#: A fetch partition must hold at least ``thread_task_us /
#: refine_record_us`` candidate records to be worth a pool task; this
#: caps the floor at one refine block so degenerate calibrations
#: cannot serialize fetches.
MAX_FETCH_FLOOR_RECORDS = SIMS_BLOCK_RECORDS


# ----------------------------------------------------------------------
# Shared best-k bound
# ----------------------------------------------------------------------
class SharedBoundBoard:
    """Per-query published distance bounds shared by exact workers.

    ``read()`` returns the current snapshot — an *immutable* float64
    array, one certified upper bound on the final k-th distance per
    query.  Snapshot swaps are a single reference assignment, atomic
    under the GIL, so readers never lock and never observe a torn
    array (the lock-free-style epoch publish of the design).
    ``publish(bounds)`` min-merges into a fresh snapshot under the
    lock and bumps :attr:`epoch`.

    Any value ever published is a heap threshold over a subset of the
    global offers (or ``inf``), hence ``>=`` the final k-th distance;
    the min of any collection of such values — however stale or
    reordered — keeps that property.  That is the entire correctness
    obligation on this class, and what lets the engine accept *any*
    publish interleaving.
    """

    def __init__(self, n_queries: int):
        bounds = np.full(n_queries, np.inf, dtype=np.float64)
        bounds.setflags(write=False)
        self._bounds = bounds
        self._lock = threading.Lock()
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._bounds)

    def read(self) -> np.ndarray:
        """Current snapshot (read-only; copy before mutating)."""
        return self._bounds

    def publish(self, bounds: np.ndarray) -> None:
        """Min-merge ``bounds`` into a fresh published snapshot."""
        with self._lock:
            merged = np.minimum(self._bounds, bounds)
            merged.setflags(write=False)
            self._bounds = merged
            self.epoch += 1


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanReport:
    """One batch's recorded scheduling decision — fully auditable.

    A pure, deterministic function of (batch shape, index size,
    requested workers, cost model): never of pool scheduling, which is
    what keeps the ``pool_kind="serial"`` replay pinned to the same
    plan the threaded run executed.
    """

    mode: str
    n_queries: int
    n_records: int
    k: int
    requested_workers: int | None
    workers: int
    scan_workers: int
    bound_sharing: str
    min_fetch_records: int
    est_scan_ms: float
    est_refine_ms: float
    reason: str

    def as_dict(self) -> dict:
        return asdict(self)


def plan_query_batch(
    batch,
    index,
    query_workers: int | None = 1,
    bound_sharing: str = "on",
) -> PlanReport:
    """Pick the batch's worker counts and partition split.

    Prices the batch with :data:`repro.storage.cost.DEFAULT_QUERY_COST`
    and *clamps downward* — the plan never exceeds the requested worker
    count, so ``query_workers=1`` always remains the serial engine:

    * scan workers: each worker's slice of the Q x N lower-bound
      matrix must amortize :data:`SCAN_SPAN_TASKS` task spawns;
    * fetch split: a partition must hold ``thread_task_us /
      refine_record_us`` candidates (``min_fetch_records``) to earn a
      pool task;
    * bound sharing: as requested for exact batches, off for
      approximate ones (no heaps to feed it).
    """
    if bound_sharing not in SHARING_MODES:
        raise ValueError(
            f"bound_sharing must be one of {SHARING_MODES}, got {bound_sharing!r}"
        )
    cost = DEFAULT_QUERY_COST
    raw = getattr(index, "raw", None)
    n_records = int(raw.n_series) if raw is not None else 0
    n_queries = int(batch.n_queries)
    workers = resolve_workers(query_workers)

    # Indexes without a summary column (the brute-force scan) price
    # their pass at the refine rate — every record is refined, none is
    # lower-bounded.
    config = getattr(index, "config", None)
    cell_us = cost.mindist_cell_us if config is not None else cost.refine_record_us
    est_scan_ms = n_queries * n_records * cell_us / 1000.0
    est_refine_ms = n_records * cost.refine_record_us / 1000.0

    # Scan: clamp the fan-out so each slice amortizes its task spawn.
    # (Recorded for approximate batches too — the brute-force scan
    # answers both modes with the same full pass.)
    span_us = SCAN_SPAN_TASKS * cost.thread_task_us
    scan_workers = max(
        1, min(workers, int(est_scan_ms * 1000.0 // max(span_us, 1e-9)))
    )
    if batch.mode == "approximate":
        # One partition per ~2 queries keeps cache sharing worthwhile.
        workers = max(1, min(workers, n_queries // 2))
        bound_sharing = "off"
        min_fetch_records = 1
        reason = (
            f"approximate batch: {workers} visit-order partitions"
            f" for {n_queries} queries"
        )
    else:
        min_fetch_records = max(
            1,
            min(
                MAX_FETCH_FLOOR_RECORDS,
                int(cost.thread_task_us / max(cost.refine_record_us, 1e-9)),
            ),
        )
        reason = (
            f"scan {scan_workers}/{workers} workers"
            f" (est {est_scan_ms:.2f} ms), fetch floor {min_fetch_records}"
            f" records/partition, bound sharing {bound_sharing}"
        )
    return PlanReport(
        mode=batch.mode,
        n_queries=n_queries,
        n_records=n_records,
        k=batch.k,
        requested_workers=query_workers,
        workers=workers,
        scan_workers=scan_workers,
        bound_sharing=bound_sharing,
        min_fetch_records=min_fetch_records,
        est_scan_ms=est_scan_ms,
        est_refine_ms=est_refine_ms,
        reason=reason,
    )


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_sims_query_batch(
    index,
    batch,
    query_workers: int | None = 1,
    query_pool_kind: str = "thread",
    bound_sharing: str = "on",
    wrap_device=None,
    bound_board=None,
    heal_report=None,
) -> BatchReport:
    """Plan and execute one batch on a SIMS-backed Coconut index.

    The shared ``query_batch`` implementation of CoconutTree,
    CoconutTrie and CoconutLSM: builds a :class:`PlanReport` (attached
    to the returned report as ``report.plan``), then dispatches to the
    serial batched engine, the multi-worker exact engine, or the
    partitioned approximate engine.  ``query_pool_kind="serial"`` maps
    the same partition plan on the calling thread (the replay
    reference); ``bound_sharing="off"`` restores per-worker pruning and
    with it the replay-deterministic ``DiskStats``.  ``bound_board``
    injects a board (tests drive adversarial publish schedules through
    it); ``None`` lets the engine build one per attempt when the plan
    shares bounds.  Wrong-length and non-finite queries, then unknown
    pool kinds and sharing modes, raise ``ValueError`` before anything
    is planned or read.
    """
    index._query_matrix(batch.queries)
    check_pool_kind(query_pool_kind)
    plan = plan_query_batch(
        batch, index, query_workers=query_workers, bound_sharing=bound_sharing
    )
    if batch.mode == "approximate":
        if plan.workers > 1:
            report = parallel_approx_batch(
                index,
                batch,
                workers=plan.workers,
                pool_kind=query_pool_kind,
                wrap_device=wrap_device,
                heal_report=heal_report,
            )
        else:
            report = approx_query_batch(index, batch)
    elif plan.workers > 1:
        report = parallel_sims_query_batch(
            index,
            batch,
            index._prepare_sims_parallel,
            plan.workers,
            pool_kind=query_pool_kind,
            wrap_device=wrap_device,
            bound_sharing=plan.bound_sharing,
            bound_board=bound_board,
            scan_workers=plan.scan_workers,
            min_fetch_records=plan.min_fetch_records,
            heal_report=heal_report,
        )
    else:
        report = sims_query_batch(index, batch, index._prepare_sims)
    report.plan = plan
    return report


def parallel_approx_batch(
    index,
    batch,
    workers: int | None = 2,
    pool_kind: str = "thread",
    wrap_device=None,
    heal_report=None,
) -> BatchReport:
    """Range-partitioned approximate batch on read-only shard sessions.

    The index exposes its batched approximate pass in two halves:
    ``_approx_visit_order(queries)`` returns the per-batch visit order
    (query indices) plus shared context, and
    ``_approx_answer_subset(queries, ctx, order, device=)`` answers a
    contiguous slice of that order with a fresh cache, reads bound to
    ``device``.  The serial ``_approximate_batch`` is exactly "one
    subset spanning the whole order on the parent device", so the
    parallel path's per-query answers are pinned to the serial
    per-batch cache oracle by construction — a cache only dedupes I/O
    charging, never changes a query's candidates.  Partition caches
    are private (a leaf straddling two partitions is read once per
    side — the usual price of private I/O domains);
    ``pool_kind="serial"`` replays the partition plan inline, the
    deterministic stats oracle.  Worker faults heal like the exact
    engine: transients retry on a fresh session, anything harder
    degrades to the serial batched pass on the parent device.
    """
    check_pool_kind(pool_kind)
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    workers = resolve_workers(workers)
    with Measurement(index.disk) as measure:
        order, ctx = index._approx_visit_order(queries)
        chunks = [
            chunk
            for chunk in np.array_split(order, max(1, min(workers, len(order))))
            if len(chunk)
        ]
        if len(chunks) <= 1:
            pairs = index._approx_answer_subset(queries, ctx, order)
        else:
            parts = run_self_healing(
                lambda attempt_index: run_on_read_shards(
                    index.disk,
                    "approx",
                    len(chunks),
                    lambda p, device: index._approx_answer_subset(
                        queries, ctx, chunks[p], device=device
                    ),
                    pool_kind,
                    wrap_device,
                    attempt_index,
                ),
                fallback=lambda: None,
                label="parallel approximate batch",
                report=heal_report,
            )
            if parts is None:
                pairs = index._approx_answer_subset(queries, ctx, order)
            else:
                pairs = [pair for part in parts for pair in part]
        results: list[QueryResult | None] = [None] * len(queries)
        for qi, result in pairs:
            results[qi] = result
        # Queries outside the visit order (an index with nothing to
        # visit) answer the serial default: no match.
        results = [r if r is not None else QueryResult() for r in results]
    ids = [[r.answer_idx] if r.answer_idx >= 0 else [] for r in results]
    distances = [
        [r.distance] if r.answer_idx >= 0 else [] for r in results
    ]
    return BatchReport(
        results=results,
        knn_ids=ids,
        knn_distances=distances,
        io=measure.io,
        simulated_io_ms=measure.simulated_io_ms,
        wall_s=measure.wall_s,
    )
