"""Adaptive parallel query scheduling: shared bounds + cost-model plans.

PR 4 parallelized the batched SIMS pass, but left two gaps the ROADMAP
names under "adaptive parallel query scheduling":

1. **Exact workers share seeds but not threshold feedback.**  Each
   fetch worker prunes against the k-th best of *its own* offers, so a
   hard query pays redundant visits on every worker that does not own
   its nearest neighbors.  :class:`SharedBoundBoard` closes the loop:
   a per-query array of published distance bounds that workers consult
   at block boundaries.  Reads are a bare reference grab of an
   immutable snapshot (atomic under the GIL — the "lock-free" side);
   publishes min-merge into a fresh snapshot under a lock and bump an
   epoch.  For pools without shared memory, :class:`PartitionBoardView`
   is the coordinator-exchange cadence: a partition works against a
   frozen snapshot and its publishes are merged when it completes.

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
(:func:`plan_query_batch`): instead of the fixed
``choose_pool_kind_for_bytes`` byte threshold and
"one chunk per requested worker" split, it prices the batch with a
calibrated :class:`repro.storage.cost.QueryCostModel` (lower-bound
cells, refine records, pool-task overhead, IPC shipping) and picks the
scan worker count, scan pool kind, fetch partition floor and bound
cadence.  Every decision is recorded on a :class:`PlanReport` attached
to the batch report.  ``scheduler="fixed"`` is the escape hatch that
reproduces the PR-4 plan exactly (requested workers, byte-threshold
pool choice, no sharing, serial approximate batches).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..core.sims import SIMS_BLOCK_RECORDS
from ..indexes.base import BatchReport, Measurement, QueryResult
from ..storage.bufferpool import BufferPool
from ..storage.cost import DEFAULT_QUERY_COST, QueryCostModel
from ..storage.disk import ShardedDisk
from .batch import approx_query_batch, sims_query_batch
from .heal import run_self_healing
from .query import (
    QUERY_SHARD_POOL_PAGES,
    parallel_sims_query_batch,
)
from .summarize import resolve_workers

_SCHEDULERS = ("adaptive", "fixed")
_SHARING_MODES = ("auto", "on", "off")
_CADENCES = ("block", "partition")

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


class PartitionBoardView:
    """Coordinator-exchange cadence over a :class:`SharedBoundBoard`.

    Process pools (and any worker without shared memory) cannot read a
    live board: this view freezes the parent snapshot when the
    partition starts, buffers the partition's publishes locally, and
    min-merges them into the parent in one :meth:`flush` when the
    partition completes — the snapshot-exchange the coordinator would
    perform over IPC.  Frozen reads are merely *staler* certified
    bounds, so every correctness property of the live board carries
    over unchanged.
    """

    def __init__(self, parent: SharedBoundBoard):
        self._parent = parent
        self._snapshot = parent.read()
        self._pending: np.ndarray | None = None

    def read(self) -> np.ndarray:
        return self._snapshot

    def publish(self, bounds: np.ndarray) -> None:
        if self._pending is None:
            self._pending = np.asarray(bounds, dtype=np.float64).copy()
        else:
            np.minimum(self._pending, bounds, out=self._pending)

    def flush(self) -> None:
        if self._pending is not None:
            self._parent.publish(self._pending)
            self._pending = None


# ----------------------------------------------------------------------
# Cost calibration
# ----------------------------------------------------------------------
def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@lru_cache(maxsize=1)
def calibrate_query_costs() -> QueryCostModel:
    """Measure the per-kernel rates of :class:`QueryCostModel`.

    Times the two hot kernels the planner prices — the SIMS lower
    bound and the refine kernel — on small synthetic inputs, plus one
    thread-pool task round trip.  Process-pool and IPC terms keep
    their documented defaults: measuring a fork + import costs more
    than any plan it could improve.  Cached for the process lifetime
    so repeated plans (and the thread-vs-replay stats contract, which
    needs identical plans) see one consistent model.
    """
    from ..series.distance import early_abandon_euclidean_block
    from ..summaries.paa import paa
    from ..summaries.sax import SAXConfig, mindist_paa_to_words

    rng = np.random.default_rng(7)
    config = SAXConfig(word_length=8, cardinality=256)
    n, length = 4096, 64
    words = rng.integers(0, 256, size=(n, 8), dtype=np.uint16)
    query = rng.standard_normal(length)
    query_paa = paa(query[None, :], 8)[0]
    block = rng.standard_normal((1024, length))

    scan_s = _best_of(lambda: mindist_paa_to_words(query_paa, words, config))
    refine_s = _best_of(
        lambda: early_abandon_euclidean_block(query, block, float("inf"))
    )

    def _task_round_trip():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(int, range(2)))

    task_s = _best_of(_task_round_trip)

    default = DEFAULT_QUERY_COST
    return QueryCostModel(
        mindist_cell_us=max(1e-4, scan_s * 1e6 / n),
        refine_record_us=max(1e-3, refine_s * 1e6 / len(block)),
        thread_task_us=max(10.0, task_s * 1e6 / 2),
        process_task_us=default.process_task_us,
        ship_us_per_mib=default.ship_us_per_mib,
    )


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

    scheduler: str
    mode: str
    n_queries: int
    n_records: int
    k: int
    requested_workers: int | None
    workers: int
    scan_workers: int
    scan_pool_kind: str
    pool_kind: str
    bound_sharing: str
    bound_cadence: str
    min_fetch_records: int
    est_scan_ms: float
    est_refine_ms: float
    reason: str

    def as_dict(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "mode": self.mode,
            "n_queries": self.n_queries,
            "n_records": self.n_records,
            "k": self.k,
            "requested_workers": self.requested_workers,
            "workers": self.workers,
            "scan_workers": self.scan_workers,
            "scan_pool_kind": self.scan_pool_kind,
            "pool_kind": self.pool_kind,
            "bound_sharing": self.bound_sharing,
            "bound_cadence": self.bound_cadence,
            "min_fetch_records": self.min_fetch_records,
            "est_scan_ms": self.est_scan_ms,
            "est_refine_ms": self.est_refine_ms,
            "reason": self.reason,
        }


def plan_query_batch(
    batch,
    index,
    cost_model: QueryCostModel | None = None,
    query_workers: int | None = 1,
    pool_kind: str = "auto",
    scheduler: str = "adaptive",
    bound_sharing: str = "auto",
    bound_cadence: str = "block",
) -> PlanReport:
    """Pick the batch's worker counts, pool kinds and partition split.

    ``scheduler="fixed"`` reproduces the PR-4 plan exactly: the
    requested worker count everywhere, the byte-threshold pool choice
    (deferred to the engine via ``pool_kind="auto"``), one fetch chunk
    per worker, and no bound sharing unless explicitly forced ``"on"``.

    ``scheduler="adaptive"`` prices the batch with ``cost_model``
    (default: the documented :data:`DEFAULT_QUERY_COST`; pass
    :func:`calibrate_query_costs` output for measured rates) and
    *clamps downward* — the plan never exceeds the requested worker
    count, so ``query_workers=1`` always remains the serial engine:

    * scan workers: each worker's slice of the Q x N lower-bound
      matrix must amortize :data:`SCAN_SPAN_TASKS` task spawns;
    * scan pool kind (only when the caller left ``pool_kind="auto"``):
      argmin of the modeled thread total vs. the process total
      (spawn + payload shipping + the same compute);
    * fetch split: a partition must hold ``thread_task_us /
      refine_record_us`` candidates (``min_fetch_records``) to earn a
      pool task;
    * bound sharing: on for exact batches (``bound_sharing="auto"``),
      off for approximate ones (no heaps to feed it).
    """
    if scheduler not in _SCHEDULERS:
        raise ValueError(
            f"scheduler must be one of {_SCHEDULERS}, got {scheduler!r}"
        )
    if bound_sharing not in _SHARING_MODES:
        raise ValueError(
            f"bound_sharing must be one of {_SHARING_MODES}, got {bound_sharing!r}"
        )
    if bound_cadence not in _CADENCES:
        raise ValueError(
            f"bound_cadence must be one of {_CADENCES}, got {bound_cadence!r}"
        )
    cost = cost_model or DEFAULT_QUERY_COST
    raw = getattr(index, "raw", None)
    n_records = int(raw.n_series) if raw is not None else 0
    n_queries = int(batch.n_queries)
    workers = resolve_workers(query_workers)
    mode = batch.mode

    # Indexes without a summary column (the brute-force scan) price
    # their pass at the refine rate — every record is refined, none is
    # lower-bounded.
    config = getattr(index, "config", None)
    cell_us = cost.mindist_cell_us if config is not None else cost.refine_record_us
    est_scan_ms = n_queries * n_records * cell_us / 1000.0
    est_refine_ms = n_records * cost.refine_record_us / 1000.0

    if scheduler == "fixed":
        sharing = "on" if bound_sharing == "on" and mode == "exact" else "off"
        approx_workers = 1 if mode == "approximate" else workers
        return PlanReport(
            scheduler="fixed",
            mode=mode,
            n_queries=n_queries,
            n_records=n_records,
            k=batch.k,
            requested_workers=query_workers,
            workers=approx_workers,
            scan_workers=workers,
            scan_pool_kind=pool_kind,
            pool_kind=pool_kind,
            bound_sharing=sharing,
            bound_cadence=bound_cadence,
            min_fetch_records=1,
            est_scan_ms=est_scan_ms,
            est_refine_ms=est_refine_ms,
            reason="fixed scheduler: requested workers, byte-threshold pools",
        )

    # Scan: clamp the fan-out so each slice amortizes its task spawn.
    # (Recorded for approximate batches too — the brute-force scan
    # answers both modes with the same full pass.)
    est_scan_us = est_scan_ms * 1000.0
    span_us = SCAN_SPAN_TASKS * cost.thread_task_us
    scan_workers = max(1, min(workers, int(est_scan_us // max(span_us, 1e-9))))

    if mode == "approximate":
        # One partition per ~2 queries keeps cache sharing worthwhile.
        approx_workers = max(1, min(workers, n_queries // 2))
        sharing = "off"
        reason = (
            f"approximate batch: {approx_workers} visit-order partitions"
            f" for {n_queries} queries"
        )
        return PlanReport(
            scheduler="adaptive",
            mode=mode,
            n_queries=n_queries,
            n_records=n_records,
            k=batch.k,
            requested_workers=query_workers,
            workers=approx_workers,
            scan_workers=scan_workers,
            scan_pool_kind=pool_kind,
            pool_kind=pool_kind,
            bound_sharing=sharing,
            bound_cadence=bound_cadence,
            min_fetch_records=1,
            est_scan_ms=est_scan_ms,
            est_refine_ms=est_refine_ms,
            reason=reason,
        )
    if pool_kind == "auto":
        word_length = getattr(config, "word_length", 8)
        payload_bytes = n_records * word_length * 2 + n_queries * n_records * 8
        payload_mib = payload_bytes / (1 << 20)
        thread_us = cost.thread_task_us * scan_workers + est_scan_us / max(
            scan_workers, 1
        )
        process_us = (
            cost.process_task_us * scan_workers
            + cost.ship_us_per_mib * payload_mib
            + est_scan_us / max(scan_workers, 1)
        )
        scan_pool_kind = "thread" if thread_us <= process_us else "process"
    else:
        scan_pool_kind = pool_kind
    min_fetch_records = max(
        1,
        min(
            MAX_FETCH_FLOOR_RECORDS,
            int(cost.thread_task_us / max(cost.refine_record_us, 1e-9)),
        ),
    )
    sharing = "on" if bound_sharing == "auto" else bound_sharing
    reason = (
        f"adaptive: scan {scan_workers}/{workers} workers on"
        f" {scan_pool_kind} pool (est {est_scan_ms:.2f} ms), fetch floor"
        f" {min_fetch_records} records/partition, bound sharing {sharing}"
    )
    return PlanReport(
        scheduler="adaptive",
        mode=mode,
        n_queries=n_queries,
        n_records=n_records,
        k=batch.k,
        requested_workers=query_workers,
        workers=workers,
        scan_workers=scan_workers,
        scan_pool_kind=scan_pool_kind,
        pool_kind=pool_kind,
        bound_sharing=sharing,
        bound_cadence=bound_cadence,
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
    query_pool_kind: str = "auto",
    scheduler: str = "adaptive",
    bound_sharing: str = "auto",
    cost_model: QueryCostModel | None = None,
    wrap_device=None,
    bound_board=None,
    heal_report=None,
) -> BatchReport:
    """Plan and execute one batch on a SIMS-backed Coconut index.

    The shared ``query_batch`` implementation of CoconutTree,
    CoconutTrie and CoconutLSM: builds a :class:`PlanReport` (attached
    to the returned report as ``report.plan``), then dispatches to the
    serial batched engine, the multi-worker exact engine, or the
    partitioned approximate engine.  ``bound_board`` injects a board
    (tests drive adversarial publish schedules through it); ``None``
    lets the engine build one per attempt when the plan shares bounds.
    Wrong-length and non-finite queries raise ``ValueError`` before
    anything is planned or read.
    """
    index._query_matrix(batch.queries)
    plan = plan_query_batch(
        batch,
        index,
        cost_model=cost_model,
        query_workers=query_workers,
        pool_kind=query_pool_kind,
        scheduler=scheduler,
        bound_sharing=bound_sharing,
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
            bound_cadence=plan.bound_cadence,
            scan_workers=plan.scan_workers,
            scan_pool_kind=plan.scan_pool_kind,
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
    pool_kind: str = "auto",
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

            def attempt(attempt_index: int):
                session = ShardedDisk(
                    index.disk,
                    [(0, 0)] * len(chunks),
                    names=[f"approx-p{p}" for p in range(len(chunks))],
                    read_only=True,
                )

                def run_partition(p: int):
                    device = (
                        session.shards[p]
                        if wrap_device is None
                        else wrap_device(session.shards[p], p, attempt_index)
                    )
                    with BufferPool(device, QUERY_SHARD_POOL_PAGES) as pool:
                        return index._approx_answer_subset(
                            queries, ctx, chunks[p], device=pool
                        )

                with session:
                    if pool_kind == "serial":
                        return [run_partition(p) for p in range(len(chunks))]
                    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
                        return list(
                            pool.map(run_partition, range(len(chunks)))
                        )

            parts = run_self_healing(
                attempt,
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
