"""Parallel query scheduling: the cost-model planner.

:func:`plan_query_batch` prices a batch with
:class:`repro.storage.cost.QueryCostModel` (lower-bound cells, refine
records, pool-task overhead) and clamps the scan fan-out and the fetch
partition floor below the requested worker count.  Every decision is
recorded on a :class:`PlanReport` attached to the batch report.

Two paths are deliberately absent, each because no measurement on a
2-core host showed it beating the path that remains
(``docs/queries.md``, "Decided on 2-core evidence"):

* **Approximate batches run on one worker.**  Their shared-probe pass
  reads a leaf once per batch; partitioning the visit order split that
  cache and ran 0.5-0.7x of serial.  The plan records ``workers=1``
  for them at any ``query_workers``.
* **Exact fetch workers prune against their own heaps.**  Sharing
  best-k bounds between workers saved visits only when publish timing
  allowed (0.01-7 % on random walks, none on unprunable data) and no
  wall time beyond the run-to-run spread.  Each worker's thresholds
  see only its own offers (plus the shared seeds), which keeps a
  threaded batch's ``DiskStats`` equal to its ``pool_kind="serial"``
  replay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..core.sims import SIMS_BLOCK_RECORDS
from ..indexes.base import BatchReport
from ..storage.cost import DEFAULT_QUERY_COST
from .batch import approx_query_batch, sims_query_batch
from .pool import check_pool_kind, resolve_workers
from .query import parallel_sims_query_batch

#: A scan worker's slice must amortize at least this many task spawns.
SCAN_SPAN_TASKS = 4

#: A fetch partition must hold at least ``thread_task_us /
#: refine_record_us`` candidate records to be worth a pool task; this
#: caps the floor at one refine block so degenerate calibrations
#: cannot serialize fetches.
MAX_FETCH_FLOOR_RECORDS = SIMS_BLOCK_RECORDS


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
    min_fetch_records: int
    est_scan_ms: float
    est_refine_ms: float
    reason: str

    def as_dict(self) -> dict:
        return asdict(self)


def plan_query_batch(batch, index, query_workers: int | None = 1) -> PlanReport:
    """Pick the batch's worker counts and partition split.

    Prices the batch with :data:`repro.storage.cost.DEFAULT_QUERY_COST`
    and *clamps downward* — the plan never exceeds the requested worker
    count, so ``query_workers=1`` always remains the serial engine:

    * scan workers: each worker's slice of the Q x N lower-bound
      matrix must amortize :data:`SCAN_SPAN_TASKS` task spawns;
    * fetch split: a partition must hold ``thread_task_us /
      refine_record_us`` candidates (``min_fetch_records``) to earn a
      pool task;
    * approximate batches: one worker, the shared-probe pass.
    """
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
        workers = 1
        min_fetch_records = 1
        reason = f"approximate batch: one shared-probe pass for {n_queries} queries"
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
            " records/partition"
        )
    return PlanReport(
        mode=batch.mode,
        n_queries=n_queries,
        n_records=n_records,
        k=batch.k,
        requested_workers=query_workers,
        workers=workers,
        scan_workers=scan_workers,
        min_fetch_records=min_fetch_records,
        est_scan_ms=est_scan_ms,
        est_refine_ms=est_refine_ms,
        reason=reason,
    )


def run_sims_query_batch(
    index,
    batch,
    query_workers: int | None = 1,
    query_pool_kind: str = "thread",
    wrap_device=None,
    heal_report=None,
) -> BatchReport:
    """Plan and execute one batch on a SIMS-backed Coconut index.

    The shared ``query_batch`` implementation of CoconutTree,
    CoconutTrie and CoconutLSM: builds a :class:`PlanReport` (attached
    to the returned report as ``report.plan``), then dispatches to the
    serial batched engine, the multi-worker exact engine, or the
    shared-probe approximate pass.  ``query_pool_kind="serial"`` maps
    the same partition plan on the calling thread (the replay
    reference, whose ``DiskStats`` the threaded run reproduces).
    Wrong-length and non-finite queries, then unknown pool kinds and
    worker counts, raise ``ValueError`` before anything is planned or
    read.
    """
    index._query_matrix(batch.queries)
    check_pool_kind(query_pool_kind)
    plan = plan_query_batch(batch, index, query_workers=query_workers)
    if batch.mode == "approximate":
        report = approx_query_batch(index, batch)
    elif plan.workers > 1:
        report = parallel_sims_query_batch(
            index,
            batch,
            index._prepare_sims_parallel,
            plan.workers,
            pool_kind=query_pool_kind,
            wrap_device=wrap_device,
            scan_workers=plan.scan_workers,
            min_fetch_records=plan.min_fetch_records,
            heal_report=heal_report,
        )
    else:
        report = sims_query_batch(index, batch, index._prepare_sims)
    report.plan = plan
    return report
