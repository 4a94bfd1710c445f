"""Batched and multi-worker query execution for the Coconut indexes.

Builds run on the calling thread (summarize, external sort, one leaf
pass); this package is the query side, on one worker pool:

* :mod:`repro.parallel.pool` — the pool itself: a thread pool
  (``"thread"``, the default everywhere) or the same partition plan
  mapped on the calling thread (``"serial"``, the replay reference),
  validated and constructed in this one place.
* :mod:`repro.parallel.batch` — a batched exact-kNN executor that
  answers many queries in one skip-sequential SIMS pass, sharing the
  summary scan and every fetched page across the whole batch, plus a
  batched *approximate* executor that groups queries by target leaf so
  each leaf is read once per batch.
* :mod:`repro.parallel.heal` — self-healing execution of the parallel
  plans: transient injected device faults retry with capped backoff on
  a clean (aborted) session, everything else degrades to the serial
  engines — whose answers and stats are the oracle the parallel paths
  are property-tested against, so healing never changes the result.
* :mod:`repro.parallel.query` — the multi-worker version of the
  batched exact engine: the lower-bound scan is range-partitioned
  across a pool and the record fetches stream through per-worker
  read-only :class:`repro.storage.DiskShard` domains, with answers
  (ids, distances, tie order) bit-identical to the serial batched
  engine for any worker count and reconciled
  :class:`repro.storage.DiskStats` bit-identical to the inline serial
  replay (``pool_kind="serial"``).
* :mod:`repro.parallel.sched` — the cost-model planner on top
  (:func:`repro.parallel.sched.plan_query_batch`): it clamps worker
  counts and fetch-partition floors per batch and runs approximate
  batches as the serial shared-probe pass.

All are wired into the index classes through
``query_batch(query_workers=)`` on every index.
"""

from .batch import approx_query_batch, batched_exact_knn, build_batch_report
from .heal import (
    HEAL_BACKOFF_CAP_S,
    HEAL_BACKOFF_S,
    HEAL_RETRIES,
    HealReport,
    RetryPolicy,
    run_self_healing,
)
from .pool import resolve_workers
from .query import (
    parallel_batched_exact_knn,
    parallel_lower_bound_scan,
    parallel_serial_scan_batch,
    parallel_sims_query_batch,
    partition_ranges,
)
from .sched import (
    PlanReport,
    plan_query_batch,
    run_sims_query_batch,
)

__all__ = [
    "HEAL_BACKOFF_CAP_S",
    "HEAL_BACKOFF_S",
    "HEAL_RETRIES",
    "HealReport",
    "PlanReport",
    "RetryPolicy",
    "approx_query_batch",
    "batched_exact_knn",
    "build_batch_report",
    "parallel_batched_exact_knn",
    "parallel_lower_bound_scan",
    "parallel_serial_scan_batch",
    "parallel_sims_query_batch",
    "partition_ranges",
    "plan_query_batch",
    "resolve_workers",
    "run_sims_query_batch",
    "run_self_healing",
]
