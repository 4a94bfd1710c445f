"""Batched query execution for the Coconut indexes.

Builds run on the calling thread (summarize, external sort, one leaf
pass), and so do queries: every batch is one pass on the calling
thread.  The package name is historical; nothing in it runs a pool.

* :mod:`repro.parallel.batch` — a batched exact-kNN executor that
  answers many queries in one skip-sequential SIMS pass, sharing the
  summary scan and every fetched page across the whole batch, plus a
  batched *approximate* executor that groups queries by target leaf so
  each leaf is read once per batch.
* :mod:`repro.parallel.sched` — the planner on top
  (:func:`repro.parallel.sched.plan_query_batch`): it records each
  batch's predicted scan and refine time on a :class:`PlanReport`, and
  :func:`resolve_workers` checks the ``query_workers`` every
  ``query_batch`` still accepts and ignores.
* :mod:`repro.parallel.heal` — self-healing execution for the online
  service's served snapshots: transient injected device faults retry
  with capped backoff on a fresh fault wrapper, everything else
  degrades to a serial pass on the unwrapped snapshot shard, so
  healing never changes the result.
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
from .sched import (
    PlanReport,
    plan_query_batch,
    resolve_workers,
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
    "plan_query_batch",
    "resolve_workers",
    "run_sims_query_batch",
    "run_self_healing",
]
