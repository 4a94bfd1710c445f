"""The exact engine, the planner and self-healing for the Coconut indexes.

Builds run on the calling thread (summarize, external sort, one leaf
pass), and so do queries: every batch is one pass on the calling
thread.  The package name is historical; nothing in it runs a pool.
What is left is what the query path calls, ready to move in one step:

* :mod:`repro.parallel.batch` — the one exact engine,
  :func:`~repro.parallel.batch.batched_exact_knn`: it answers many
  queries in one skip-sequential SIMS pass, sharing the summary scan
  and every fetched page across the whole batch.  Every exact search,
  k-NN and batch of a SIMS-backed index calls it; a batch's
  ``query_batch`` (``repro.core.sims.SIMSIndex``) calls it directly.
* :mod:`repro.parallel.sched` — the planner
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

from .batch import batched_exact_knn
from .heal import (
    HEAL_BACKOFF_CAP_S,
    HEAL_BACKOFF_S,
    HEAL_RETRIES,
    HealReport,
    RetryPolicy,
    run_self_healing,
)
from .sched import PlanReport, plan_query_batch, resolve_workers

__all__ = [
    "HEAL_BACKOFF_CAP_S",
    "HEAL_BACKOFF_S",
    "HEAL_RETRIES",
    "HealReport",
    "PlanReport",
    "RetryPolicy",
    "batched_exact_knn",
    "plan_query_batch",
    "resolve_workers",
    "run_self_healing",
]
