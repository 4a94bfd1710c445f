"""Parallel build and batched query execution for the Coconut indexes.

The paper's argument is that sortable summarizations make index
construction "scale with the hardware": summarization is embarrassingly
parallel per chunk, and an external sort consumes presorted runs from
any number of producers.  This package supplies both halves, on one
worker pool:

* :mod:`repro.parallel.pool` — the pool itself: a thread pool
  (``"thread"``, the default everywhere) or the same partition plan
  mapped on the calling thread (``"serial"``, the replay reference),
  validated and constructed in this one place.
* :mod:`repro.parallel.summarize` — a chunked, multi-worker
  ``series -> PAA -> SAX -> invSAX`` pipeline whose presorted chunk
  runs feed :meth:`repro.storage.ExternalSorter.sort_runs` directly,
  so bulk-loading uses every worker while producing bit-identical
  indexes to the serial path.
* :mod:`repro.parallel.merge` — a range-partitioned parallel merge of
  *resident* presorted runs: splitter keys sampled from run boundaries
  cut every run into disjoint key ranges that workers merge
  independently, with output bit-identical to the serial merge for any
  worker count.
* :mod:`repro.parallel.spill` — the same idea for *file-backed* runs
  on the sharded storage layer: each partition streams its slices of
  the spilled run files through a private
  :class:`repro.storage.DiskShard` (own head, own stats) and writes a
  disjoint extent of the output run — or, on the cascade's final pass,
  streams straight to the consumer.  Parallelizes the spilled merge
  cascade of the external sort and Coconut-LSM compaction, with
  deterministic, serially-replayable I/O accounting.
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

All are wired into the index classes (``workers=`` on the Coconut
constructors, ``query_batch(query_workers=)`` on every index) and into
the benchmark CLI as ``--workers`` / ``--batch``.
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
from .merge import (
    parallel_merge_runs,
    partition_runs,
    run_cut_positions,
    sample_splitters,
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
from .spill import (
    ShardedMergeResult,
    sharded_spill_merge,
    sharded_stream_merge,
    stream_run_file,
)
from .summarize import (
    DEFAULT_CHUNK_SERIES,
    ParallelSummarizer,
    parallel_invsax_keys,
    summarize_chunk,
    summarize_presorted_runs,
)

__all__ = [
    "DEFAULT_CHUNK_SERIES",
    "HEAL_BACKOFF_CAP_S",
    "HEAL_BACKOFF_S",
    "HEAL_RETRIES",
    "HealReport",
    "ParallelSummarizer",
    "PlanReport",
    "RetryPolicy",
    "ShardedMergeResult",
    "approx_query_batch",
    "batched_exact_knn",
    "build_batch_report",
    "parallel_batched_exact_knn",
    "parallel_invsax_keys",
    "parallel_lower_bound_scan",
    "parallel_merge_runs",
    "parallel_serial_scan_batch",
    "parallel_sims_query_batch",
    "partition_ranges",
    "partition_runs",
    "plan_query_batch",
    "resolve_workers",
    "run_sims_query_batch",
    "run_cut_positions",
    "run_self_healing",
    "sample_splitters",
    "sharded_spill_merge",
    "sharded_stream_merge",
    "stream_run_file",
    "summarize_chunk",
    "summarize_presorted_runs",
]
