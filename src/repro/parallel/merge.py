"""Parallel range-partitioned merging of presorted runs.

Merging sorted runs parallelizes by *key range*, not by run: sample
splitter keys from the runs, cut every run at those keys (each run is
sorted, so a cut is one ``searchsorted``), and hand each disjoint key
range — a small k-way merge over per-run slices — to its own worker.
Concatenating the merged partitions in range order reproduces the
global merge exactly.

Two invariants make the result bit-identical to the serial merge for
*any* splitter choice and worker count:

* partitions are half-open key intervals ``[s_{p-1}, s_p)`` cut with
  ``side="left"`` in every run, so all records sharing a key land in
  the same partition — cross-run ties can never straddle a boundary;
* within a partition each run contributes a contiguous slice, in run
  order, and the partition merge is stable — so ties resolve by
  (run index, position within run), exactly as the serial engine does.

Splitters are sampled from run boundaries (evenly strided keys of each
run) and reduced to worker-count quantiles, which balances partitions
whenever runs cover similar key ranges — the case for the parallel
summarization pipeline, whose runs are chunk-wise samples of the same
distribution.  A skewed sample only unbalances the partitions; it can
never change the output.

Partitions merge on the repository's one pool
(:mod:`repro.parallel.pool`): threads sharing the run arrays, or inline
with ``kind="serial"``; ``workers=1`` is the serial merge itself.
"""

from __future__ import annotations

import numpy as np

from ..storage.merge import merge_presorted
from .pool import check_pool_kind, pool_map, resolve_workers

#: Strided samples taken per run when proposing splitters.
SPLITTER_SAMPLES_PER_RUN = 16


def sample_splitters(
    key_runs: "list[np.ndarray]", n_parts: int
) -> np.ndarray:
    """Choose up to ``n_parts - 1`` ascending splitter keys.

    Samples each run at even strides (always including its tail — the
    run *boundaries*), pools and sorts the samples, and keeps the
    pool's ``n_parts``-quantiles, deduplicated.  Returns an ``S<k>``
    array; it may be shorter than requested (or empty) when the key
    space has too few distinct values, which simply yields fewer, or
    one, partitions.
    """
    if n_parts <= 1:
        key_runs = [k for k in key_runs if len(k)]
        dtype = key_runs[0].dtype if key_runs else "S1"
        return np.empty(0, dtype=dtype)
    samples = []
    for keys in key_runs:
        if not len(keys):
            continue
        stride = max(1, len(keys) // SPLITTER_SAMPLES_PER_RUN)
        samples.append(keys[stride - 1 :: stride])
        samples.append(keys[-1:])
    if not samples:
        return np.empty(0, dtype="S1")
    pool = np.sort(np.concatenate(samples))
    positions = (np.arange(1, n_parts) * len(pool)) // n_parts
    return np.unique(pool[positions])


def run_cut_positions(keys: np.ndarray, splitters: np.ndarray) -> np.ndarray:
    """Record positions cutting one sorted run at the splitters.

    Returns ``len(splitters) + 2`` ascending indices; partition ``p`` of
    the run is records ``[cuts[p], cuts[p + 1])``.  Cuts use
    ``side="left"`` — all records sharing a key land in the same
    partition, so cross-run ties can never straddle a boundary.  The
    in-memory :func:`partition_runs` and the file-backed sharded merge
    (:mod:`repro.parallel.spill`) share this rule, which is what makes
    both bit-identical to the serial stable merge.
    """
    bounds = np.searchsorted(keys, splitters, side="left")
    return np.concatenate(
        [[0], bounds, [len(keys)]]
    ).astype(np.int64)


def partition_runs(
    runs: "list[tuple[np.ndarray, np.ndarray]]", splitters: np.ndarray
) -> "list[list[tuple[np.ndarray, np.ndarray]]]":
    """Cut every run at the splitters into per-partition slice lists.

    Partition ``p`` holds, for each run in run order, the slice of keys
    in ``[splitters[p-1], splitters[p])`` — empty slices are dropped.
    """
    parts: list[list[tuple[np.ndarray, np.ndarray]]] = [
        [] for _ in range(len(splitters) + 1)
    ]
    for keys, payloads in runs:
        cuts = run_cut_positions(keys, splitters).tolist()
        for p in range(len(cuts) - 1):
            if cuts[p + 1] > cuts[p]:
                parts[p].append(
                    (keys[cuts[p] : cuts[p + 1]], payloads[cuts[p] : cuts[p + 1]])
                )
    return parts


def parallel_merge_runs(
    runs: "list[tuple[np.ndarray, np.ndarray]]",
    workers: int | None = None,
    kind: str = "thread",
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge presorted runs on a worker pool; bit-identical to serial.

    ``runs`` are (keys, payloads) pairs, each internally stably sorted.
    The output equals :func:`repro.storage.merge.merge_presorted` on
    the same list — and therefore a stable argsort of the concatenation
    — for every ``workers`` / ``kind`` choice.
    """
    check_pool_kind(kind)
    runs = [(np.asarray(k), np.asarray(p)) for k, p in runs]
    for keys, payloads in runs:
        if len(keys) != len(payloads):
            raise ValueError(f"{len(keys)} keys vs {len(payloads)} payloads in run")
    runs = [run for run in runs if len(run[0])]
    if not runs:
        raise ValueError("parallel_merge_runs requires at least one non-empty run")
    if len(runs) == 1:
        return runs[0]
    workers = resolve_workers(workers)
    splitters = sample_splitters([keys for keys, _ in runs], workers)
    if workers <= 1 or len(splitters) == 0:
        return merge_presorted(runs)
    parts = [part for part in partition_runs(runs, splitters) if part]
    merged = pool_map(merge_presorted, [parts], workers, kind)
    if len(merged) == 1:
        return merged[0]
    keys = np.concatenate([k for k, _ in merged])
    payloads = np.concatenate([p for _, p in merged])
    return keys, payloads
