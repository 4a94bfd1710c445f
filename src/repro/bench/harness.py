"""Experiment harness: uniform sweeps over indexes, memory and data.

Every benchmark under ``benchmarks/`` is a thin wrapper around one of
the ``run_*`` functions here, each of which regenerates the rows or
series of one paper figure.  Costs are reported as:

* ``sim_io_s`` — simulated I/O seconds in the disk access model (the
  quantity the paper's analysis is stated in),
* ``wall_s`` — Python CPU time (reported for transparency; absolute
  values are not comparable to the paper's C implementation),
* ``total_s`` — their sum, the closest analogue of the paper's y-axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.coconut_tree import CoconutTree
from ..core.coconut_trie import CoconutTrie
from ..indexes.ads import ADSIndex
from ..indexes.base import SeriesIndex
from ..indexes.dstree import DSTree
from ..indexes.isax2 import ISAX2Index
from ..indexes.rtree import RTreeIndex
from ..indexes.serial import SerialScan
from ..indexes.vertical import VerticalIndex
from ..storage.disk import SimulatedDisk
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig
from .workloads import DatasetSpec

#: Page size used by all experiments (bytes).
PAGE_SIZE = 8192

#: Default leaf capacity (records); the paper used 2000 at full scale.
LEAF_SIZE = 100


def default_config(length: int) -> SAXConfig:
    """The summarization shape used by all benchmark experiments.

    The library default is the paper's 16 segments x 256 cardinality.
    Benchmarks run at ~10^4 series instead of the paper's ~10^8, so we
    scale the word length down to 8 segments: the iSAX root fans out on
    one bit per segment (2^w children), and keeping w = 16 at small N
    would give every series its own root child, exaggerating the
    sparse-leaf effect far beyond the paper's reported ~10% fill.
    """
    word_length = 8 if length >= 16 else 4
    return SAXConfig(
        series_length=length, word_length=word_length, cardinality=256
    )


IndexFactory = Callable[[SimulatedDisk, int, int], SeriesIndex]


def _factories() -> dict[str, IndexFactory]:
    def ctree(disk, memory, length):
        return CoconutTree(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ctree_full(disk, memory, length):
        return CoconutTree(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def ctrie(disk, memory, length):
        return CoconutTrie(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ctrie_full(disk, memory, length):
        return CoconutTrie(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def ads_plus(disk, memory, length):
        return ADSIndex(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ads_full(disk, memory, length):
        return ADSIndex(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            plus=False,
        )

    def isax2(disk, memory, length):
        return ISAX2Index(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def rtree(disk, memory, length):
        return RTreeIndex(
            disk, memory, n_dimensions=8, leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def rtree_plus(disk, memory, length):
        return RTreeIndex(
            disk, memory, n_dimensions=8, leaf_size=LEAF_SIZE,
            materialized=False,
        )

    def dstree(disk, memory, length):
        return DSTree(disk, memory, leaf_size=LEAF_SIZE)

    def vertical(disk, memory, length):
        return VerticalIndex(disk, memory)

    def serial(disk, memory, length):
        return SerialScan(disk, memory)

    return {
        "CTree": ctree,
        "CTreeFull": ctree_full,
        "CTrie": ctrie,
        "CTrieFull": ctrie_full,
        "ADS+": ads_plus,
        "ADSFull": ads_full,
        "iSAX2.0": isax2,
        "R-tree": rtree,
        "R-tree+": rtree_plus,
        "DSTree": dstree,
        "Vertical": vertical,
        "Serial": serial,
    }


INDEX_FACTORIES = _factories()

#: The two groups the paper's figures sweep (Fig. 8a vs 8b etc.).
MATERIALIZED_GROUP = ["CTreeFull", "CTrieFull", "ADSFull", "R-tree", "Vertical", "DSTree"]
SECONDARY_GROUP = ["CTree", "CTrie", "ADS+", "R-tree+"]


@dataclass
class Environment:
    """A fresh disk + raw file + index, isolated per experiment cell."""

    disk: SimulatedDisk
    raw: RawSeriesFile
    index: SeriesIndex


def make_environment(
    index_key: str, spec: DatasetSpec, memory_bytes: int, workers: int = 1
) -> Environment:
    """Generate the dataset, write the raw file, construct the index.

    ``workers > 1`` enables the parallel bulk-loading pipeline on
    indexes that support it (the Coconut family); other indexes ignore
    it and build serially.
    """
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    data = spec.generate()
    raw = RawSeriesFile.create(disk, data)
    disk.reset_stats()  # ingest of the raw file is not index cost
    index = INDEX_FACTORIES[index_key](disk, memory_bytes, spec.length)
    if workers > 1 and hasattr(index, "workers"):
        index.workers = int(workers)
    return Environment(disk=disk, raw=raw, index=index)


def _build_row(index_key: str, memory_bytes: int, spec: DatasetSpec,
               report) -> dict:
    return {
        "index": index_key,
        "memory_frac": round(memory_bytes / spec.raw_bytes, 4),
        "n_series": spec.n_series,
        "length": spec.length,
        "sim_io_s": report.simulated_io_ms / 1000.0,
        "wall_s": report.wall_s,
        "total_s": report.total_cost_s,
        "index_MB": report.index_bytes / 1e6,
        "n_leaves": report.n_leaves,
        "leaf_fill": report.avg_leaf_fill,
        "rand_io": report.io.random_reads + report.io.random_writes,
        "seq_io": report.io.sequential_reads + report.io.sequential_writes,
    }


def run_build_sweep(
    index_keys: list[str],
    spec: DatasetSpec,
    memory_fractions: list[float],
    workers: int = 1,
) -> list[dict]:
    """Construction cost vs. memory budget (Figs. 8a/8b)."""
    rows = []
    for fraction in memory_fractions:
        memory = max(4096, int(spec.raw_bytes * fraction))
        for key in index_keys:
            env = make_environment(key, spec, memory, workers=workers)
            report = env.index.build(env.raw)
            rows.append(_build_row(key, memory, spec, report))
    return rows


def run_parallel_build_sweep(
    index_key: str,
    spec: DatasetSpec,
    workers_list: list[int],
    memory_fraction: float = 1.0,
) -> list[dict]:
    """Build wall-clock vs. worker count (bench_parallel_scaling).

    The first entry of ``workers_list`` should be 1 so every other row
    reports its speedup against the serial build of the same dataset.
    Simulated I/O is reported too: when the sort fits in memory it is
    identical across worker counts (parallelism only reorganizes CPU
    work); a spilled sort writes the same records as slightly different
    run files, so its I/O may differ marginally.
    """
    rows = []
    memory = max(4096, int(spec.raw_bytes * memory_fraction))
    serial_wall = None
    for workers in workers_list:
        env = make_environment(index_key, spec, memory, workers=workers)
        report = env.index.build(env.raw)
        if serial_wall is None or workers <= 1:
            serial_wall = report.wall_s
        rows.append(
            {
                "index": index_key,
                "workers": workers,
                "n_series": spec.n_series,
                "wall_s": report.wall_s,
                "sim_io_s": report.simulated_io_ms / 1000.0,
                "speedup": serial_wall / report.wall_s if report.wall_s else 1.0,
                "n_leaves": report.n_leaves,
            }
        )
    return rows


def make_presorted_runs(
    n_records: int,
    n_runs: int,
    seed: int = 7,
    key_bytes: int = 8,
    dup_alphabet: int = 0,
    payload_dims: int = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous presorted (keys, payload) runs of random byte keys.

    ``dup_alphabet > 0`` draws key bytes from that many values, making
    duplicate-heavy keys (the tie-breaking stress case for merge
    stability).  ``payload_dims > 0`` carries a float32 matrix payload
    of that many columns per record (the materialized-index regime)
    instead of int64 offsets.  Runs follow the ``sort_runs`` contract:
    contiguous input chunks, each stably presorted.
    """
    rng = np.random.default_rng(seed)
    high = min(dup_alphabet, 256) if dup_alphabet > 0 else 256
    raw = rng.integers(0, high, size=(n_records, key_bytes), dtype=np.uint8)
    keys = raw.view(f"S{key_bytes}").ravel()
    if payload_dims > 0:
        payloads = rng.standard_normal((n_records, payload_dims)).astype(
            np.float32
        )
    else:
        payloads = np.arange(n_records, dtype=np.int64)
    runs = []
    bounds = np.linspace(0, n_records, n_runs + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk_keys, chunk_payloads = keys[lo:hi], payloads[lo:hi]
        order = np.argsort(chunk_keys, kind="stable")
        runs.append((chunk_keys[order], chunk_payloads[order]))
    return runs


def run_spilled_merge_sweep(
    record_counts: list[int],
    run_counts: list[int],
    workers_list: list[int],
    seed: int = 7,
    dup_alphabet: int = 0,
    payload_dims: int = 16,
    memory_fraction: float = 1 / 8,
    pool_kind: str = "thread",
) -> list[dict]:
    """Sharded spilled-run merging vs. the serial external sort.

    Every cell forces the sort to spill (``memory_fraction`` of the
    data) and merges the same presorted runs three ways: the serial
    sorter (``merge_workers=1``), the sharded plan on a thread pool,
    and the sharded plan replayed inline (``pool_kind="serial"`` — the
    accounting oracle).  Each worker row *asserts* the contract before
    reporting a speedup:

    * merged stream, chunk shapes and ``SortReport`` bit-identical to
      the serial sorter;
    * reconciled ``DiskStats`` of the pooled run bit-identical to the
      serial replay.

    The gated ``merge_speedup`` times the merge cascade alone — the
    phase the sharded layer parallelizes; ``sort_runs`` spills the
    initial runs eagerly and merges lazily, so the two phases separate
    cleanly.  ``total_speedup`` includes the (identical, serial) spill
    phase.  Both need idle cores — honest ~1x on a single-core host —
    and payload mass (``payload_dims`` float32 columns per record, the
    materialized regime where the GIL-releasing NumPy merge work
    dominates).
    """
    import os

    rows = []
    workers_list = [w for w in workers_list if w > 1]
    record_bytes = 8 + (4 * payload_dims if payload_dims > 0 else 8)
    for n_records in record_counts:
        for n_runs in run_counts:
            runs = make_presorted_runs(
                n_records,
                n_runs,
                seed=seed,
                dup_alphabet=dup_alphabet,
                payload_dims=payload_dims,
            )
            memory = max(2048, int(n_records * record_bytes * memory_fraction))
            serial = _drive_spilled_merge(runs, memory)
            for w in workers_list:
                replay = _drive_spilled_merge(
                    runs, memory, merge_workers=w, pool_kind="serial"
                )
                pooled = _drive_spilled_merge(
                    runs, memory, merge_workers=w, pool_kind=pool_kind
                )
                stream_identical = bool(
                    np.array_equal(serial["keys"], pooled["keys"])
                    and np.array_equal(serial["payloads"], pooled["payloads"])
                    and serial["shapes"] == pooled["shapes"]
                    and serial["report"] == pooled["report"]
                    and np.array_equal(serial["keys"], replay["keys"])
                    and np.array_equal(serial["payloads"], replay["payloads"])
                    and serial["shapes"] == replay["shapes"]
                    and serial["report"] == replay["report"]
                )
                io_deterministic = pooled["stats"] == replay["stats"]
                if not stream_identical or not io_deterministic:
                    raise AssertionError(
                        f"sharded-merge equivalence violation at "
                        f"{n_records} records / {n_runs} runs / {w} "
                        f"workers: identical={stream_identical}, "
                        f"io_deterministic={io_deterministic}"
                    )
                total_s = serial["spill_s"] + serial["merge_s"]
                total_w = pooled["spill_s"] + pooled["merge_s"]
                rows.append(
                    {
                        "records": n_records,
                        "runs": n_runs,
                        "workers": w,
                        "spilled": serial["report"].spilled,
                        "merge_passes": serial["report"].merge_passes,
                        "cores": os.cpu_count() or 1,
                        "serial_merge_s": serial["merge_s"],
                        "parallel_merge_s": pooled["merge_s"],
                        "merge_speedup": (
                            serial["merge_s"] / pooled["merge_s"]
                            if pooled["merge_s"]
                            else float("inf")
                        ),
                        "total_speedup": (
                            total_s / total_w if total_w else float("inf")
                        ),
                        "identical": stream_identical,
                        "io_deterministic": io_deterministic,
                    }
                )
    return rows


def _drive_spilled_merge(
    runs: list[tuple[np.ndarray, np.ndarray]],
    memory_bytes: int,
    merge_workers: int = 1,
    pool_kind: str = "thread",
) -> dict:
    """One sort_runs pass with the spill and merge phases timed apart."""
    import time

    from ..storage.external_sort import ExternalSorter

    disk = SimulatedDisk(page_size=PAGE_SIZE)
    sorter = ExternalSorter(
        disk,
        memory_bytes,
        merge_workers=merge_workers,
        pool_kind=pool_kind,
    )
    t0 = time.perf_counter()
    # Eager: spill (and any cascade passes); lazy: the final merge
    # pass.  The default sweep cells run a single merge pass, so the
    # phase split is exact there.
    stream = sorter.sort_runs(runs)
    t1 = time.perf_counter()
    parts = list(stream)
    t2 = time.perf_counter()
    return {
        "keys": np.concatenate([k for k, _ in parts]),
        "payloads": np.concatenate([p for _, p in parts]),
        "shapes": [len(k) for k, _ in parts],
        "stats": disk.stats,
        "report": sorter.report,
        "spill_s": t1 - t0,
        "merge_s": t2 - t1,
    }


def run_batch_query_experiment(
    index_keys: list[str],
    spec: DatasetSpec,
    n_queries: int,
    k: int = 1,
    memory_fraction: float = 0.25,
    query_workers: int = 1,
) -> list[dict]:
    """Batched vs. per-query exact search on the same index.

    Answers the same workload twice — once query-at-a-time, once as a
    single :class:`repro.indexes.QueryBatch` — and reports both costs
    plus whether the answers agree (they must; the equivalence suite
    asserts it, this row makes it visible in benchmark output).
    ``query_workers > 1`` answers the batch on the multi-worker engine
    (same answers, the speedup needs idle cores).
    """
    from ..indexes.base import QueryBatch

    queries = spec.queries(n_queries)
    memory = max(4096, int(spec.raw_bytes * memory_fraction))
    rows = []
    for key in index_keys:
        env = make_environment(key, spec, memory)
        env.index.build(env.raw)
        env.disk.reset_stats()
        # Per-query baseline for the same problem: exact_search at
        # k = 1, exact_knn otherwise (comparing a k-NN batch against
        # 1-NN queries would cross-compare two different workloads).
        if k == 1:
            per_query = [env.index.exact_search(q) for q in queries]
            per_best = [r.answer_idx for r in per_query]
        else:
            per_query = [env.index.exact_knn(q, k) for q in queries]
            per_best = [
                r.answer_ids[0] if r.answer_ids else -1 for r in per_query
            ]
        per_io_s = sum(r.simulated_io_ms for r in per_query) / 1e3
        per_wall = sum(r.wall_s for r in per_query)
        env.disk.reset_stats()
        batched = env.index.query_batch(
            QueryBatch(queries=queries, k=k), query_workers=query_workers
        )
        agree = all(
            best == b.answer_idx
            for best, b in zip(per_best, batched.results)
        )
        batched_s = batched.total_cost_s
        rows.append(
            {
                "index": key,
                "n_queries": n_queries,
                "k": k,
                "query_workers": query_workers,
                "per_query_s": per_io_s + per_wall,
                "batched_s": batched_s,
                "io_speedup": (
                    per_io_s / (batched.simulated_io_ms / 1e3)
                    if batched.simulated_io_ms
                    else float("inf")
                ),
                "total_speedup": (
                    (per_io_s + per_wall) / batched_s
                    if batched_s
                    else float("inf")
                ),
                "answers_agree": agree,
            }
        )
    return rows


def run_parallel_query_sweep(
    index_keys: list[str],
    spec: DatasetSpec,
    n_queries: int,
    workers_list: list[int],
    k: int = 1,
    memory_fraction: float = 0.25,
) -> list[dict]:
    """Multi-worker batched exact search vs. the serial batched engine.

    Every cell answers the same :class:`repro.indexes.QueryBatch`
    three ways — the serial batched engine (``query_workers=1``), the
    parallel engine on a pool, and the parallel plan replayed inline
    (``query_pool_kind="serial"``, the accounting oracle) — and
    *asserts* the contract before reporting a speedup:

    * answers (ids, distances, tie order) bit-identical to the serial
      batched engine;
    * :class:`DiskStats` of the pooled run bit-identical to the serial
      replay of the same per-worker plans.

    The reported speedup is batch wall time, the number the paper-level
    claim is about; it needs idle cores (honest ~1x on a single-core
    host) and is most pronounced on exact batches, whose lower-bound
    scan and record fetches dominate.
    """
    import os

    from ..indexes.base import QueryBatch

    queries = spec.queries(n_queries)
    memory = max(4096, int(spec.raw_bytes * memory_fraction))
    rows = []
    workers_list = [w for w in workers_list if w > 1]
    for key in index_keys:
        env = make_environment(key, spec, memory)
        env.index.build(env.raw)
        batch = QueryBatch(queries=queries, k=k)
        # Untimed warmup: the first batch on a fresh index pays the
        # one-off summary-column load.  Charging it to the serial
        # baseline (and to no parallel run) would inflate the reported
        # speedup with cache warmth instead of parallelism.
        env.index.query_batch(batch)
        env.disk.park_head()
        env.disk.reset_stats()
        serial = env.index.query_batch(batch)
        for w in workers_list:
            # Identical starting state for the replay-determinism
            # comparison: summaries are warm (the serial run above
            # loaded them) and the head is parked, so both runs'
            # first accesses classify from the same position.
            env.disk.park_head()
            env.disk.reset_stats()
            replay = env.index.query_batch(
                batch, query_workers=w, query_pool_kind="serial"
            )
            env.disk.park_head()
            env.disk.reset_stats()
            pooled = env.index.query_batch(
                batch, query_workers=w, query_pool_kind="thread"
            )
            identical = (
                pooled.knn_ids == serial.knn_ids
                and pooled.knn_distances == serial.knn_distances
                and replay.knn_ids == serial.knn_ids
                and replay.knn_distances == serial.knn_distances
            )
            io_deterministic = pooled.io == replay.io
            if not identical or not io_deterministic:
                raise AssertionError(
                    f"parallel-query equivalence violation on {key} at "
                    f"{w} workers: identical={identical}, "
                    f"io_deterministic={io_deterministic}"
                )
            rows.append(
                {
                    "index": key,
                    "workers": w,
                    "n_queries": n_queries,
                    "k": k,
                    "n_series": spec.n_series,
                    "cores": os.cpu_count() or 1,
                    "serial_batch_s": serial.wall_s,
                    "parallel_batch_s": pooled.wall_s,
                    "speedup": (
                        serial.wall_s / pooled.wall_s
                        if pooled.wall_s
                        else float("inf")
                    ),
                    "identical": identical,
                    "io_deterministic": io_deterministic,
                }
            )
    return rows


def run_scaling_sweep(
    index_keys: list[str],
    spec: DatasetSpec,
    sizes: list[int],
    memory_bytes: int,
) -> list[dict]:
    """Construction cost vs. dataset size at fixed memory (Figs. 8d/8e)."""
    rows = []
    for n in sizes:
        scaled = spec.scaled(n)
        for key in index_keys:
            env = make_environment(key, scaled, memory_bytes)
            report = env.index.build(env.raw)
            rows.append(_build_row(key, memory_bytes, scaled, report))
    return rows


def run_length_sweep(
    index_keys: list[str],
    base: DatasetSpec,
    lengths: list[int],
    memory_fraction: float,
) -> list[dict]:
    """Construction cost vs. series length (Fig. 8f)."""
    rows = []
    for length in lengths:
        spec = DatasetSpec(base.name, base.n_series, length, base.seed)
        memory = max(4096, int(spec.raw_bytes * memory_fraction))
        for key in index_keys:
            env = make_environment(key, spec, memory)
            report = env.index.build(env.raw)
            rows.append(_build_row(key, memory, spec, report))
    return rows


def run_query_experiment(
    index_keys: list[str],
    spec: DatasetSpec,
    n_queries: int,
    memory_fraction: float = 0.25,
    mode: str = "exact",
) -> list[dict]:
    """Average query cost and quality per index (Figs. 9a-9f)."""
    queries = spec.queries(n_queries)
    rows = []
    memory = max(4096, int(spec.raw_bytes * memory_fraction))
    for key in index_keys:
        env = make_environment(key, spec, memory)
        env.index.build(env.raw)
        env.disk.reset_stats()
        results = []
        for query in queries:
            if mode == "exact":
                results.append(env.index.exact_search(query))
            else:
                results.append(env.index.approximate_search(query))
        rows.append(
            {
                "index": key,
                "n_series": spec.n_series,
                "mode": mode,
                "avg_sim_io_s": np.mean([r.simulated_io_ms for r in results]) / 1e3,
                "avg_wall_s": np.mean([r.wall_s for r in results]),
                "avg_total_s": np.mean([r.total_cost_s for r in results]),
                "avg_distance": np.mean([r.distance for r in results]),
                "avg_visited": np.mean([r.visited_records for r in results]),
                "avg_pruned": np.mean([r.pruned_fraction for r in results]),
            }
        )
    return rows


def run_complete_workload(
    index_keys: list[str],
    spec: DatasetSpec,
    n_queries: int,
    memory_fractions: list[float],
) -> list[dict]:
    """Construction followed by exact queries (Figs. 10b/10c)."""
    rows = []
    queries = spec.queries(n_queries)
    for fraction in memory_fractions:
        memory = max(4096, int(spec.raw_bytes * fraction))
        for key in index_keys:
            env = make_environment(key, spec, memory)
            build = env.index.build(env.raw)
            query_results = [env.index.exact_search(q) for q in queries]
            query_io = sum(r.simulated_io_ms for r in query_results) / 1e3
            query_wall = sum(r.wall_s for r in query_results)
            rows.append(
                {
                    "index": key,
                    "dataset": spec.name,
                    "memory_frac": round(fraction, 4),
                    "build_s": build.total_cost_s,
                    "query_s": query_io + query_wall,
                    "total_s": build.total_cost_s + query_io + query_wall,
                    "index_MB": build.index_bytes / 1e6,
                }
            )
    return rows


def run_update_workload(
    index_keys: list[str],
    spec: DatasetSpec,
    batch_sizes: list[int],
    n_queries: int = 20,
    initial_fraction: float = 0.5,
    memory_fraction: float = 0.002,
) -> list[dict]:
    """Interleaved inserts and exact queries vs. batch size (Fig. 10a)."""
    from .workloads import mixed_workload

    rows = []
    memory = max(4096, int(spec.raw_bytes * memory_fraction))
    for batch_size in batch_sizes:
        for key in index_keys:
            disk = SimulatedDisk(page_size=PAGE_SIZE)
            initial, events = mixed_workload(
                spec, initial_fraction, batch_size, n_queries
            )
            raw = RawSeriesFile.create(disk, initial)
            disk.reset_stats()
            index = INDEX_FACTORIES[key](disk, memory, spec.length)
            build = index.build(raw)
            insert_s = query_s = 0.0
            for event in events:
                if event.kind == "insert":
                    report = index.insert_batch(event.payload)
                    insert_s += report.total_cost_s
                else:
                    result = index.exact_search(event.payload)
                    query_s += result.total_cost_s
            rows.append(
                {
                    "index": key,
                    "batch_size": batch_size,
                    "build_s": build.total_cost_s,
                    "insert_s": insert_s,
                    "query_s": query_s,
                    "total_s": build.total_cost_s + insert_s + query_s,
                }
            )
    return rows


def _drive_fault_fetch_pass(
    n_series: int,
    length: int,
    fetch_fraction: float,
    seed: int,
    hooked: bool,
    page_size: int = PAGE_SIZE,
) -> dict:
    """One timed headline gather, bare or through a disabled fault hook.

    ``hooked=True`` routes every read through ``FaultyDevice(disk,
    plan=None)`` — the pure-forwarding wrapper a production deployment
    would leave in place — so the sweep can price the disabled
    injection seam on the exact skip-sequential fetch path the query
    engines use.
    """
    import time

    from ..storage.faults import FaultyDevice

    disk = SimulatedDisk(page_size=page_size)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_series, length)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    n_fetch = max(1, int(n_series * fetch_fraction))
    idxs = np.sort(rng.choice(n_series, size=n_fetch, replace=False))
    view = raw.view(FaultyDevice(disk, plan=None)) if hooked else raw
    disk.reset_stats()
    disk.park_head()
    t0 = time.perf_counter()
    fetched = view.get_many(idxs)
    wall = time.perf_counter() - t0
    return {
        "fetched": fetched,
        "wall_s": wall,
        "stats": disk.stats,
        "head": disk.head_position,
    }


def _drive_recovery_smoke(seed: int) -> dict:
    """One injected-crash + recovery cycle; asserts the oracle contract.

    A small durable LSM takes batches through a seeded fault schedule
    until something fires (or the workload ends), recovers from the
    device, and must answer exactly like a fault-free index rebuilt
    from the acknowledged rows.
    """
    import time

    from ..core.lsm import CoconutLSM
    from ..storage.faults import (
        CorruptionError,
        FaultError,
        FaultPlan,
        FaultyDevice,
    )

    length = 64
    config = SAXConfig(series_length=length, word_length=8, cardinality=16)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((150, length)).astype(np.float32)
    extra = rng.standard_normal((150, length)).astype(np.float32)
    queries = rng.standard_normal((3, length))

    def fresh(device_plan):
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile(disk, length)
        raw.append_batch(base)
        device = disk if device_plan is None else FaultyDevice(disk, device_plan)
        return disk, raw, device

    plan = FaultPlan(
        seed=seed, p_transient_write=0.02, p_torn_write=0.01,
        p_bitflip_write=0.02, p_crash_write=0.01, max_faults=4,
    )
    disk, raw, device = fresh(plan)
    faults = 0
    t0 = time.perf_counter()
    try:
        ix = CoconutLSM(device, 1 << 10, config, durability="wal")
        ix.build(raw)
        for lo in range(0, len(extra), 25):
            ix.insert_batch(extra[lo : lo + 25])
    except FaultError:
        pass
    faults = device.faults_injected
    try:
        recovered = CoconutLSM.recover(disk, raw)
    except CorruptionError:
        raw.truncate(len(base))
        recovered = CoconutLSM(disk, 1 << 10, config, durability="wal", wal_id=2)
        recovered.build(raw)
    wall = time.perf_counter() - t0
    # Oracle: fault-free replay of exactly the acknowledged rows.
    disk2, raw2, _ = fresh(None)
    oracle = CoconutLSM(disk2, 1 << 10, config, durability="wal")
    oracle.build(raw2)
    acked = extra[: raw.n_series - len(base)]
    for lo in range(0, len(acked), 25):
        oracle.insert_batch(acked[lo : lo + 25])
    identical = True
    for q in queries:
        a, b = recovered.exact_search(q), oracle.exact_search(q)
        identical = identical and (
            a.answer_idx == b.answer_idx and a.distance == b.distance
        )
    if not identical:
        raise AssertionError(f"recovery divergence at seed {seed}")
    return {
        "faults": faults,
        "acked_rows": int(raw.n_series),
        "rebuilt_runs": recovered.n_rebuilt_runs,
        "wall_s": wall,
        "identical": identical,
    }


def run_fault_overhead_sweep(
    n_series_list: list[int],
    length: int = 128,
    fetch_fraction: float = 0.3,
    seed: int = 7,
    repeats: int = 5,
    recovery_seeds: int = 4,
) -> list[dict]:
    """Price the disabled fault hook; smoke-test injected recovery.

    ``overhead`` cells run the headline skip-sequential gather twice —
    bare device vs ``FaultyDevice(plan=None)`` — and assert fetched
    records, classified :class:`DiskStats` and head positions
    bit-identical before reporting the wall-clock ratio (best of
    ``repeats``; the <5% gate is armed by
    ``benchmarks/bench_faults.py`` at the headline scale only).
    ``recovery`` cells run seeded crash/recover cycles and assert the
    recovered index answers exactly like the acknowledged-rows oracle.
    """
    import os

    rows = []
    cores = os.cpu_count() or 1
    for n_series in n_series_list:
        bare = min(
            (
                _drive_fault_fetch_pass(
                    n_series, length, fetch_fraction, seed, False
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        hooked = min(
            (
                _drive_fault_fetch_pass(
                    n_series, length, fetch_fraction, seed, True
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        identical = bool(np.array_equal(bare["fetched"], hooked["fetched"]))
        io_identical = (
            bare["stats"] == hooked["stats"] and bare["head"] == hooked["head"]
        )
        if not identical or not io_identical:
            raise AssertionError(
                f"disabled fault hook changed the fetch at {n_series} "
                f"series: identical={identical}, "
                f"io_identical={io_identical}"
            )
        rows.append(
            {
                "workload": "overhead",
                "n_series": n_series,
                "cores": cores,
                "bare_s": bare["wall_s"],
                "hooked_s": hooked["wall_s"],
                "overhead": (
                    hooked["wall_s"] / bare["wall_s"]
                    if bare["wall_s"]
                    else 1.0
                ),
                "identical": identical,
                "io_identical": io_identical,
            }
        )
    for smoke_seed in range(recovery_seeds):
        smoke = _drive_recovery_smoke(seed + smoke_seed)
        rows.append(
            {
                "workload": "recovery",
                "n_series": smoke["acked_rows"],
                "cores": cores,
                "bare_s": 0.0,
                "hooked_s": smoke["wall_s"],
                "overhead": 1.0,
                "identical": smoke["identical"],
                "io_identical": True,
                "faults": smoke["faults"],
                "rebuilt_runs": smoke["rebuilt_runs"],
            }
        )
    return rows


def _drive_verified_fetch_pass(
    n_series: int,
    length: int,
    fetch_fraction: float,
    seed: int,
    verified: bool,
    page_size: int = PAGE_SIZE,
) -> dict:
    """One timed headline gather, unverified or with verified reads.

    Both passes run on an integrity-enabled disk (the sidecar is
    recorded either way); ``verified=True`` additionally hashes every
    page view against the sidecar on the way up — the cost the
    ``verified_reads`` deployment mode pays on the exact
    skip-sequential fetch path the query engines use.
    """
    import time

    disk = SimulatedDisk(page_size=page_size, integrity=True)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_series, length)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    raw.verified_reads = verified
    n_fetch = max(1, int(n_series * fetch_fraction))
    idxs = np.sort(rng.choice(n_series, size=n_fetch, replace=False))
    disk.reset_stats()
    disk.park_head()
    t0 = time.perf_counter()
    fetched = raw.get_many(idxs)
    wall = time.perf_counter() - t0
    return {
        "fetched": fetched,
        "wall_s": wall,
        "stats": disk.stats,
        "head": disk.head_position,
    }


def _drive_scrub_cell(seed: int) -> dict:
    """One seeded decay + sweep cycle; asserts detected == injected.

    Builds a small durable index on an integrity disk, injects seeded
    at-rest bit decay on pages the sweep covers (single-bit on raw —
    the algebraically repairable case — alternating single/multi-bit
    on run pages to force quarantine + rebuild), then sweeps and
    *asserts* the oracle contract: the sweep finds exactly the
    injected pages, repairs them all, and post-repair answers equal
    the pre-decay answers.
    """
    import time

    from ..core.lsm import CoconutLSM
    from ..storage.integrity import Scrubber, decay_bit

    length = 64
    config = SAXConfig(series_length=length, word_length=8, cardinality=16)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((150, length)).astype(np.float32)
    extra = rng.standard_normal((150, length)).astype(np.float32)
    queries = rng.standard_normal((3, length))

    disk = SimulatedDisk(page_size=2048, integrity=True)
    raw = RawSeriesFile(disk, length)
    raw.append_batch(base)
    ix = CoconutLSM(disk, 1 << 10, config, durability="wal")
    ix.build(raw)
    for lo in range(0, len(extra), 25):
        ix.insert_batch(extra[lo : lo + 25])
    expect = [
        (r.answer_idx, r.distance) for r in (ix.exact_search(q) for q in queries)
    ]
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    targets = [
        (kind, first + i)
        for kind, _, first, n_pages in scrubber._targets()
        for i in range(n_pages)
    ]
    picks = rng.choice(len(targets), size=min(10, len(targets)), replace=False)
    injected = set()
    for pick in picks:
        kind, page = targets[int(pick)]
        n_bits = 3 if kind == "run" and int(pick) % 2 else 1
        for bit in rng.choice(2048 * 8, size=n_bits, replace=False):
            decay_bit(disk, page, int(bit))
        injected.add(page)
    t0 = time.perf_counter()
    report = scrubber.sweep()
    wall = time.perf_counter() - t0
    detected = set(report.corrupt_pages)
    if detected != injected:
        raise AssertionError(
            f"scrub detection violation at seed {seed}: injected "
            f"{sorted(injected)}, detected {sorted(detected)}"
        )
    if scrubber.unrepairable:
        raise AssertionError(
            f"scrub left {sorted(scrubber.unrepairable)} unrepaired at "
            f"seed {seed}"
        )
    after = [
        (r.answer_idx, r.distance) for r in (ix.exact_search(q) for q in queries)
    ]
    if after != expect:
        raise AssertionError(f"post-repair answers moved at seed {seed}")
    return {
        "pages_scanned": report.pages_scanned,
        "injected": len(injected),
        "detected": len(detected),
        "repaired": len(report.repaired_pages),
        "rebuilt_runs": report.rebuilt_runs,
        "wall_s": wall,
        "identical": after == expect,
    }


def run_scrub_sweep(
    n_series_list: list[int],
    length: int = 128,
    fetch_fraction: float = 0.3,
    seed: int = 7,
    repeats: int = 5,
    scrub_seeds: int = 4,
) -> list[dict]:
    """Price verified reads; smoke-test seeded scrub + repair.

    ``overhead`` cells run the headline skip-sequential gather twice —
    unverified vs ``verified_reads=True``, both on an
    integrity-recorded disk — and assert fetched records, classified
    :class:`DiskStats` and head positions bit-identical before
    reporting the wall-clock ratio (best of ``repeats``; the <=10%
    gate is armed by ``benchmarks/bench_scrub.py`` at the headline
    scale only).  ``scrub`` cells run seeded decay + sweep cycles;
    each asserts detected == injected, full repair and unmoved
    answers, and reports the sweep's page scan rate.
    """
    import os

    rows = []
    cores = os.cpu_count() or 1
    for n_series in n_series_list:
        plain = min(
            (
                _drive_verified_fetch_pass(
                    n_series, length, fetch_fraction, seed, False
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        verified = min(
            (
                _drive_verified_fetch_pass(
                    n_series, length, fetch_fraction, seed, True
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        identical = bool(
            np.array_equal(plain["fetched"], verified["fetched"])
        )
        io_identical = (
            plain["stats"] == verified["stats"]
            and plain["head"] == verified["head"]
        )
        if not identical or not io_identical:
            raise AssertionError(
                f"verified reads changed the fetch at {n_series} "
                f"series: identical={identical}, "
                f"io_identical={io_identical}"
            )
        rows.append(
            {
                "workload": "overhead",
                "n_series": n_series,
                "cores": cores,
                "plain_s": plain["wall_s"],
                "verified_s": verified["wall_s"],
                "overhead": (
                    verified["wall_s"] / plain["wall_s"]
                    if plain["wall_s"]
                    else 1.0
                ),
                "identical": identical,
                "io_identical": io_identical,
            }
        )
    for scrub_seed in range(scrub_seeds):
        cell = _drive_scrub_cell(seed + scrub_seed)
        rows.append(
            {
                "workload": "scrub",
                "n_series": cell["pages_scanned"],
                "cores": cores,
                "plain_s": 0.0,
                "verified_s": cell["wall_s"],
                "overhead": 1.0,
                "identical": cell["identical"],
                "io_identical": True,
                "injected": cell["injected"],
                "detected": cell["detected"],
                "repaired": cell["repaired"],
                "rebuilt_runs": cell["rebuilt_runs"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Online service: mixed read/write throughput with tail latency
# ----------------------------------------------------------------------
def run_serve_sweep(
    spec: DatasetSpec,
    n_queries: int = 64,
    workers_list: "list[int] | None" = None,
    batch_rows: int = 200,
    n_batches: int = 10,
    k: int = 3,
    approx_fraction: float = 0.3,
    timeout_s: "float | None" = None,
    seed: int = 7,
) -> list[dict]:
    """Sustained mixed ingest + query traffic through the service.

    Each cell boots a :class:`~repro.service.CoconutService` over the
    base dataset, starts the batch-window server thread, and runs a
    feeder thread ingesting ``n_batches`` batches of ``batch_rows``
    while the client submits ``n_queries`` queries (an
    ``approx_fraction`` mix of approximate 1-NN among exact k-NN).
    Reported per cell: sustained ingest and query throughput, the
    p50/p95/p99 end-to-end query latency from the service's own
    :class:`~repro.service.stats.ServiceStats` surface, and every
    robustness counter (shed, degraded, session conflicts).

    Every cell is also *checked*: each served exact ticket is verified
    bit-identical to a fault-free oracle index built over exactly the
    first ``snapshot_series`` rows the ticket reports, each served
    approximate ticket must name an in-watermark row, and the ticket
    accounting must conserve (``submitted == served + shed +
    rejected``).  A violation raises rather than reporting a number.
    """
    import threading
    import time as _time

    from ..core.lsm import CoconutLSM
    from ..service import CoconutService, ServiceConfig

    if workers_list is None:
        workers_list = [1, 2]
    config = default_config(spec.length)
    base = spec.generate()
    rng = np.random.default_rng(seed)
    stream = rng.standard_normal(
        (n_batches * batch_rows, spec.length)
    ).astype(np.float32)
    all_rows = np.vstack([base, stream])
    queries = spec.queries(n_queries).astype(np.float64)
    # Small enough that the ingest stream forces real flushes and
    # background compactions under the concurrent query traffic.
    memory = max(1 << 14, spec.raw_bytes // 64)
    oracles: dict[int, CoconutLSM] = {}

    def oracle_at(watermark: int) -> CoconutLSM:
        if watermark not in oracles:
            odisk = SimulatedDisk(page_size=PAGE_SIZE)
            oraw = RawSeriesFile(odisk, spec.length)
            oraw.append_batch(all_rows[:watermark])
            index = CoconutLSM(odisk, memory, config)
            index.build(oraw)
            oracles[watermark] = index
        return oracles[watermark]

    rows = []
    cores = _os_cores()
    for workers in workers_list:
        disk = SimulatedDisk(page_size=PAGE_SIZE)
        raw = RawSeriesFile(disk, spec.length)
        raw.append_batch(base)
        service = CoconutService(
            disk,
            raw,
            memory,
            sax_config=config,
            config=ServiceConfig(
                query_workers=workers,
                queue_capacity=max(64, n_queries),
                default_timeout_s=timeout_s,
            ),
        )
        service.bootstrap()
        service.start()
        feeder_error: list[Exception] = []

        def feed():
            try:
                for i in range(n_batches):
                    lo = i * batch_rows
                    service.ingest(
                        stream[lo : lo + batch_rows],
                        expected_first=len(base) + lo,
                    )
            except Exception as error:  # pragma: no cover - surfaced below
                feeder_error.append(error)

        t0 = _time.perf_counter()
        feeder = threading.Thread(target=feed)
        feeder.start()
        tickets = []
        mode_draws = rng.random(n_queries)
        for qi in range(n_queries):
            query = queries[qi]
            if mode_draws[qi] < approx_fraction:
                tickets.append(
                    (query, service.submit(query, mode="approximate"))
                )
            else:
                tickets.append((query, service.submit(query, k=k)))
        feeder.join()
        for _, ticket in tickets:
            ticket.wait(timeout=60.0)
        wall_s = _time.perf_counter() - t0
        service.stop(drain=True)
        if feeder_error:
            raise feeder_error[0]
        stats = service.stats_snapshot()
        terminal = (
            stats["served"]
            + sum(stats["shed"].values())
            + sum(stats["rejected"].values())
        )
        if stats["submitted"] != terminal:
            raise AssertionError(
                f"ticket accounting leak: submitted={stats['submitted']} "
                f"!= served+shed+rejected={terminal}"
            )
        n_exact = 0
        for query, ticket in tickets:
            if ticket.status != "served":
                continue
            watermark = ticket.snapshot_series
            if ticket.mode == "exact":
                n_exact += 1
                expected = oracle_at(watermark).exact_knn(query, ticket.k)
                if list(ticket.knn_ids) != list(expected.answer_ids) or (
                    ticket.knn_distances != list(expected.distances)
                ):
                    raise AssertionError(
                        f"served answer diverged from the oracle at "
                        f"watermark {watermark}: {ticket.knn_ids} vs "
                        f"{list(expected.answer_ids)}"
                    )
            else:
                (idx,) = ticket.knn_ids
                if not 0 <= idx < watermark:
                    raise AssertionError(
                        f"approximate answer {idx} outside snapshot "
                        f"watermark {watermark}"
                    )
        latency = stats["query_latency_s"]
        rows.append(
            {
                "workers": workers,
                "cores": cores,
                "n_series": int(raw.n_series),
                "n_queries": n_queries,
                "k": k,
                "wall_s": wall_s,
                "ingest_rows_per_s": (
                    stats["ingest_rows"] / wall_s if wall_s else 0.0
                ),
                "queries_per_s": stats["served"] / wall_s if wall_s else 0.0,
                "p50_ms": latency["p50"] * 1e3,
                "p95_ms": latency["p95"] * 1e3,
                "p99_ms": latency["p99"] * 1e3,
                "served": stats["served"],
                "shed": sum(stats["shed"].values()),
                "rejected": sum(stats["rejected"].values()),
                "degraded_batches": stats["degraded_batches"],
                "session_conflicts": stats["session_conflicts"],
                "flushes": stats["lsm"]["flushes"],
                "merges": stats["lsm"]["merges"],
                "exact_verified": n_exact,
                "identical": True,  # a divergence raises above
            }
        )
    return rows


def _os_cores() -> int:
    import os

    return os.cpu_count() or 1
