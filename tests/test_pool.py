"""The one worker pool (``repro.parallel.pool``) and the knobs it replaced.

* **One pool, honoured everywhere** — ``pool_kind`` reaches every layer
  of a build: ``"serial"`` constructs no executor at all (it is the
  replay reference, so it must not quietly run on a pool), ``"thread"``
  constructs at least one, and both leave the same index and the same
  ``DiskStats``.
* **One vocabulary** — every constructor and entry point accepts
  exactly ``("thread", "serial")`` and refuses the deleted ``"process"``
  / ``"auto"`` (and nonsense) with ``ValueError`` up front.
* **One ``workers`` convention** — ``None`` / ``0`` / negative mean all
  cores at every entry point, ``n >= 1`` means ``n``, and a value that
  is not an integer (``2.5``, ``"2"``) is a ``ValueError``.
* **Negative pins** — the deleted choosers, config fields and
  constructor parameters stay deleted.
"""

import importlib.util
import inspect
import os

import numpy as np
import pytest

import repro
import repro.parallel
import repro.storage
from repro import (
    CoconutService,
    CoconutTree,
    ParallelSummarizer,
    QueryBatch,
    RawSeriesFile,
    ServiceConfig,
    SimulatedDisk,
    random_walk,
)
from repro.core import CoconutLSM, CoconutTrie
from repro.core.sims import SIMSIndex
from repro.indexes.base import SeriesIndex
from repro.indexes.serial import SerialScan
from repro.parallel import parallel_invsax_keys, pool, resolve_workers
from repro.parallel.sched import plan_query_batch
from repro.parallel.spill import sharded_spill_merge, sharded_stream_merge
from repro.storage import ExternalSorter
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(600, length=32, seed=11)
ALL_CORES = os.cpu_count() or 1
REMOVED_KINDS = ("bogus", "process", "auto")


@pytest.fixture
def executors(monkeypatch):
    """Count the thread pools made at the one construction site."""
    made = []

    class Spy(pool.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pool, "ThreadPoolExecutor", Spy)
    return made


def _build_tree(pool_kind, memory, materialized=False):
    disk = SimulatedDisk(page_size=2048)
    index = CoconutTree(
        disk, memory, config=CONFIG, leaf_size=40, materialized=materialized,
        workers=3, chunk_series=100, pool_kind=pool_kind,
    )
    report = index.build(RawSeriesFile.create(disk, DATA))
    return index._column.keys.tobytes(), [leaf.count for leaf in index._leaves], report.io


def _build_trie(pool_kind, memory):
    disk = SimulatedDisk(page_size=2048)
    index = CoconutTrie(
        disk, memory, config=CONFIG, leaf_size=40, workers=3,
        chunk_series=100, pool_kind=pool_kind,
    )
    report = index.build(RawSeriesFile.create(disk, DATA))
    leaves = [(leaf.first_key, leaf.count) for leaf in index._leaves]
    return leaves, report.n_leaves, report.io


@pytest.mark.parametrize(
    "build,memory",
    [
        (_build_tree, 1 << 20),  # resident runs: summarization pool only
        (_build_tree, 2048),  # spilled cascade on shards
        (_build_trie, 1 << 20),
        (_build_trie, 2048),
    ],
)
def test_serial_kind_builds_on_no_pool_and_thread_kind_on_some(
    executors, build, memory
):
    serial = build("serial", memory)
    assert executors == []  # the replay reference never touched a pool
    threaded = build("thread", memory)
    assert executors and all(n and n > 1 for n in executors)
    assert serial == threaded  # same leaves / keys / DiskStats


@pytest.mark.parametrize("kind", REMOVED_KINDS)
def test_every_constructor_rejects_unknown_and_removed_kinds(kind):
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:50])
    before = disk.snapshot()
    for construct in (
        lambda: CoconutTree(disk, 4096, config=CONFIG, pool_kind=kind),
        lambda: CoconutTrie(disk, 4096, config=CONFIG, pool_kind=kind),
        lambda: ExternalSorter(disk, 4096, pool_kind=kind),
        lambda: ParallelSummarizer(CONFIG, kind=kind),
    ):
        with pytest.raises(ValueError, match="pool kind"):
            construct()
    assert disk.snapshot() == before  # refused before the device was read


@pytest.mark.parametrize("kind", REMOVED_KINDS)
def test_sharded_merges_reject_unknown_and_removed_kinds(kind):
    disk = SimulatedDisk(page_size=2048)
    rec_dtype = np.dtype([("k", "S4"), ("v", "<i8")])
    with pytest.raises(ValueError, match="pool kind"):
        sharded_spill_merge(disk, [], rec_dtype, 2, 16, pool_kind=kind)
    with pytest.raises(ValueError, match="pool kind"):
        next(sharded_stream_merge(disk, [], rec_dtype, 2, 16, pool_kind=kind))


# ----------------------------------------------------------------------
# One ``workers`` convention
# ----------------------------------------------------------------------
def _lsm_query_workers(workers):
    """The LSM compacts serially; its query batch is what takes workers."""
    disk = SimulatedDisk(page_size=2048)
    index = CoconutLSM(disk, 4096, config=CONFIG)
    index.build(RawSeriesFile.create(disk, DATA[:50]))
    batch = QueryBatch(queries=DATA[:2], k=1)
    return index.query_batch(batch, query_workers=workers).plan.workers


WORKER_ENTRY_POINTS = {
    "resolve_workers": resolve_workers,
    "ParallelSummarizer": lambda w: ParallelSummarizer(CONFIG, workers=w).workers,
    "CoconutLSM": _lsm_query_workers,
    "CoconutTree": lambda w: CoconutTree(
        SimulatedDisk(), 4096, config=CONFIG, workers=w
    ).workers,
    "CoconutTrie": lambda w: CoconutTrie(
        SimulatedDisk(), 4096, config=CONFIG, workers=w
    ).workers,
    "ExternalSorter": lambda w: ExternalSorter(
        SimulatedDisk(), 4096, merge_workers=w
    ).merge_workers,
}


@pytest.mark.parametrize("entry", sorted(WORKER_ENTRY_POINTS))
@pytest.mark.parametrize(
    "requested,expected",
    [
        (None, ALL_CORES), (0, ALL_CORES), (-1, ALL_CORES), (1, 1), (3, 3),
        (2.5, ValueError), ("2", ValueError),
    ],
)
def test_one_workers_convention(entry, requested, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="workers"):
            WORKER_ENTRY_POINTS[entry](requested)
    else:
        assert WORKER_ENTRY_POINTS[entry](requested) == expected


@pytest.mark.parametrize("requested", [None, 0, -1, 1, 3])
def test_workers_convention_reaches_the_engines(executors, requested):
    """``parallel_invsax_keys`` and ``query_batch`` size their pools by it."""
    expected = resolve_workers(requested)
    parallel_invsax_keys(DATA[:400], CONFIG, workers=requested, chunk_size=100)
    assert executors == ([expected] if expected > 1 else [])
    disk = SimulatedDisk(page_size=2048)
    index = CoconutTree(disk, 1 << 20, config=CONFIG, leaf_size=40)
    index.build(RawSeriesFile.create(disk, DATA))
    report = index.query_batch(
        QueryBatch(queries=DATA[:4], k=2), query_workers=requested
    )
    assert report.plan.requested_workers == requested
    assert report.plan.workers == expected


# ----------------------------------------------------------------------
# Negative pins: what was deleted stays deleted
# ----------------------------------------------------------------------
def test_removed_names_fields_and_parameters_stay_removed():
    for name in (
        "choose_pool_kind",
        "choose_pool_kind_for_bytes",
        "AUTO_POOL_THREAD_BYTES",
        "calibrate_query_costs",
        "SharedBoundBoard",
        "parallel_approx_batch",
    ):
        assert name not in repro.parallel.__all__
        assert not hasattr(repro.parallel, name)
    for name in (
        "RunFence",
        "build_run_fence",
        "fenced_cut_positions",
        "page_record_starts",
        "read_run_fence",
        "write_run_fence",
    ):
        assert name not in repro.storage.__all__
        assert not hasattr(repro.storage, name)
    for field in ("query_pool_kind", "scheduler", "bound_sharing"):
        with pytest.raises(TypeError):
            ServiceConfig(**{field: "thread"})
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:50])
    # The sharded LSM compaction: the LSM and the service take no pool
    # knobs, and refuse them before the device is touched.
    before = disk.snapshot()
    for knob, value in (("workers", 2), ("pool_kind", "serial")):
        with pytest.raises(TypeError):
            CoconutLSM(disk, 4096, config=CONFIG, **{knob: value})
        with pytest.raises(TypeError):
            CoconutLSM.recover(disk, raw, **{knob: value})
        with pytest.raises(TypeError):
            CoconutService(disk, raw, 4096, **{f"lsm_{knob}": value})
    assert disk.snapshot() == before
    # The pooled resident merge: its module and exports are gone.
    assert importlib.util.find_spec("repro.parallel.merge") is None
    for module in (repro, repro.parallel):
        assert [
            name for name in module.__all__ if name.endswith("_runs")
        ] in ([], ["summarize_presorted_runs"])
    # Bound sharing, fence-planned cuts and precomputed cuts: deleted.
    index = CoconutTree(disk, 1 << 20, config=CONFIG)
    index.build(raw)
    batch = QueryBatch(queries=DATA[:2], k=1)
    for cls in (SeriesIndex, SerialScan, SIMSIndex):
        params = inspect.signature(cls.query_batch).parameters
        assert list(params) == [
            "self", "batch", "query_workers", "query_pool_kind",
        ], cls
        with pytest.raises(TypeError):
            cls.query_batch(index, batch, bound_sharing="off")
    with pytest.raises(TypeError):
        plan_query_batch(batch, index, bound_sharing="off")
    with pytest.raises(TypeError):
        ExternalSorter(disk, 4096, cut_planning="mirror")
    rec_dtype = np.dtype([("k", "S4"), ("v", "<i8")])
    with pytest.raises(TypeError):
        sharded_spill_merge(disk, [], rec_dtype, 2, 16, cuts=[])
    with pytest.raises(TypeError):
        next(sharded_stream_merge(disk, [], rec_dtype, 2, 16, cuts=[]))
