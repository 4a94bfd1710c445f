"""The one worker pool (``repro.parallel.pool``) and the knobs it replaced.

* **One vocabulary** — every entry point that takes a pool kind accepts
  exactly ``("thread", "serial")`` and refuses the deleted ``"process"``
  / ``"auto"`` (and nonsense) with ``ValueError`` up front.
* **One ``workers`` convention** — ``None`` / ``0`` / negative mean all
  cores at every entry point, ``n >= 1`` means ``n``, and a value that
  is not an integer (``2.5``, ``"2"``) is a ``ValueError``.
* **Negative pins** — the deleted choosers, config fields, constructor
  parameters and modules stay deleted; builds take no pool at all.
"""

import importlib.util
import inspect
import os

import pytest

import repro
import repro.parallel
import repro.storage
from repro import (
    CoconutService,
    CoconutTree,
    QueryBatch,
    RawSeriesFile,
    ServiceConfig,
    SimulatedDisk,
    random_walk,
)
from repro.bench.harness import DatasetSpec, make_environment
from repro.core import CoconutLSM, CoconutTrie
from repro.core.sims import SIMSIndex
from repro.indexes.base import SeriesIndex
from repro.indexes.serial import SerialScan
from repro.parallel import resolve_workers
from repro.parallel.sched import plan_query_batch
from repro.storage import ExternalSorter
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(600, length=32, seed=11)
ALL_CORES = os.cpu_count() or 1
REMOVED_KINDS = ("bogus", "process", "auto")


def _built(cls, disk):
    index = cls(disk, 4096, config=CONFIG)
    index.build(RawSeriesFile.create(disk, DATA[:50]))
    return index


@pytest.mark.parametrize("kind", REMOVED_KINDS)
def test_every_constructor_rejects_unknown_and_removed_kinds(kind):
    """Every entry point left that takes a pool kind: the query batches."""
    disk = SimulatedDisk(page_size=2048)
    indexes = [_built(cls, disk) for cls in (CoconutTree, CoconutTrie, CoconutLSM)]
    scan = SerialScan(disk, 4096)
    scan.build(RawSeriesFile.create(disk, DATA[:50]))
    batch = QueryBatch(queries=DATA[:2], k=1)
    before = disk.snapshot()
    for index in indexes + [scan]:
        for workers in (1, 2):
            with pytest.raises(ValueError, match="pool kind"):
                index.query_batch(
                    batch, query_workers=workers, query_pool_kind=kind
                )
    assert disk.snapshot() == before  # refused before the device was read


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


def _query_workers(cls):
    def plan_workers(workers):
        index = _built(cls, SimulatedDisk(page_size=2048))
        batch = QueryBatch(queries=DATA[:2], k=1)
        return index.query_batch(batch, query_workers=workers).plan.workers

    return plan_workers


def _scan_query_workers(workers):
    disk = SimulatedDisk(page_size=2048)
    scan = SerialScan(disk, 4096)
    scan.build(RawSeriesFile.create(disk, DATA[:50]))
    batch = QueryBatch(queries=DATA[:2], k=1)
    return scan.query_batch(batch, query_workers=workers).plan.workers


#: Builds take no workers: what takes them is every query batch.
WORKER_ENTRY_POINTS = {
    "resolve_workers": resolve_workers,
    "CoconutLSM": _lsm_query_workers,
    "CoconutTree": _query_workers(CoconutTree),
    "CoconutTrie": _query_workers(CoconutTrie),
    "SerialScan": _scan_query_workers,
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
def test_workers_convention_reaches_the_engines(requested):
    """``query_batch`` plans its pool by it."""
    expected = resolve_workers(requested)
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
    for field in (
        "query_pool_kind",
        "scheduler",
        "bound_sharing",
        "batch_window_s",
    ):
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
        assert [name for name in module.__all__ if name.endswith("_runs")] == []
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


# A build runs one way, on the calling thread: the pooled bulk-load's
# parameters are refused before the device is touched, and its two
# modules and their exports are gone.
POOLED_BUILD_PARAMETERS = {
    "CoconutTree-workers": (CoconutTree, "workers", 2),
    "CoconutTree-chunk_series": (CoconutTree, "chunk_series", 100),
    "CoconutTree-pool_kind": (CoconutTree, "pool_kind", "serial"),
    "CoconutTrie-workers": (CoconutTrie, "workers", 2),
    "CoconutTrie-chunk_series": (CoconutTrie, "chunk_series", 100),
    "CoconutTrie-pool_kind": (CoconutTrie, "pool_kind", "serial"),
    "ExternalSorter-merge_workers": (ExternalSorter, "merge_workers", 2),
    "ExternalSorter-pool_kind": (ExternalSorter, "pool_kind", "serial"),
}


@pytest.mark.parametrize("case", sorted(POOLED_BUILD_PARAMETERS))
def test_pooled_build_parameters_are_refused(case):
    cls, knob, value = POOLED_BUILD_PARAMETERS[case]
    disk = SimulatedDisk(page_size=2048)
    RawSeriesFile.create(disk, DATA[:50])
    before = disk.snapshot()
    extra = {} if cls is ExternalSorter else {"config": CONFIG}
    with pytest.raises(TypeError):
        cls(disk, 4096, **extra, **{knob: value})
    assert disk.snapshot() == before


def test_make_environment_takes_no_workers():
    spec = DatasetSpec("randomwalk", 20, 32)
    with pytest.raises(TypeError):
        make_environment("CTree", spec, spec.raw_bytes, workers=2)


def test_sorter_takes_no_presorted_runs():
    """Every sort forms its own memory-sized runs: ``sort_runs`` is gone."""
    assert not hasattr(ExternalSorter, "sort_runs")


@pytest.mark.parametrize("module", ["repro.parallel.summarize", "repro.parallel.spill"])
def test_pooled_build_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None


@pytest.mark.parametrize(
    "name",
    [
        "ParallelSummarizer",
        "parallel_invsax_keys",
        "summarize_chunk",
        "summarize_presorted_runs",
        "DEFAULT_CHUNK_SERIES",
        "ShardedMergeResult",
        "sharded_spill_merge",
        "sharded_stream_merge",
        "sample_splitters",
        "run_cut_positions",
        "stream_run_file",
    ],
)
def test_pooled_build_exports_are_gone(name):
    for module in (repro, repro.parallel):
        assert name not in module.__all__
        assert not hasattr(module, name)
