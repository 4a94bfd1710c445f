"""What was deleted stays deleted: one table of negative pins.

Every deleted module, exported name, constructor parameter, keyword
and config field is one row.  A deletion adds rows here, not tests.
Three kinds of row:

* ``module`` — ``importlib.util.find_spec(name) is None``;
* ``absent`` — the name is neither an attribute of its owner nor in
  the owner's ``__all__``;
* ``refused`` — passing the keyword raises ``TypeError`` before the
  device is touched (``disk.snapshot()`` unchanged).
"""

import importlib.util

import pytest

import repro
import repro.core
import repro.core.invsax
import repro.core.knn
import repro.core.lsm
import repro.core.sims
import repro.parallel
import repro.parallel.batch
import repro.parallel.sched
import repro.service
import repro.service.snapshot
import repro.storage
import repro.storage.disk
import repro.storage.faults
import repro.storage.integrity
import repro.storage.merge
from repro import (
    CoconutService,
    CoconutTree,
    QueryBatch,
    RawSeriesFile,
    ServiceConfig,
    SimulatedDisk,
    random_walk,
)
from repro.core import CoconutLSM, CoconutTrie
from repro.core.bulk_index import BulkLoadedIndex
from repro.core.knn import _BoundedMaxHeap
from repro.core.sims import SIMSIndex
from repro.indexes import ADSIndex, SerialScan
from repro.indexes.base import QueryResult
from repro.indexes.isax2 import ISAXTree
from repro.parallel.heal import HealReport
from repro.parallel.sched import plan_query_batch
from repro.service import serve_snapshot_batch
from repro.storage import DiskShard, ExternalSorter, merge_stream
from repro.storage.cost import QueryCostModel
from repro.summaries import SAXConfig

from rig import DatasetSpec, make_environment

CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(50, length=32, seed=11)
BATCH = QueryBatch(queries=DATA[:2], k=1)

ROWS: dict = {}


def module(name):
    ROWS[f"module-{name}"] = ("module", name)


def absent(owner, *names):
    for name in names:
        ROWS[f"absent-{owner.__name__}.{name}"] = ("absent", owner, name)


def refused(label, call):
    """``call(disk, raw)`` must raise ``TypeError`` without I/O."""
    ROWS[f"refused-{label}"] = ("refused", call)


# ------------------------------------------------------------ modules
for name in (
    "repro.parallel.merge",  # the pooled resident merge
    "repro.parallel.summarize",  # the pooled bulk-load
    "repro.parallel.spill",
    "repro.parallel.query",  # the pooled exact batch and serial scan
    "repro.parallel.pool",  # the worker pool itself
    "repro.storage.bufferpool",  # the LRU page cache
    "repro.bench",  # the operational sweeps; the rest is tests/rig.py
):
    module(name)

# ------------------------------------------------------------ names
absent(
    repro.parallel,
    # pool-kind choosers, query-cost calibration, bound sharing
    "choose_pool_kind", "choose_pool_kind_for_bytes", "AUTO_POOL_THREAD_BYTES",
    "calibrate_query_costs", "SharedBoundBoard", "parallel_approx_batch",
    # the pool and the pooled exact batch / serial scan
    "pool_map", "check_pool_kind", "POOL_KINDS", "parallel_batched_exact_knn",
    "parallel_lower_bound_scan", "parallel_serial_scan_batch",
    "parallel_sims_query_batch", "partition_ranges", "run_on_read_shards",
)
POOLED_BUILD_EXPORTS = (
    "ParallelSummarizer", "parallel_invsax_keys", "summarize_chunk",
    "summarize_presorted_runs", "DEFAULT_CHUNK_SERIES", "ShardedMergeResult",
    "sharded_spill_merge", "sharded_stream_merge", "sample_splitters",
    "run_cut_positions", "stream_run_file",
)
absent(repro, *POOLED_BUILD_EXPORTS)
absent(repro.parallel, *POOLED_BUILD_EXPORTS)
# fence-planned cuts and the oracle page stores / merge engines
absent(
    repro.storage,
    "RunFence", "build_run_fence", "fenced_cut_positions", "page_record_starts",
    "read_run_fence", "write_run_fence",
)
for owner in (repro.storage, repro.storage.merge, repro.storage.disk):
    absent(
        owner, "PAGE_STORES", "MERGE_ENGINES", "heapq_merge_stream",
        "blockwise_merge_stream",
    )
absent(RawSeriesFile, "get_many_loop")
absent(repro.core.lsm, "LSM_MERGE_ENGINES")
absent(ExternalSorter, "sort_runs")  # every sort forms its own runs
absent(QueryCostModel, "thread_task_us")
# A served batch reads straight off its snapshot shard: no buffer pool.
for owner in (repro, repro.service, repro.service.snapshot):
    absent(owner, "SERVE_POOL_PAGES")
# One read path under the raw file: no page cache, no n-shard session.
for owner in (repro, repro.storage):
    absent(owner, "BufferPool", "ShardedDisk")
absent(repro.storage.disk, "ShardedDisk")
absent(RawSeriesFile, "attach_pool", "hashes_reads_from")
# No session, so no end of one to guard, and no slot in one to number.
absent(DiskShard, "attached", "_check_attached")
# A served exact ticket is primed, not seeded from the probe: a result
# carries no probe hand-over.
absent(QueryResult, "probed")
# One seeding rule: every SIMSIndex seeds its exact k-NN in exact_knn.
absent(repro.core.knn, "seeded_sims_knn")
# Helpers nothing called.
absent(ISAXTree, "iter_nodes")
absent(repro.core.invsax, "paa_of")
absent(SAXConfig, "summary_bytes")
# The fault injector is test rig (tests/fault_injection.py): the
# package keeps only the error taxonomy it raises and handles.
for owner in (repro.storage, repro.storage.faults):
    absent(owner, "FaultPlan", "FaultyDevice", "InjectedFault")
for owner in (repro.storage, repro.storage.integrity):
    absent(owner, "decay_bit")
# The list verbs live on the device base; the fault injector gets them
# from its own mixin (tests/fault_injection.py::RunVerbs).
absent(repro.storage.disk, "_DerivedVerbs")
# Nothing in the package is parallel: one summary-column preparation.
absent(CoconutLSM, "_prepare_sims_parallel")
# One path from query_batch to the engine: no worker-era layers, one
# approximate-batch hook, no merge of heaps or heal reports.
absent(
    repro.parallel,
    "approx_query_batch", "build_batch_report", "run_sims_query_batch",
    "sims_query_batch",
)
absent(repro.parallel.batch, "approx_query_batch", "build_batch_report",
       "sims_query_batch", "_outcome")
absent(repro.parallel.sched, "run_sims_query_batch")
for owner in (BulkLoadedIndex, CoconutLSM, SIMSIndex):
    absent(owner, "_approx_visit_order", "_approx_answer_subset")
absent(SIMSIndex, "_approximate_batch", "_sims_exact_search")
absent(_BoundedMaxHeap, "merge")
absent(HealReport, "merge")
# The 1-NN scan answers a QueryResult (best_of): no fourth 1-NN type.
absent(repro.core, "SIMSOutcome")
absent(repro.core.sims, "SIMSOutcome")
# One query front-end: SIMSIndex defines the four entry points once, so
# the one-query wrappers under them are gone
# (test_cross_index_equivalence.py::test_entry_points_are_defined_once).
absent(repro.core.sims, "seeded_sims_search")
absent(SIMSIndex, "_sims_exact_knn")
absent(repro.core.knn, "sims_knn_scan")
absent(repro.core, "sims_knn_scan")
absent(BulkLoadedIndex, "_approximate")
absent(CoconutLSM, "_approximate_one")

# ------------------------------------------------------------ keywords


def _built(cls, **kwargs):
    def make(disk, raw):
        index = cls(disk, 4096, **kwargs)
        index.build(raw)
        return index

    return make


def _call_on(make, method, **kwargs):
    """Build with ``make`` first, then refuse ``method(**kwargs)``."""

    def setup(disk, raw):
        index = make(disk, raw)
        return lambda: method(index, **kwargs)

    return setup


def _construct(factory, **kwargs):
    return lambda disk, raw: lambda: factory(disk, raw, **kwargs)


QUERY_BATCH_INDEXES = {
    "CoconutTree": _built(CoconutTree, config=CONFIG),
    "CoconutTrie": _built(CoconutTrie, config=CONFIG),
    "CoconutLSM": _built(CoconutLSM, config=CONFIG),
    "SerialScan": _built(SerialScan),
    "ADSIndex": _built(ADSIndex, config=CONFIG, leaf_size=16),
}
for index_name, make in QUERY_BATCH_INDEXES.items():
    for knob, value in (
        ("query_pool_kind", "serial"),
        ("bound_sharing", "off"),
        ("scheduler", "fixed"),
    ):
        refused(
            f"{index_name}.query_batch-{knob}",
            _call_on(make, lambda index, **kw: index.query_batch(BATCH, **kw),
                     **{knob: value}),
        )
for knob, value in (
    ("query_workers", 2),  # the plan predicts cost; it takes no workers
    ("bound_sharing", "off"),
    ("scheduler", "fixed"),
):
    refused(
        f"plan_query_batch-{knob}",
        _call_on(QUERY_BATCH_INDEXES["CoconutTree"],
                 lambda index, **kw: plan_query_batch(BATCH, index, **kw),
                 **{knob: value}),
    )

for field in ("query_pool_kind", "scheduler", "bound_sharing", "batch_window_s"):
    refused(
        f"ServiceConfig-{field}",
        _construct(lambda disk, raw, **kw: ServiceConfig(**kw), **{field: "thread"}),
    )
refused(
    "ServiceConfig-serve_pool_pages",
    _construct(lambda disk, raw: ServiceConfig(serve_pool_pages=64)),
)


def _served_snapshot(disk, raw):
    service = CoconutService(disk, raw, 4096, sax_config=CONFIG)
    service.bootstrap()
    return service.current_snapshot()


# Verification follows the snapshot's raw file, not a pool's flag.
for knob, value in (("pool_pages", 64), ("verified_reads", True)):
    refused(
        f"serve_snapshot_batch-{knob}",
        _call_on(_served_snapshot,
                 lambda snapshot, **kw: serve_snapshot_batch(snapshot, BATCH, **kw),
                 **{knob: value}),
    )

# The sharded LSM compaction: the LSM and the service take no pool knobs.
for knob, value in (("workers", 2), ("pool_kind", "serial")):
    refused(
        f"CoconutLSM-{knob}",
        _construct(lambda disk, raw, **kw: CoconutLSM(disk, 4096, config=CONFIG, **kw),
                   **{knob: value}),
    )
    refused(
        f"CoconutLSM.recover-{knob}",
        _construct(CoconutLSM.recover, **{knob: value}),
    )
    refused(
        f"CoconutService-lsm_{knob}",
        _construct(lambda disk, raw, **kw: CoconutService(disk, raw, 4096, **kw),
                   **{f"lsm_{knob}": value}),
    )

# A build runs one way, on the calling thread, with one merge engine.
for cls, knob, value in (
    (CoconutTree, "workers", 2),
    (CoconutTree, "chunk_series", 100),
    (CoconutTree, "pool_kind", "serial"),
    (CoconutTree, "merge_engine", "blockwise"),
    (CoconutTrie, "workers", 2),
    (CoconutTrie, "chunk_series", 100),
    (CoconutTrie, "pool_kind", "serial"),
    (CoconutTrie, "merge_engine", "heapq"),
    (CoconutLSM, "merge_engine", "vectorized"),
):
    refused(
        f"{cls.__name__}-{knob}",
        _construct(lambda disk, raw, cls=cls, **kw: cls(disk, 4096, config=CONFIG, **kw),
                   **{knob: value}),
    )
for knob, value in (
    ("merge_workers", 2),
    ("pool_kind", "serial"),
    ("cut_planning", "mirror"),
    ("merge_engine", "blockwise"),
):
    refused(
        f"ExternalSorter-{knob}",
        _construct(lambda disk, raw, **kw: ExternalSorter(disk, 4096, **kw),
                   **{knob: value}),
    )
refused(
    "CoconutLSM.recover-merge_engine",
    _construct(CoconutLSM.recover, merge_engine="argsort"),
)
refused(
    "merge_stream-engine",
    _construct(lambda disk, raw: merge_stream("blockwise", [], None, 8)),
)

refused(
    "QueryResult-probed",
    _construct(lambda disk, raw: QueryResult(probed=None)),
)

# The read-only device is built alone; its name is a keyword.
refused(
    "DiskShard-positional-shard_id",  # was DiskShard(parent, shard_id, name)
    _construct(lambda disk, raw: DiskShard(disk, 0)),
)
refused(
    "DiskShard-shard_id",
    _construct(lambda disk, raw: DiskShard(disk, shard_id=0)),
)

# Only the LSM is served: no other index rebinds its reads to a device.
def _approximate_batch(index, **kwargs):
    return index._approximate_batch(BATCH.queries, **kwargs)


def _first_leaf(index, **kwargs):
    return index._read_leaf_records(index._leaves[0], **kwargs)


for index_name in ("CoconutTree", "CoconutTrie"):
    make = QUERY_BATCH_INDEXES[index_name]
    refused(
        f"{index_name}._approximate_batch-device",
        _call_on(make, _approximate_batch, device=None),
    )
    refused(
        f"{index_name}._read_leaf_records-leaf_file",
        _call_on(make, _first_leaf, leaf_file=None),
    )
refused(
    "ServiceSnapshot.frozen_view-device",
    _call_on(_served_snapshot, lambda snapshot, **kw: snapshot.frozen_view(**kw),
             device=None),
)

# The experiment rig: builds take no workers.
SPEC = DatasetSpec("randomwalk", 20, 32)
refused(
    "make_environment-workers",
    _construct(lambda disk, raw: make_environment("CTree", SPEC, 1 << 16, workers=2)),
)


@pytest.mark.parametrize("row", sorted(ROWS))
def test_removed_names_stay_removed(row):
    kind, *args = ROWS[row]
    if kind == "module":
        assert importlib.util.find_spec(args[0]) is None
    elif kind == "absent":
        owner, name = args
        assert name not in getattr(owner, "__all__", ())
        assert not hasattr(owner, name)
    else:
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile.create(disk, DATA)
        call = args[0](disk, raw)
        before = disk.snapshot()
        with pytest.raises(TypeError):
            call()
        assert disk.snapshot() == before  # refused before the device was read


def test_no_run_merging_export_is_left():
    """The pooled resident merge exported ``*_runs`` helpers."""
    for owner in (repro, repro.parallel):
        assert [name for name in owner.__all__ if name.endswith("_runs")] == []
