"""The query planner's contract.

* **The planner** — a pure function of batch shape and cost model: it
  only clamps downward, its decisions are pinned to a table, invalid
  knobs raise and the removed ``scheduler=`` / ``bound_sharing=``
  knobs are a ``TypeError``.
* **Approximate batches are one pass** — at any ``query_workers`` an
  approximate batch is the serial shared-probe pass: same answers and
  the same ``DiskStats`` as ``query_workers=1``.
"""

import os

import pytest

from repro import QueryBatch, RawSeriesFile, SerialScan, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.indexes.base import SeriesIndex
from repro.parallel.sched import MAX_FETCH_FLOOR_RECORDS, plan_query_batch
from repro.series import query_workload
from repro.storage.cost import DEFAULT_QUERY_COST
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
N_SERIES = 500
N_QUERIES = 6
MEMORY = 1 << 20

# Widen worker counts from CI via REPRO_QUERY_WORKERS, mirroring
# tests/test_parallel_query.py.
WORKER_COUNTS = [
    int(w) for w in os.environ.get("REPRO_QUERY_WORKERS", "2,3").split(",")
]


@pytest.fixture(scope="module")
def tree_workload():
    data = make_dataset("randomwalk", N_SERIES, length=48, seed=21)
    queries = query_workload("randomwalk", N_QUERIES, length=48, seed=22)
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32)
    index.build(raw)
    batch = QueryBatch(queries=queries, k=3)
    serial = index.query_batch(batch)  # also warms the summary cache
    return index, batch, serial


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
def test_fixed_scheduler_reproduces_pre_scheduler_plan(tree_workload):
    """The fixed plan is gone: the adaptive plan *is* the plan.

    ``scheduler=`` is not a parameter of the planner nor of any
    ``query_batch`` any more, so passing it is a ``TypeError``.
    """
    index, batch, _ = tree_workload
    with pytest.raises(TypeError):
        plan_query_batch(batch, index, query_workers=4, scheduler="fixed")
    for cls in (SeriesIndex, SerialScan, CoconutTree, CoconutTrie, CoconutLSM):
        with pytest.raises(TypeError):
            cls.query_batch(index, batch, scheduler="fixed")


# The adaptive plan on the ``tree_workload`` index (500 records, 6
# queries), copied from a run of it:
# (mode, query_workers) -> (workers, scan_workers, min_fetch_records,
#                           est_scan_ms, est_refine_ms)
# One intended change from the plan before: approximate batches read
# ``workers`` 1 at any ``query_workers`` (they used to be split into
# one visit-order partition per ~2 queries, which never ran faster).
PARENT_PLANS = {
    ("exact", 1): (1, 1, 200, 0.06, 0.5),
    ("exact", 2): (2, 1, 200, 0.06, 0.5),
    ("exact", 6): (6, 1, 200, 0.06, 0.5),
    ("approximate", 1): (1, 1, 1, 0.06, 0.5),
    ("approximate", 2): (1, 1, 1, 0.06, 0.5),
    ("approximate", 6): (1, 1, 1, 0.06, 0.5),
}


@pytest.mark.parametrize("mode,workers", sorted(PARENT_PLANS))
def test_plan_did_not_move(tree_workload, mode, workers):
    index, batch, _ = tree_workload
    k = batch.k if mode == "exact" else 1
    plan = plan_query_batch(
        QueryBatch(queries=batch.queries, k=k, mode=mode), index,
        query_workers=workers,
    )
    assert (
        plan.workers, plan.scan_workers, plan.min_fetch_records,
        plan.est_scan_ms, plan.est_refine_ms,
    ) == PARENT_PLANS[mode, workers]


def test_adaptive_plan_only_clamps_downward(tree_workload):
    index, batch, _ = tree_workload
    plan = plan_query_batch(batch, index, query_workers=6)
    assert 1 <= plan.scan_workers <= 6
    assert plan.workers == 6
    assert 1 <= plan.min_fetch_records <= MAX_FETCH_FLOOR_RECORDS
    expected_floor = min(
        MAX_FETCH_FLOOR_RECORDS,
        int(DEFAULT_QUERY_COST.thread_task_us
            / DEFAULT_QUERY_COST.refine_record_us),
    )
    assert plan.min_fetch_records == max(1, expected_floor)
    # Determinism: the same inputs give the same plan.
    again = plan_query_batch(batch, index, query_workers=6)
    assert plan == again
    # workers=1 is always the serial engine.
    one = plan_query_batch(batch, index, query_workers=1)
    assert one.workers == 1 and one.scan_workers == 1


def test_adaptive_plan_for_approximate_batches(tree_workload):
    index, _, _ = tree_workload
    queries = query_workload("randomwalk", 6, length=48, seed=33)
    batch = QueryBatch(queries=queries, k=1, mode="approximate")
    plan = plan_query_batch(batch, index, query_workers=8)
    assert plan.mode == "approximate"
    assert plan.workers == 1  # the shared-probe pass, never partitioned
    assert plan.min_fetch_records == 1


def test_planner_validates_knobs(tree_workload):
    """``bound_sharing=`` is gone (workers prune on their own heaps)."""
    index, batch, _ = tree_workload
    for value in ("on", "off"):
        with pytest.raises(TypeError):
            plan_query_batch(batch, index, bound_sharing=value)
    for workers in (2.5, "2", True):
        with pytest.raises(ValueError, match="workers"):
            plan_query_batch(batch, index, query_workers=workers)


PLANNING_INDEXES = {
    "CTree": lambda disk: CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32),
    "CTrie": lambda disk: CoconutTrie(disk, MEMORY, config=CONFIG, leaf_size=32),
    "LSM": lambda disk: CoconutLSM(disk, MEMORY, config=CONFIG),
    "Serial": lambda disk: SerialScan(disk, MEMORY),
}


def test_plan_attached_to_reports(tree_workload):
    _, batch, _ = tree_workload
    data = make_dataset("randomwalk", N_SERIES, length=48, seed=21)
    for name, maker in PLANNING_INDEXES.items():
        disk = SimulatedDisk(page_size=2048)
        index = maker(disk)
        index.build(RawSeriesFile.create(disk, data))
        for workers in (1, 2):
            report = index.query_batch(batch, query_workers=workers)
            assert report.plan is not None and report.plan.mode == "exact"
            as_dict = report.plan.as_dict()
            assert as_dict["n_queries"] == batch.n_queries
            assert "bound_sharing" not in as_dict
            assert not any("pool" in key or "sched" in key for key in as_dict)


# ----------------------------------------------------------------------
# Approximate batches: the serial shared-probe pass at any worker count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("maker", [
    lambda disk: CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32),
    lambda disk: CoconutTrie(disk, MEMORY, config=CONFIG, leaf_size=32),
])
def test_parallel_approx_answers_match_serial(maker):
    data = make_dataset("randomwalk", 400, length=48, seed=41)
    queries = query_workload("randomwalk", 7, length=48, seed=42)
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, data)
    index = maker(disk)
    index.build(raw)
    batch = QueryBatch(queries=queries, k=1, mode="approximate")
    serial = index.query_batch(batch)
    for workers in (2, 3, 7, 50):
        for pool_kind in ("thread", "serial"):
            got = index.query_batch(
                batch, query_workers=workers, query_pool_kind=pool_kind
            )
            assert got.knn_ids == serial.knn_ids, (workers, pool_kind)
            assert got.knn_distances == serial.knn_distances, (
                workers, pool_kind,
            )


@pytest.mark.parametrize("name", ["CTree", "CTrie", "LSM"])
def test_approximate_batch_io_ignores_query_workers(name):
    """Same answers *and* the same ``DiskStats`` as ``query_workers=1``."""
    data = make_dataset("randomwalk", 400, length=48, seed=41)
    queries = query_workload("randomwalk", 7, length=48, seed=42)
    disk = SimulatedDisk(page_size=2048)
    index = PLANNING_INDEXES[name](disk)
    index.build(RawSeriesFile.create(disk, data))
    batch = QueryBatch(queries=queries, k=1, mode="approximate")

    def run(workers):
        disk.park_head()
        report = index.query_batch(batch, query_workers=workers)
        assert report.plan.workers == 1
        return report.knn_ids, report.knn_distances, report.io

    serial = run(1)
    for workers in WORKER_COUNTS:
        assert run(workers) == serial, (name, workers)
