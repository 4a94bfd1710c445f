"""The adaptive scheduler's correctness contract.

Four pinned properties:

* **Answer invariance under any publish schedule** — a hypothesis-
  driven adversarial bound board serves each ``read()`` the min over an
  *arbitrary* subset of past publishes (stale, out-of-order, empty),
  and the exact batch's answers, distances and tie order stay
  bit-identical to the serial batched engine.  This is the certified-
  upper-bound argument made executable.
* **Monotone visits** — with bound sharing on, every query's visited
  records and the batch's visited pages are ``<=`` the sharing-off run
  of the *same* plan; sharing can only tighten pruning.
* **Deterministic replay** — the sharing-on inline replay
  (``pool_kind="serial"``) is reproducible run to run.
* **The planner** — a pure function of batch shape and cost model: it
  only clamps downward, its decisions are pinned to a table, invalid
  knobs raise and the removed ``scheduler=`` knob is a ``TypeError``.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryBatch, RawSeriesFile, SerialScan, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.indexes.base import SeriesIndex
from repro.parallel.sched import (
    MAX_FETCH_FLOOR_RECORDS,
    SharedBoundBoard,
    plan_query_batch,
    run_sims_query_batch,
)
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
    int(w)
    for w in os.environ.get("REPRO_QUERY_WORKERS", "2,3,5").split(",")
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
# The board primitives
# ----------------------------------------------------------------------
def test_shared_bound_board_min_merges_and_snapshots():
    board = SharedBoundBoard(3)
    first = board.read()
    assert np.all(np.isinf(first)) and not first.flags.writeable
    board.publish(np.array([5.0, np.inf, 2.0]))
    board.publish(np.array([7.0, 4.0, np.inf]))
    np.testing.assert_array_equal(board.read(), [5.0, 4.0, 2.0])
    assert board.epoch == 2
    # Snapshots are immutable: the pre-publish read never changed.
    assert np.all(np.isinf(first))
    with pytest.raises(ValueError):
        board.read()[0] = 0.0


# ----------------------------------------------------------------------
# Adversarial publish schedules (hypothesis)
# ----------------------------------------------------------------------
class AdversarialBoard:
    """A board whose reads replay an arbitrary legal interleaving.

    Every value it ever returns is the element-wise min over a subset
    of the bounds actually published — exactly the set of snapshots a
    reader could observe under *some* scheduling of real workers
    (including reading nothing, re-reading old state, or seeing
    publishes out of order).  ``choose(n)`` picks the subset.
    """

    def __init__(self, n_queries: int, choose):
        self.n_queries = n_queries
        self.choose = choose
        self.published: list[np.ndarray] = []
        self._lock = threading.Lock()

    def read(self) -> np.ndarray:
        with self._lock:
            history = list(self.published)
        out = np.full(self.n_queries, np.inf)
        for i in self.choose(len(history)):
            np.minimum(out, history[i], out=out)
        out.setflags(write=False)
        return out

    def publish(self, bounds: np.ndarray) -> None:
        with self._lock:
            self.published.append(
                np.asarray(bounds, dtype=np.float64).copy()
            )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), workers=st.integers(2, 5))
def test_answers_bit_identical_under_any_publish_schedule(
    tree_workload, seed, workers
):
    index, batch, serial = tree_workload
    rng = np.random.default_rng(seed)

    def choose(n):  # any subset of past publishes, any order
        if n == 0:
            return []
        size = int(rng.integers(0, n + 1))
        return rng.permutation(n)[:size].tolist()

    board = AdversarialBoard(batch.n_queries, choose)
    got = run_sims_query_batch(
        index,
        batch,
        query_workers=workers,
        query_pool_kind="serial",
        bound_sharing="on",
        bound_board=board,
    )
    assert got.knn_ids == serial.knn_ids
    assert got.knn_distances == serial.knn_distances
    assert board.published  # the schedule actually exercised the board


def test_answers_bit_identical_with_threaded_sharing(tree_workload):
    """Real racing publishes (no adversary) on a thread pool."""
    index, batch, serial = tree_workload
    for workers in WORKER_COUNTS:
        got = index.query_batch(
            batch, query_workers=workers, query_pool_kind="thread",
            bound_sharing="on",
        )
        assert got.knn_ids == serial.knn_ids, workers
        assert got.knn_distances == serial.knn_distances, workers


# ----------------------------------------------------------------------
# Monotone visits + deterministic sharing-on replay
# ----------------------------------------------------------------------
def _replay(index, batch, workers, sharing):
    index.disk.park_head()
    index.disk.reset_stats()
    return index.query_batch(
        batch, query_workers=workers, query_pool_kind="serial",
        bound_sharing=sharing,
    )


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_sharing_never_increases_visits_or_pages(tree_workload, workers):
    index, batch, serial = tree_workload
    off = _replay(index, batch, workers, "off")
    on = _replay(index, batch, workers, "on")
    assert on.knn_ids == off.knn_ids == serial.knn_ids
    for q, (r_on, r_off) in enumerate(zip(on.results, off.results)):
        assert r_on.visited_records <= r_off.visited_records, (workers, q)
    pages_on = on.io.sequential_reads + on.io.random_reads
    pages_off = off.io.sequential_reads + off.io.random_reads
    assert pages_on <= pages_off, workers
    assert on.io.bytes_read <= off.io.bytes_read, workers


def test_sharing_on_serial_replay_is_deterministic(tree_workload):
    index, batch, _ = tree_workload
    a = _replay(index, batch, 3, "on")
    b = _replay(index, batch, 3, "on")
    assert a.io == b.io
    assert a.simulated_io_ms == b.simulated_io_ms
    assert [r.visited_records for r in a.results] == [
        r.visited_records for r in b.results
    ]


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


# The parent commit's adaptive plan on the ``tree_workload`` index
# (500 records, 6 queries), copied from a run of it:
# (mode, query_workers) -> (workers, scan_workers, min_fetch_records,
#                           bound_sharing, est_scan_ms, est_refine_ms)
PARENT_PLANS = {
    ("exact", 1): (1, 1, 200, "on", 0.06, 0.5),
    ("exact", 2): (2, 1, 200, "on", 0.06, 0.5),
    ("exact", 6): (6, 1, 200, "on", 0.06, 0.5),
    ("approximate", 1): (1, 1, 1, "off", 0.06, 0.5),
    ("approximate", 2): (2, 1, 1, "off", 0.06, 0.5),
    ("approximate", 6): (3, 1, 1, "off", 0.06, 0.5),
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
        plan.bound_sharing, plan.est_scan_ms, plan.est_refine_ms,
    ) == PARENT_PLANS[mode, workers]


def test_adaptive_plan_only_clamps_downward(tree_workload):
    index, batch, _ = tree_workload
    plan = plan_query_batch(batch, index, query_workers=6)
    assert 1 <= plan.scan_workers <= 6
    assert plan.workers == 6
    assert plan.bound_sharing == "on"  # the default for exact batches
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
    assert plan.bound_sharing == "off"  # no exact heaps to feed a board
    assert plan.workers == 3  # one partition per ~2 queries
    assert plan.min_fetch_records == 1


def test_planner_validates_knobs(tree_workload):
    index, batch, _ = tree_workload
    with pytest.raises(ValueError, match="bound_sharing"):
        plan_query_batch(batch, index, bound_sharing="maybe")
    with pytest.raises(ValueError, match="bound_sharing"):
        plan_query_batch(batch, index, bound_sharing="auto")


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
            # Sharing is ignored where there is nothing to prune.
            assert as_dict["bound_sharing"] == ("off" if name == "Serial" else "on")
            assert not any("pool" in key or "sched" in key for key in as_dict)


# ----------------------------------------------------------------------
# Parallel approximate batches pin to the serial cache oracle
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
