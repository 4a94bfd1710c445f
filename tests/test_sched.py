"""The query planner is a prediction record.

``plan_query_batch`` decides nothing: every batch runs on the calling
thread.  It prices the batch with the default query cost model and the
prediction rides on ``report.plan``, where ``bench_e2e`` reads
``est_scan_ms + est_refine_ms`` as ``parallel.sched.predicted_ms``.
Pinned here: the estimates are a pure function of batch shape, copied
from the planner before its worker fields went; every planned index
attaches one plan per batch.
"""

import pytest

from repro import QueryBatch, RawSeriesFile, SerialScan, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.parallel.sched import PlanReport, plan_query_batch
from repro.series import query_workload
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
N_SERIES = 500
N_QUERIES = 6
MEMORY = 1 << 20

PLANNING_INDEXES = {
    "CTree": lambda disk: CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32),
    "CTrie": lambda disk: CoconutTrie(disk, MEMORY, config=CONFIG, leaf_size=32),
    "LSM": lambda disk: CoconutLSM(disk, MEMORY, config=CONFIG),
    "Serial": lambda disk: SerialScan(disk, MEMORY),
}

# (index, mode) -> (est_scan_ms, est_refine_ms) over 500 records and 6
# queries, equal to the parent planner's at every ``query_workers``.
# The brute-force scan prices its pass at the refine rate.
PLANS = {
    ("CTree", "exact"): (0.06, 0.5),
    ("CTree", "approximate"): (0.06, 0.5),
    ("Serial", "exact"): (3.0, 0.5),
    ("Serial", "approximate"): (3.0, 0.5),
}


def _index(name):
    disk = SimulatedDisk(page_size=2048)
    index = PLANNING_INDEXES[name](disk)
    index.build(RawSeriesFile.create(
        disk, make_dataset("randomwalk", N_SERIES, length=48, seed=21)
    ))
    return index


def _batch(mode):
    queries = query_workload("randomwalk", N_QUERIES, length=48, seed=22)
    return QueryBatch(queries=queries, k=3 if mode == "exact" else 1, mode=mode)


@pytest.mark.parametrize("name,mode", sorted(PLANS))
def test_estimates_did_not_move(name, mode):
    plan = plan_query_batch(_batch(mode), _index(name))
    assert (plan.est_scan_ms, plan.est_refine_ms) == pytest.approx(PLANS[name, mode])
    assert plan == plan_query_batch(_batch(mode), _index(name))  # deterministic


@pytest.mark.parametrize("name", sorted(PLANNING_INDEXES))
@pytest.mark.parametrize("mode", ["exact", "approximate"])
def test_plan_attached_to_reports(name, mode):
    index = _index(name)
    batch = _batch(mode)
    for workers in (1, 2):
        report = index.query_batch(batch, query_workers=workers)
        assert report.plan == plan_query_batch(batch, index)
        assert report.plan.as_dict() == {
            "mode": mode,
            "n_queries": N_QUERIES,
            "n_records": N_SERIES,
            "k": batch.k,
            "est_scan_ms": report.plan.est_scan_ms,
            "est_refine_ms": report.plan.est_refine_ms,
        }


def test_plan_report_holds_no_decision():
    """The worker fields went with the pooled exact batch."""
    assert list(PlanReport.__dataclass_fields__) == [
        "mode", "n_queries", "n_records", "k", "est_scan_ms", "est_refine_ms",
    ]
