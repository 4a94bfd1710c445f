"""The query planner: one prediction per batch, on one engine.

Every ``query_batch`` runs one way: the paper's single forward SIMS
pass on the calling thread (:mod:`repro.parallel.batch`), or the
shared-probe pass for approximate batches.  :func:`plan_query_batch`
decides nothing; it prices the batch with
:class:`repro.storage.cost.QueryCostModel` and records the prediction
on a :class:`PlanReport` attached to the batch report, so predicted
time can be set against measured time.

``query_workers`` is accepted everywhere a batch is asked for, because
existing callers (the pipeline benchmark) pass it, and checked by
:func:`resolve_workers`; it changes nothing.  ``docs/queries.md``
("Decided on 2-core evidence") has the measurements that left one
engine.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import asdict, dataclass

from ..indexes.base import BatchReport
from ..storage.cost import DEFAULT_QUERY_COST
from .batch import approx_query_batch, sims_query_batch


def resolve_workers(workers: int | None) -> int:
    """``None`` / ``0`` / negative -> all cores; otherwise ``workers``.

    Anything else that is not a Python or NumPy integer (``bool``,
    ``2.5``, ``"2"``) raises ``ValueError``.
    """
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
    ):
        raise ValueError(f"workers must be an integer or None, got {workers!r}")
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


@dataclass(frozen=True)
class PlanReport:
    """One batch's predicted cost: a pure function of its shape."""

    mode: str
    n_queries: int
    n_records: int
    k: int
    est_scan_ms: float
    est_refine_ms: float

    def as_dict(self) -> dict:
        return asdict(self)


def plan_query_batch(batch, index) -> PlanReport:
    """Price ``batch`` on ``index`` with the default query cost model.

    The lower-bound scan costs one cell per (query, record); an index
    without a summary column (the brute-force scan) refines every
    record instead, so its scan is priced at the refine rate.  The
    refine estimate is one pass over every record.
    """
    cost = DEFAULT_QUERY_COST
    raw = getattr(index, "raw", None)
    n_records = int(raw.n_series) if raw is not None else 0
    n_queries = int(batch.n_queries)
    config = getattr(index, "config", None)
    cell_us = cost.mindist_cell_us if config is not None else cost.refine_record_us
    return PlanReport(
        mode=batch.mode,
        n_queries=n_queries,
        n_records=n_records,
        k=batch.k,
        est_scan_ms=n_queries * n_records * cell_us / 1000.0,
        est_refine_ms=n_records * cost.refine_record_us / 1000.0,
    )


def run_sims_query_batch(
    index, batch, query_workers: int | None = 1
) -> BatchReport:
    """Plan and execute one batch on a SIMS-backed Coconut index.

    The shared ``query_batch`` implementation of CoconutTree,
    CoconutTrie and CoconutLSM: the serial batched engine for exact
    batches, the shared-probe pass for approximate ones, with the
    :class:`PlanReport` attached as ``report.plan``.  Wrong-length and
    non-finite queries, then a ``query_workers`` that is not an integer
    or ``None``, raise ``ValueError`` before anything is read.
    """
    index._query_matrix(batch.queries)
    resolve_workers(query_workers)
    plan = plan_query_batch(batch, index)
    if batch.mode == "approximate":
        report = approx_query_batch(index, batch)
    else:
        report = sims_query_batch(index, batch, index._prepare_sims)
    report.plan = plan
    return report
