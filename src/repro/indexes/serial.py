"""Serial scan: the brute-force baseline and ground-truth oracle.

No index at all — every query streams the entire raw file and computes
true distances.  This is the "sequential pass over the complete
dataset" the paper's introduction motivates indexing against, and the
reference answer every other index is tested for correctness against.
"""

from __future__ import annotations

import numpy as np

from ..core.knn import scan_knn
from ..storage.seriesfile import RawSeriesFile
from .base import (
    BatchReport,
    BuildReport,
    Measurement,
    QueryResult,
    SeriesIndex,
    best_of,
)


class SerialScan(SeriesIndex):
    """Full sequential scan of the raw file for every query."""

    name = "SerialScan"
    is_materialized = False

    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        self.built = True
        return BuildReport(index_name=self.name, n_series=raw.n_series)

    def insert_batch(self, data: np.ndarray) -> BuildReport:
        raw = self._require_built()
        with Measurement(self.disk) as measure:
            raw.append_batch(np.asarray(data, dtype=np.float32))
        return BuildReport(
            index_name=self.name,
            n_series=len(data),
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
        )

    def _scan(self, query: np.ndarray) -> QueryResult:
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            (outcome,) = scan_knn(self.raw, query[None], 1)
        return measure.stamp(best_of(outcome))

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        return self._scan(query)

    def exact_search(self, query: np.ndarray) -> QueryResult:
        return self._scan(query)

    def query_batch(self, batch, query_workers=1):
        """Answer the whole batch in a single pass over the raw file.

        The serial scan is where batching pays the most: Q queries cost
        one sequential read of the data instead of Q, with the distance
        work vectorized per block.  Results are identical to per-query
        scans.  ``query_workers`` is checked and otherwise ignored; the
        batch's predicted cost is recorded on ``report.plan``.
        """
        from ..parallel.sched import plan_query_batch, resolve_workers

        queries = self._query_matrix(batch.queries)
        resolve_workers(query_workers)
        plan = plan_query_batch(batch, self)
        with Measurement(self.disk) as measure:
            outcomes = scan_knn(self.raw, queries, batch.k)
        report = BatchReport.of(outcomes, measure)
        report.plan = plan
        return report
