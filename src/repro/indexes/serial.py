"""Serial scan: the brute-force baseline and ground-truth oracle.

No index at all — every query streams the entire raw file and computes
true distances.  This is the "sequential pass over the complete
dataset" the paper's introduction motivates indexing against, and the
reference answer every other index is tested for correctness against.
"""

from __future__ import annotations

import numpy as np

from ..series.distance import early_abandon_euclidean_block
from ..storage.seriesfile import RawSeriesFile
from .base import BuildReport, Measurement, QueryResult, SeriesIndex


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
            best_idx, best_dist = -1, float("inf")
            for start, block in self.raw.scan():
                # A row the kernel abandons (``inf``) has distance
                # strictly above best_dist: the argmin update below
                # sees the same winners.
                distances = early_abandon_euclidean_block(
                    query, block, best_dist
                )
                j = int(np.argmin(distances))
                if distances[j] < best_dist:
                    best_dist = float(distances[j])
                    best_idx = start + j
        return QueryResult(
            answer_idx=best_idx,
            distance=best_dist,
            visited_records=self.raw.n_series,
            visited_leaves=0,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
            pruned_fraction=0.0,
        )

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
        from ..core.knn import KNNOutcome, _BoundedMaxHeap
        from ..parallel.batch import build_batch_report
        from ..parallel.sched import plan_query_batch, resolve_workers

        queries = self._query_matrix(batch.queries)
        resolve_workers(query_workers)
        plan = plan_query_batch(batch, self)
        heaps = [_BoundedMaxHeap(batch.k) for _ in queries]
        with Measurement(self.disk) as measure:
            for start, block in self.raw.scan():
                identifiers = np.arange(start, start + len(block))
                for heap, query in zip(heaps, queries):
                    distances = early_abandon_euclidean_block(
                        query, block, heap.threshold
                    )
                    heap.offer_block(distances, identifiers)
        outcomes = []
        for heap in heaps:
            items = heap.sorted_items()
            outcomes.append(
                KNNOutcome(
                    answer_ids=[identifier for _, identifier in items],
                    distances=[distance for distance, _ in items],
                    visited_records=self.raw.n_series,
                    pruned_fraction=0.0,
                )
            )
        report = build_batch_report(outcomes, measure)
        report.plan = plan
        return report
