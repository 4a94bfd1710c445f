"""The four workloads: one dataset and the sizes of the three stages each.

Every workload runs the whole pipeline (``pipeline.py``), so every
end-to-end metric is measured on every workload; what differs is the
input — how prunable the data is, how large it is against
``memory_bytes``, how long the series are — and which stage runs at the
size where its costs dominate.  Sizes were chosen by timing the seed on
a 2-core sandbox: one *round* (a build pass, a query pass, a service
instance) takes 3-4 s, so about five rounds fit in ``--seconds 20`` and
a whole run, set-up included, stays under 30 s (the driver allows
3420 s for 92 runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Rows per ingest call, in both serve phases.
BATCH_ROWS = 500
#: Phase B feeder pace.
FEEDER_BATCHES_PER_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    length: int
    n_build: int  # rows each build cell indexes
    n_query: int  # rows under the queried tree
    n_approx: int  # approximate_search calls per round
    n_exact: int  # exact_search calls per round (the first n_exact approx queries)
    serve_base: int  # rows bulk-loaded before the service ingests
    ingest_batches: int  # Phase A batches per service instance
    mixed_rate_qps: float  # Phase B open-loop schedule
    mixed_seconds: float  # Phase B duration per round
    batch_queries: int = 64  # queries in the one query_batch call per round (k = 10)
    restart_queries: int = 20  # served queries checked after the restart

    @property
    def n_mixed_requests(self) -> int:
        return max(1, int(self.mixed_rate_qps * self.mixed_seconds))

    @property
    def n_mixed_batches(self) -> int:
        return int(FEEDER_BATCHES_PER_S * self.mixed_seconds)

    @property
    def serve_rows(self) -> int:
        """Rows a service instance holds when its round ends."""
        batches = self.ingest_batches + self.n_mixed_batches
        return self.serve_base + batches * BATCH_ROWS

    @property
    def total_rows(self) -> int:
        return max(self.n_build, self.n_query, self.serve_rows)

    def quick(self) -> "Workload":
        """The same pipeline at a scale the test suite can afford."""
        return replace(
            self,
            n_build=2000,
            n_query=2000,
            n_approx=8,
            n_exact=4,
            serve_base=500,
            ingest_batches=6,
            mixed_rate_qps=20.0,
            mixed_seconds=0.15,
            batch_queries=4,
            restart_queries=2,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="build_rw",
            why=(
                "largest build: sort, merge, leaf packing and page-store writes "
                "dominate; memory 5% vs 200% of raw is the spills / fits pair"
            ),
            dataset="randomwalk",
            length=256,
            n_build=15_000,
            n_query=5_000,
            n_approx=100,
            n_exact=100,
            serve_base=2_000,
            ingest_batches=12,
            mixed_rate_qps=20.0,
            mixed_seconds=0.8,
        ),
        Workload(
            name="query_rw",
            why=(
                "random walk prunes ~98% of records, so the in-memory "
                "lower-bound scan dominates exact queries; gather and refine are small"
            ),
            dataset="randomwalk",
            length=256,
            n_build=4_000,
            n_query=15_000,
            n_approx=300,
            n_exact=100,
            serve_base=2_000,
            ingest_batches=12,
            mixed_rate_qps=20.0,
            mixed_seconds=0.8,
        ),
        Workload(
            name="query_seismic",
            why=(
                "seismic data is unprunable (SIMS visits ~100% of records), so "
                "gather and refine dominate and the lower-bound scan is small"
            ),
            dataset="seismic",
            length=256,
            n_build=4_000,
            n_query=4_000,
            n_approx=200,
            n_exact=100,
            serve_base=1_000,
            ingest_batches=6,
            mixed_rate_qps=20.0,
            mixed_seconds=0.8,
        ),
        Workload(
            name="serve_mixed",
            why=(
                "WAL, flush, compaction, CRC, admission and snapshot pinning run "
                "under concurrent ingest and open-loop queries on a multi-run LSM"
            ),
            dataset="randomwalk",
            length=128,
            n_build=4_000,
            n_query=5_000,
            n_approx=100,
            n_exact=100,
            serve_base=5_000,
            ingest_batches=40,
            mixed_rate_qps=10.0,
            mixed_seconds=2.0,
        ),
    )
}
