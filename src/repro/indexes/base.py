"""The common index interface and measurement reports.

Every index in the evaluation — the Coconut family and all baselines —
implements :class:`SeriesIndex`, so the benchmark harness can sweep
memory budgets, dataset sizes and query workloads uniformly.  Reports
carry both wall-clock time and classified simulated I/O, the two
currencies the paper's figures are plotted in.
"""

from __future__ import annotations

import abc
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from ..storage.cost import DiskStats
from ..storage.disk import SimulatedDisk
from ..storage.seriesfile import RawSeriesFile


@dataclass
class BuildReport:
    """Outcome of constructing (or batch-extending) an index."""

    index_name: str = ""
    n_series: int = 0
    wall_s: float = 0.0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    index_bytes: int = 0
    n_leaves: int = 0
    avg_leaf_fill: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def total_cost_s(self) -> float:
        """Simulated I/O time plus CPU wall time, in seconds."""
        return self.simulated_io_ms / 1000.0 + self.wall_s


@dataclass
class QueryResult:
    """Outcome of one similarity query."""

    answer_idx: int = -1
    distance: float = float("inf")
    visited_records: int = 0
    visited_leaves: int = 0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    wall_s: float = 0.0
    pruned_fraction: float = 0.0

    @property
    def total_cost_s(self) -> float:
        return self.simulated_io_ms / 1000.0 + self.wall_s


def check_k(k) -> int:
    """``k`` as an ``int``; ``ValueError`` unless it is an integer >= 1.

    Python and NumPy integers pass.  ``bool``, floats (``3.0`` too),
    strings and ``None`` are refused: a ``k`` the heaps cannot
    partition by must fail here, before a page is read, not deep in
    ``np.partition`` (or on a serving thread).
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return int(k)


@dataclass
class QueryBatch:
    """Many similarity queries answered in one shared pass.

    ``mode`` selects the paper's two query flavors ("exact" or
    "approximate"); ``k`` generalizes to k nearest neighbors (k = 1 is
    Definition 2's similarity search).  Indexes that can share work
    across the batch — the Coconut family shares the SIMS summary scan
    and every fetched page; the serial scan answers the whole batch in
    a single pass over the raw file — override
    :meth:`SeriesIndex.query_batch`; everything else falls back to a
    per-query loop with identical results.
    """

    queries: np.ndarray
    k: int = 1
    mode: str = "exact"

    def __post_init__(self) -> None:
        self.k = check_k(self.k)
        if self.mode not in ("exact", "approximate"):
            raise ValueError(f"mode must be exact|approximate, got {self.mode!r}")
        if self.mode == "approximate" and self.k != 1:
            raise ValueError(
                "approximate batches answer 1-NN only; use mode='exact' for k > 1"
            )

    @property
    def n_queries(self) -> int:
        return len(np.atleast_2d(np.asarray(self.queries)))


@dataclass
class BatchReport:
    """Outcome of one :class:`QueryBatch`: per-query answers + totals.

    ``results[i]`` is the 1-NN view of query ``i`` (its best answer);
    ``knn_ids[i]`` / ``knn_distances[i]`` hold the full k answers in
    ascending distance order.  I/O and wall time are totals for the
    whole batch — the quantity the batching experiments compare against
    the sum of per-query costs.
    """

    results: list[QueryResult] = field(default_factory=list)
    knn_ids: list[list[int]] = field(default_factory=list)
    knn_distances: list[list[float]] = field(default_factory=list)
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    wall_s: float = 0.0
    #: The planner's predicted cost of this batch
    #: (:class:`repro.parallel.sched.PlanReport`), when an engine that
    #: plans produced the report; ``None`` for unplanned paths.
    plan: object | None = None

    @property
    def total_cost_s(self) -> float:
        return self.simulated_io_ms / 1000.0 + self.wall_s

    def __len__(self) -> int:
        return len(self.results)

    @classmethod
    def of(cls, answers: list, measure: "Measurement") -> "BatchReport":
        """The report of one answer per query — a
        :class:`~repro.core.knn.KNNOutcome` or a :class:`QueryResult` —
        carrying ``measure``'s totals."""
        ids, distances = knn_lists(answers)
        results = [
            answer if isinstance(answer, QueryResult) else best_of(answer)
            for answer in answers
        ]
        return measure.stamp(
            cls(results=results, knn_ids=ids, knn_distances=distances)
        )


def best_of(outcome) -> QueryResult:
    """The 1-NN view of a :class:`~repro.core.knn.KNNOutcome`: its best
    answer, or none (``-1`` at ``inf``)."""
    found = bool(outcome.answer_ids)
    return QueryResult(
        answer_idx=outcome.answer_ids[0] if found else -1,
        distance=outcome.distances[0] if found else float("inf"),
        visited_records=outcome.visited_records,
        pruned_fraction=outcome.pruned_fraction,
    )


def knn_lists(answers: list) -> tuple[list[list[int]], list[list[float]]]:
    """Per answer, its ids and its distances in ascending order: all k of
    a :class:`~repro.core.knn.KNNOutcome`, the one of a
    :class:`QueryResult` (none when it found none)."""
    ids, distances = [], []
    for answer in answers:
        if not isinstance(answer, QueryResult):
            ids.append(list(answer.answer_ids))
            distances.append(list(answer.distances))
        elif answer.answer_idx >= 0:
            ids.append([answer.answer_idx])
            distances.append([answer.distance])
        else:
            ids.append([])
            distances.append([])
    return ids, distances


class Measurement:
    """Context manager capturing wall time and I/O deltas of one step."""

    def __init__(self, disk: SimulatedDisk):
        self.disk = disk
        self.io = DiskStats()
        self.wall_s = 0.0
        self.simulated_io_ms = 0.0

    def __enter__(self) -> "Measurement":
        self._snapshot = self.disk.snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._t0
        self.io = self.disk.stats_since(self._snapshot)
        self.simulated_io_ms = self.disk.cost_model.io_ms(self.io)

    def stamp(self, report):
        """``report``, carrying this step's I/O and wall time."""
        report.io = self.io
        report.simulated_io_ms = self.simulated_io_ms
        report.wall_s = self.wall_s
        return report


class SeriesIndex(abc.ABC):
    """Interface shared by the Coconut indexes and all baselines.

    Subclasses set :attr:`name` and :attr:`is_materialized`, and
    implement construction plus the two query modes of the paper:
    approximate search (visit the most promising leaf or leaves) and
    exact search (guaranteed nearest neighbor).
    """

    name: str = "index"
    is_materialized: bool = False

    def __init__(self, disk: SimulatedDisk, memory_bytes: int):
        if memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive, got {memory_bytes}")
        self.disk = disk
        self.memory_bytes = memory_bytes
        self.raw: RawSeriesFile | None = None
        self.built = False

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build(self, raw: RawSeriesFile) -> BuildReport:
        """Construct the index over the raw file."""

    @abc.abstractmethod
    def approximate_search(self, query: np.ndarray) -> QueryResult:
        """Best-effort nearest neighbor (paper Sec. 4.2/4.3 querying)."""

    @abc.abstractmethod
    def exact_search(self, query: np.ndarray) -> QueryResult:
        """Guaranteed nearest neighbor."""

    def insert_batch(self, data: np.ndarray) -> BuildReport:
        """Add new series to the index (updates experiment, Fig. 10a)."""
        raise NotImplementedError(f"{self.name} does not support updates")

    # ------------------------------------------------------------------
    def exact_knn(self, query: np.ndarray, k: int):
        """Exact k nearest neighbors; returns a ``KNNOutcome``.

        k = 1 delegates to :meth:`exact_search` (the index's own pruned
        path).  For larger k this falls back to a ground-truth scan of
        the raw file — exact but unindexed.  Every SIMS-backed index
        (the Coconut family and ADS, :class:`repro.core.sims.SIMSIndex`)
        answers every k with the pruned engine instead; the other
        baselines use this.
        """
        from ..core.knn import KNNOutcome, scan_knn  # deferred

        k = check_k(k)
        if k == 1:
            result = self.exact_search(query)
            answered = result.answer_idx >= 0
            return KNNOutcome(
                answer_ids=[result.answer_idx] if answered else [],
                distances=[result.distance] if answered else [],
                visited_records=result.visited_records,
                pruned_fraction=result.pruned_fraction,
                io=result.io,
                simulated_io_ms=result.simulated_io_ms,
                wall_s=result.wall_s,
            )
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            (outcome,) = scan_knn(self._require_built(), query[None], k)
        return measure.stamp(outcome)

    def query_batch(
        self, batch: QueryBatch, query_workers: int | None = 1
    ) -> BatchReport:
        """Answer a :class:`QueryBatch`; default is a per-query loop.

        Subclasses that can share work across queries override this;
        the contract is that the returned (id, distance) answers are
        identical to issuing every query individually.  Every batch
        runs on the calling thread: ``query_workers`` is accepted and
        checked on every index (an integer or ``None``, else
        ``ValueError``) and changes nothing.
        """
        from ..parallel.sched import resolve_workers

        resolve_workers(query_workers)
        queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
        answers = []
        with Measurement(self.disk) as measure:
            for query in queries:
                if batch.mode == "approximate":
                    answers.append(self.approximate_search(query))
                elif batch.k == 1:
                    answers.append(self.exact_search(query))
                else:
                    answers.append(self.exact_knn(query, batch.k))
        return BatchReport.of(answers, measure)

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Bytes of secondary storage occupied by the index structure."""
        return 0

    def leaf_stats(self) -> tuple[int, float]:
        """(number of leaves, average leaf fill factor in [0, 1])."""
        return 0, 0.0

    def _require_built(self) -> RawSeriesFile:
        if not self.built or self.raw is None:
            raise RuntimeError(f"{self.name}: call build() before querying")
        return self.raw

    def _query_array(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=np.float64).ravel()
        self._check_queries(query)
        return query

    def _query_matrix(self, queries: np.ndarray) -> np.ndarray:
        """A (Q, length) float64 batch, checked like one query."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        self._check_queries(queries)
        return queries

    def _check_queries(self, queries: np.ndarray) -> None:
        """Refuse what cannot be answered (series along the last axis).

        A query of the wrong length has no defined distance, and a NaN
        or infinite value zeroes every lower bound and poisons every
        heap threshold: ``ValueError`` rather than an arbitrary answer.
        """
        raw = self._require_built()
        if queries.ndim > 2 or queries.shape[-1] != raw.length:
            raise ValueError(
                f"query length {queries.shape[-1]} != indexed length {raw.length}"
            )
        if not np.isfinite(queries).all():
            raise ValueError("query contains NaN or infinite values")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, built={self.built})"
