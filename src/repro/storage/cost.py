"""Disk access model cost accounting (Aggarwal & Vitter).

The Coconut paper analyzes every algorithm in the disk access model:
runtime is measured in disk blocks transferred between main memory and
secondary storage, with random block accesses costing far more than
sequential ones on the rotating media used in the paper's evaluation.
This module provides the cost model that converts counted page accesses
into simulated time, so that benchmark results can be compared in the
same currency the paper reasons in.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Converts classified page accesses into simulated milliseconds.

    Defaults are calibrated to a 7200 RPM SATA drive like the ones in the
    paper's testbed: a random access pays a full seek plus rotational
    latency (~8 ms), while a sequential page transfer is limited by the
    ~150 MB/s streaming bandwidth (8 KiB page -> ~0.05 ms).
    """

    random_read_ms: float = 8.0
    random_write_ms: float = 8.0
    sequential_read_ms: float = 0.05
    sequential_write_ms: float = 0.05

    def io_ms(self, stats: "DiskStats") -> float:
        """Simulated milliseconds spent on the accesses in ``stats``."""
        return (
            stats.random_reads * self.random_read_ms
            + stats.random_writes * self.random_write_ms
            + stats.sequential_reads * self.sequential_read_ms
            + stats.sequential_writes * self.sequential_write_ms
        )


@dataclass(frozen=True)
class QueryCostModel:
    """CPU-side costs of the batched query engine.

    The disk access model (:class:`CostModel`) prices page transfers;
    this model prices the *compute* the query planner
    (:func:`repro.parallel.sched.plan_query_batch`) trades those
    transfers against: lower-bound cells, record refinement, and the
    fixed overhead of fanning work out to the thread pool.  Defaults
    are conservative laptop-class numbers.
    """

    #: One ``mindist_paa_to_words`` cell — a (query, record) lower
    #: bound in the shared SIMS scan.
    mindist_cell_us: float = 0.02
    #: One fetched record pushed through the refine kernel.
    refine_record_us: float = 1.0
    #: Spawning + joining one task on a thread pool.
    thread_task_us: float = 200.0

    def as_dict(self) -> dict:
        return {
            "mindist_cell_us": self.mindist_cell_us,
            "refine_record_us": self.refine_record_us,
            "thread_task_us": self.thread_task_us,
        }


#: The rates the planner prices every batch with.
DEFAULT_QUERY_COST = QueryCostModel()


#: A cost model where random and sequential accesses cost the same.
#: Useful for ablations that isolate the effect of contiguity.
UNIFORM_COST = CostModel(
    random_read_ms=0.05,
    random_write_ms=0.05,
    sequential_read_ms=0.05,
    sequential_write_ms=0.05,
)

#: An SSD-like cost model (random penalty ~2x, not ~160x).
SSD_COST = CostModel(
    random_read_ms=0.10,
    random_write_ms=0.12,
    sequential_read_ms=0.04,
    sequential_write_ms=0.05,
)


@dataclass
class DiskStats:
    """Counters for classified page accesses and transferred bytes."""

    sequential_reads: int = 0
    random_reads: int = 0
    sequential_writes: int = 0
    random_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def copy(self) -> "DiskStats":
        return DiskStats(
            self.sequential_reads,
            self.random_reads,
            self.sequential_writes,
            self.random_writes,
            self.bytes_read,
            self.bytes_written,
        )

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            self.sequential_reads - other.sequential_reads,
            self.random_reads - other.random_reads,
            self.sequential_writes - other.sequential_writes,
            self.random_writes - other.random_writes,
            self.bytes_read - other.bytes_read,
            self.bytes_written - other.bytes_written,
        )

    def __add__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(
            self.sequential_reads + other.sequential_reads,
            self.random_reads + other.random_reads,
            self.sequential_writes + other.sequential_writes,
            self.random_writes + other.random_writes,
            self.bytes_read + other.bytes_read,
            self.bytes_written + other.bytes_written,
        )

    @property
    def total_reads(self) -> int:
        return self.sequential_reads + self.random_reads

    @property
    def total_writes(self) -> int:
        return self.sequential_writes + self.random_writes

    @property
    def total_ios(self) -> int:
        return self.total_reads + self.total_writes

    def io_ms(self, cost_model: CostModel | None = None) -> float:
        """Simulated I/O time for these accesses under ``cost_model``."""
        return (cost_model or CostModel()).io_ms(self)

    def as_dict(self) -> dict:
        return {
            "sequential_reads": self.sequential_reads,
            "random_reads": self.random_reads,
            "sequential_writes": self.sequential_writes,
            "random_writes": self.random_writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }
