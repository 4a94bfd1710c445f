"""Storage substrate: a simulated disk in the disk access model.

Provides the block device, paged files, the raw data series file and
external merge sort — everything the paper's algorithms need from an
I/O subsystem, with sequential/random access classification so
construction and query costs can be compared in the same cost model
the paper uses.
"""

from .cost import SSD_COST, UNIFORM_COST, CostModel, DiskStats
from .disk import DiskShard, PageError, SimulatedDisk
from .external_sort import ExternalSorter, SortReport, sort_to_arrays
from .faults import (
    CorruptionError,
    DeviceCrash,
    FaultError,
    PermanentIOError,
    TornWrite,
    TransientIOError,
)
from .integrity import (
    ChecksumMap,
    Scrubber,
    ScrubReport,
    checksum_page,
    single_bit_syndromes,
    verify_view,
)
from .merge import (
    LoserTree,
    RunCursor,
    merge_pair,
    merge_presorted,
    merge_stream,
)
from .pager import Extent, PagedFile
from .seriesfile import RawSeriesFile

__all__ = [
    "ChecksumMap",
    "CorruptionError",
    "CostModel",
    "DeviceCrash",
    "DiskShard",
    "DiskStats",
    "Extent",
    "FaultError",
    "PermanentIOError",
    "TornWrite",
    "TransientIOError",
    "ExternalSorter",
    "LoserTree",
    "PageError",
    "PagedFile",
    "RawSeriesFile",
    "RunCursor",
    "Scrubber",
    "ScrubReport",
    "SimulatedDisk",
    "SortReport",
    "SSD_COST",
    "UNIFORM_COST",
    "checksum_page",
    "merge_pair",
    "merge_presorted",
    "merge_stream",
    "single_bit_syndromes",
    "sort_to_arrays",
    "verify_view",
]
