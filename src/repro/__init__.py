"""Coconut: a scalable bottom-up approach for building data series indexes.

A from-scratch Python reproduction of Kondylakis, Dayan, Zoumpatianos
and Palpanas (PVLDB 11(6), 2018), including every substrate and
baseline the paper evaluates against.

Quickstart::

    import numpy as np
    from repro import CoconutTree, RawSeriesFile, SimulatedDisk, random_walk

    disk = SimulatedDisk()
    data = random_walk(10_000, length=256, seed=0)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(disk, memory_bytes=1 << 22)
    index.build(raw)
    result = index.exact_search(random_walk(1, length=256, seed=1)[0])
    print(result.answer_idx, result.distance)

See docs/PRIOR_ART.md for the system inventory and docs/figures.md for
the paper-vs-measured reproduction results.
"""

from .core import (
    CoconutTree,
    CoconutTrie,
    deinterleave_keys,
    interleave_words,
    invsax_keys,
    query_key,
    sims_scan,
)
from .indexes import (
    ADSIndex,
    BatchReport,
    BuildReport,
    DSTree,
    ISAX2Index,
    QueryBatch,
    QueryResult,
    RTreeIndex,
    SerialScan,
    SeriesIndex,
    VerticalIndex,
)
from .parallel import (
    ParallelSummarizer,
    batched_exact_knn,
    parallel_invsax_keys,
    parallel_merge_runs,
)
from .service import CoconutService, ServiceConfig
from .series import (
    astronomy,
    dtw,
    euclidean,
    make_dataset,
    query_workload,
    random_walk,
    seismic,
    sliding_windows,
    z_normalize,
)
from .storage import (
    BufferPool,
    CostModel,
    DiskShard,
    DiskStats,
    ExternalSorter,
    PagedFile,
    RawSeriesFile,
    ShardedDisk,
    SimulatedDisk,
)
from .summaries import SAXConfig

__version__ = "1.0.0"

__all__ = [
    "ADSIndex",
    "BatchReport",
    "BufferPool",
    "BuildReport",
    "CoconutService",
    "CoconutTree",
    "CoconutTrie",
    "CostModel",
    "DSTree",
    "DiskShard",
    "DiskStats",
    "ExternalSorter",
    "ISAX2Index",
    "PagedFile",
    "ParallelSummarizer",
    "QueryBatch",
    "QueryResult",
    "RTreeIndex",
    "RawSeriesFile",
    "SAXConfig",
    "SerialScan",
    "SeriesIndex",
    "ServiceConfig",
    "ShardedDisk",
    "SimulatedDisk",
    "VerticalIndex",
    "astronomy",
    "batched_exact_knn",
    "deinterleave_keys",
    "dtw",
    "euclidean",
    "interleave_words",
    "invsax_keys",
    "make_dataset",
    "parallel_invsax_keys",
    "parallel_merge_runs",
    "query_key",
    "query_workload",
    "random_walk",
    "seismic",
    "sims_scan",
    "sliding_windows",
    "z_normalize",
    "__version__",
]
