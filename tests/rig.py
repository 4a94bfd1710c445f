"""The experiment rig the paper-figure and cross-index suites run on.

``INDEX_FACTORIES`` builds every index the paper compares at the scaled
benchmark shape (``tests/test_paper_figures.py`` sweeps them for the
paper's Figs. 8-10), and :func:`make_environment` gives an experiment
cell a fresh disk, raw file and index.  :class:`DatasetSpec` names a
reproducible dataset, :func:`mixed_workload` is Fig. 10a's interleaved
insert / query schedule.  ``tests/test_bench_infra.py`` pins each of
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from repro.core.coconut_tree import CoconutTree
from repro.core.coconut_trie import CoconutTrie
from repro.indexes.ads import ADSIndex
from repro.indexes.base import SeriesIndex
from repro.indexes.dstree import DSTree
from repro.indexes.isax2 import ISAX2Index
from repro.indexes.rtree import RTreeIndex
from repro.indexes.serial import SerialScan
from repro.indexes.vertical import VerticalIndex
from repro.series.generators import make_dataset, query_workload
from repro.storage.disk import SimulatedDisk
from repro.storage.seriesfile import RawSeriesFile
from repro.summaries.sax import SAXConfig

#: Page size used by all experiments (bytes).
PAGE_SIZE = 8192

#: Default leaf capacity (records); the paper used 2000 at full scale.
LEAF_SIZE = 100


# ------------------------------------------------------------ workloads
@dataclass(frozen=True)
class DatasetSpec:
    """A reproducible dataset: generator name, size, length, seed.

    The paper's workloads are "random": query series drawn fresh from
    the same source as the indexed data (Sec. 5).
    """

    name: str = "randomwalk"
    n_series: int = 10_000
    length: int = 128
    seed: int = 7

    def generate(self) -> np.ndarray:
        return make_dataset(
            self.name, self.n_series, length=self.length, seed=self.seed
        )

    def queries(self, n_queries: int) -> np.ndarray:
        return query_workload(
            self.name, n_queries, length=self.length, seed=self.seed
        )

    @property
    def raw_bytes(self) -> int:
        return self.n_series * self.length * 4

    def scaled(self, n_series: int) -> "DatasetSpec":
        return DatasetSpec(self.name, n_series, self.length, self.seed)


@dataclass(frozen=True)
class UpdateEvent:
    """One step of the mixed workload: a batch insert or a query."""

    kind: str  # "insert" or "query"
    payload: np.ndarray


def mixed_workload(
    spec: DatasetSpec,
    initial_fraction: float,
    batch_size: int,
    n_queries: int,
) -> tuple[np.ndarray, Iterator[UpdateEvent]]:
    """The Fig. 10a schedule: initial bulk load, then batches + queries.

    Returns the initial data plus an iterator of events that
    interleaves insert batches with queries (2 queries per batch in
    the paper; here spread evenly so exactly ``n_queries`` run).
    """
    if not 0.0 < initial_fraction < 1.0:
        raise ValueError(
            f"initial_fraction must be in (0, 1), got {initial_fraction}"
        )
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    data = spec.generate()
    n_initial = max(1, int(spec.n_series * initial_fraction))
    initial = data[:n_initial]
    rest = data[n_initial:]
    queries = spec.queries(n_queries)
    n_batches = max(1, -(-len(rest) // batch_size))
    queries_per_batch = n_queries / n_batches

    def events() -> Iterator[UpdateEvent]:
        issued = 0.0
        done = 0
        for b in range(n_batches):
            batch = rest[b * batch_size : (b + 1) * batch_size]
            if len(batch):
                yield UpdateEvent("insert", batch)
            issued += queries_per_batch
            while done < min(int(round(issued)), n_queries):
                yield UpdateEvent("query", queries[done])
                done += 1
        while done < n_queries:
            yield UpdateEvent("query", queries[done])
            done += 1

    return initial, events()


# ------------------------------------------------------------ indexes
def default_config(length: int) -> SAXConfig:
    """The summarization shape used by all experiments.

    The library default is the paper's 16 segments x 256 cardinality.
    The experiments run at ~10^4 series instead of the paper's ~10^8,
    so we scale the word length down to 8 segments: the iSAX root fans
    out on one bit per segment (2^w children), and keeping w = 16 at
    small N would give every series its own root child, exaggerating
    the sparse-leaf effect far beyond the paper's reported ~10% fill.
    """
    word_length = 8 if length >= 16 else 4
    return SAXConfig(
        series_length=length, word_length=word_length, cardinality=256
    )


IndexFactory = Callable[[SimulatedDisk, int, int], SeriesIndex]


def _factories() -> dict[str, IndexFactory]:
    def ctree(disk, memory, length):
        return CoconutTree(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ctree_full(disk, memory, length):
        return CoconutTree(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def ctrie(disk, memory, length):
        return CoconutTrie(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ctrie_full(disk, memory, length):
        return CoconutTrie(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def ads_plus(disk, memory, length):
        return ADSIndex(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ads_full(disk, memory, length):
        return ADSIndex(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            plus=False,
        )

    def isax2(disk, memory, length):
        return ISAX2Index(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def rtree(disk, memory, length):
        return RTreeIndex(
            disk, memory, n_dimensions=8, leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def rtree_plus(disk, memory, length):
        return RTreeIndex(
            disk, memory, n_dimensions=8, leaf_size=LEAF_SIZE,
            materialized=False,
        )

    def dstree(disk, memory, length):
        return DSTree(disk, memory, leaf_size=LEAF_SIZE)

    def vertical(disk, memory, length):
        return VerticalIndex(disk, memory)

    def serial(disk, memory, length):
        return SerialScan(disk, memory)

    return {
        "CTree": ctree,
        "CTreeFull": ctree_full,
        "CTrie": ctrie,
        "CTrieFull": ctrie_full,
        "ADS+": ads_plus,
        "ADSFull": ads_full,
        "iSAX2.0": isax2,
        "R-tree": rtree,
        "R-tree+": rtree_plus,
        "DSTree": dstree,
        "Vertical": vertical,
        "Serial": serial,
    }


INDEX_FACTORIES = _factories()


@dataclass
class Environment:
    """A fresh disk + raw file + index, isolated per experiment cell."""

    disk: SimulatedDisk
    raw: RawSeriesFile
    index: SeriesIndex


@lru_cache(maxsize=8)
def _dataset(spec: DatasetSpec) -> np.ndarray:
    """``spec.generate()``, kept for the most recent specs: a sweep builds
    many cells over one dataset, and generating it again costs as much
    as a build.  Read-only, since every environment shares it."""
    data = spec.generate()
    data.flags.writeable = False
    return data


def make_environment(
    index_key: str, spec: DatasetSpec, memory_bytes: int
) -> Environment:
    """Write the dataset to a fresh raw file, construct the index."""
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    raw = RawSeriesFile.create(disk, _dataset(spec))
    disk.reset_stats()  # ingest of the raw file is not index cost
    index = INDEX_FACTORIES[index_key](disk, memory_bytes, spec.length)
    return Environment(disk=disk, raw=raw, index=index)
