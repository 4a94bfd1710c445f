"""iSAX 2.0: top-down insertion with main-memory buffering (Fig. 3).

The pre-Coconut state of the art and the structural substrate of the
ADS baselines.  Internal nodes live in main memory; leaf records are
buffered in a First Buffer Layer (FBL) and flushed when the memory
budget fills up.  Every flush of a leaf is a read-modify-write of that
leaf's pages, and splits allocate children wherever the disk allocator
happens to be — so leaves end up scattered (non-contiguous), which is
exactly the construction and query pathology Sec. 3 analyzes.

Node splitting is prefix-based: the segment whose next unprefixed bit
best divides the resident series is promoted by one bit.  Data that do
not share prefixes can never cohabit a leaf, so leaves are sparsely
populated (low fill factors), amplifying storage and query costs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.seriesfile import RawSeriesFile
from ..summaries.isax import ISAXPrefix
from ..summaries.paa import paa
from ..summaries.sax import SAXConfig, sax_words
from .base import BuildReport, Measurement, QueryResult, SeriesIndex


def _leaf_record_dtype(config: SAXConfig, length: int, materialized: bool) -> np.dtype:
    fields = [("w", "<u2", (config.word_length,)), ("off", "<i8")]
    if materialized:
        fields.append(("series", "<f4", (length,)))
    return np.dtype(fields)


@dataclass
class _Leaf:
    """A leaf node: an iSAX prefix region plus its resident records."""

    prefix: ISAXPrefix
    first_page: int = -1
    n_pages: int = 0
    on_disk: int = 0
    buffer_words: list[np.ndarray] = field(default_factory=list)
    buffer_offsets: list[int] = field(default_factory=list)
    buffer_series: list[np.ndarray] = field(default_factory=list)
    materialized: bool = False  # for ADS+: raw series present on disk

    @property
    def buffered(self) -> int:
        return len(self.buffer_offsets)

    @property
    def count(self) -> int:
        return self.on_disk + self.buffered


@dataclass
class _Internal:
    prefix: ISAXPrefix
    split_segment: int
    children: dict[int, object] = field(default_factory=dict)  # bit -> node


class ISAXTree:
    """The buffered, prefix-split tree shared by iSAX 2.0 and ADS.

    The root fans out on the vector of per-segment first bits (the
    classic iSAX root); below it, nodes split one segment bit at a
    time.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        config: SAXConfig,
        raw_length: int,
        leaf_size: int,
        memory_bytes: int,
        materialized: bool,
    ):
        self.disk = disk
        self.config = config
        self.leaf_size = leaf_size
        self.memory_bytes = memory_bytes
        self.materialized = materialized
        self.record_dtype = _leaf_record_dtype(config, raw_length, materialized)
        self.raw_length = raw_length
        self.root: dict[tuple, object] = {}
        self.leaves: list[_Leaf] = []
        self.buffered_records = 0
        self.dead_pages = 0
        self.n_splits = 0
        self.n_leaf_flushes = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _root_key(self, word: np.ndarray) -> tuple:
        shift = self.config.bits_per_symbol - 1
        return tuple(int(s) >> shift for s in word)

    def route(self, word: np.ndarray, create: bool = True) -> _Leaf | None:
        """Find (or create) the leaf whose region contains ``word``.

        With ``create=False`` (query-time routing) the result is
        guaranteed to be a *populated* leaf whenever the tree holds any
        records: missing root children and empty split siblings fall
        back to the nearest populated region.
        """
        key = self._root_key(word)
        node = self.root.get(key)
        if node is None:
            if not create:
                return self._nearest_populated_leaf(word)
            bits = (1,) * self.config.word_length
            prefix = ISAXPrefix(key, bits)
            node = _Leaf(prefix=prefix)
            self.root[key] = node
            self.leaves.append(node)
            return node
        while isinstance(node, _Internal):
            full = self.config.bits_per_symbol
            segment = node.split_segment
            depth = node.prefix.bits[segment]
            bit = (int(word[segment]) >> (full - depth - 1)) & 1
            node = node.children[bit]
        if not create and node.count == 0:
            return self._nearest_populated_leaf(word)
        return node

    def _nearest_populated_leaf(self, word: np.ndarray) -> _Leaf | None:
        """Query-time fallback: closest non-empty region by first bits."""
        candidates = [leaf for leaf in self.leaves if leaf.count]
        if not candidates:
            return None
        key = np.array(self._root_key(word))

        def first_bits(leaf: _Leaf) -> np.ndarray:
            return np.array(
                [
                    (symbol >> (bit - 1)) & 1 if bit else 0
                    for symbol, bit in zip(leaf.prefix.symbols, leaf.prefix.bits)
                ]
            )

        return min(
            candidates, key=lambda leaf: int(np.sum(first_bits(leaf) != key))
        )

    # ------------------------------------------------------------------
    # Insertion with FBL buffering
    # ------------------------------------------------------------------
    def insert(
        self, word: np.ndarray, offset: int, series: np.ndarray | None = None
    ) -> None:
        leaf = self.route(word)
        leaf.buffer_words.append(np.asarray(word, dtype=np.uint16))
        leaf.buffer_offsets.append(int(offset))
        if self.materialized:
            leaf.buffer_series.append(np.asarray(series, dtype=np.float32))
        self.buffered_records += 1
        if self.buffered_records * self.record_dtype.itemsize > self.memory_bytes:
            self.flush_all()

    def flush_all(self) -> None:
        """Flush every dirty leaf buffer to disk (paper Fig. 3)."""
        for leaf in list(self.leaves):
            if leaf.buffered:
                self._flush_leaf(leaf)
        self.buffered_records = 0

    def _read_leaf_records(self, leaf: _Leaf) -> np.ndarray:
        if leaf.on_disk == 0 or leaf.first_page < 0:
            return np.empty(0, dtype=self.record_dtype)
        # One bulk run read (zero-copy on arena stores); counters are
        # bit-identical to the per-page loop it replaces.
        raw = self.disk.read_run_bytes(leaf.first_page, leaf.n_pages)
        return np.frombuffer(
            raw[: leaf.on_disk * self.record_dtype.itemsize],
            dtype=self.record_dtype,
        )

    def _leaf_records_in_memory(self, leaf: _Leaf) -> np.ndarray:
        """All records of a leaf (disk + buffer), reading disk pages."""
        existing = self._read_leaf_records(leaf)
        merged = np.zeros(leaf.count, dtype=self.record_dtype)
        merged[: leaf.on_disk] = existing
        if leaf.buffered:
            merged["w"][leaf.on_disk :] = np.vstack(leaf.buffer_words)
            merged["off"][leaf.on_disk :] = leaf.buffer_offsets
            if self.materialized:
                merged["series"][leaf.on_disk :] = np.vstack(leaf.buffer_series)
        return merged

    def _write_leaf_records(self, leaf: _Leaf, records: np.ndarray) -> None:
        """Allocate-if-needed and write; allocations scatter leaves."""
        data = records.tobytes()
        needed = max(1, -(-len(data) // self.disk.page_size))
        if needed > leaf.n_pages:
            if leaf.first_page >= 0:
                self.dead_pages += leaf.n_pages
            leaf.first_page = self.disk.allocate(needed)
            leaf.n_pages = needed
        for i in range(needed):
            chunk = data[i * self.disk.page_size : (i + 1) * self.disk.page_size]
            self.disk.write_page(leaf.first_page + i, chunk)
        leaf.on_disk = len(records)
        self.n_leaf_flushes += 1

    def _flush_leaf(self, leaf: _Leaf) -> None:
        records = self._leaf_records_in_memory(leaf)
        leaf.buffer_words.clear()
        leaf.buffer_offsets.clear()
        leaf.buffer_series.clear()
        if len(records) > self.leaf_size:
            self._split_leaf(leaf, records)
        else:
            self._write_leaf_records(leaf, records)

    def _split_leaf(self, leaf: _Leaf, records: np.ndarray) -> None:
        """Prefix split (Sec. 3.2), recursing while children overflow."""
        try:
            segment = leaf.prefix.choose_split_segment(records["w"], self.config)
        except ValueError:
            # Identical words at full depth: an overflow leaf.
            self._write_leaf_records(leaf, records)
            return
        self.n_splits += 1
        left_prefix, right_prefix = leaf.prefix.split(segment)
        full = self.config.bits_per_symbol
        depth = leaf.prefix.bits[segment]
        bits = (records["w"][:, segment] >> (full - depth - 1)) & 1
        internal = _Internal(prefix=leaf.prefix, split_segment=segment)
        if leaf.first_page >= 0:
            self.dead_pages += leaf.n_pages
        self.leaves.remove(leaf)
        self._replace_node(leaf, internal)
        for bit, prefix in ((0, left_prefix), (1, right_prefix)):
            child = _Leaf(prefix=prefix)
            internal.children[bit] = child
            self.leaves.append(child)
            subset = records[bits == bit]
            if len(subset) > self.leaf_size:
                self._split_leaf(child, subset)
            elif len(subset):
                self._write_leaf_records(child, subset)

    def _replace_node(self, old, new) -> None:
        for key, node in self.root.items():
            if node is old:
                self.root[key] = new
                return
            stack = [node]
            while stack:
                current = stack.pop()
                if isinstance(current, _Internal):
                    for bit, child in current.children.items():
                        if child is old:
                            current.children[bit] = new
                            return
                        stack.append(child)
        raise AssertionError("node not found in tree")  # pragma: no cover

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        live = sum(leaf.n_pages for leaf in self.leaves)
        return (live + self.dead_pages) * self.disk.page_size

    def leaf_stats(self) -> tuple[int, float]:
        occupied = [leaf for leaf in self.leaves if leaf.count]
        if not occupied:
            return 0, 0.0
        fills = [leaf.count / self.leaf_size for leaf in occupied]
        return len(occupied), float(np.mean(fills))


class ISAX2Index(SeriesIndex):
    """iSAX 2.0 as a standalone index (top-down construction)."""

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None = None,
        leaf_size: int = 100,
        materialized: bool = True,
    ):
        super().__init__(disk, memory_bytes)
        self.config = config or SAXConfig()
        self.leaf_size = leaf_size
        self.is_materialized = materialized
        self.name = "iSAX2.0" if materialized else "iSAX2.0+"
        self.tree: ISAXTree | None = None

    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        with Measurement(self.disk) as measure:
            self.tree = ISAXTree(
                self.disk,
                self.config,
                raw.length,
                self.leaf_size,
                self.memory_bytes,
                self.is_materialized,
            )
            for start, block in raw.scan():
                words = sax_words(block, self.config)
                for i in range(len(block)):
                    self.tree.insert(
                        words[i],
                        start + i,
                        block[i] if self.is_materialized else None,
                    )
            self.tree.flush_all()
        self.built = True
        n_leaves, fill = self.leaf_stats()
        return BuildReport(
            index_name=self.name,
            n_series=raw.n_series,
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=n_leaves,
            avg_leaf_fill=fill,
            extra={
                "splits": self.tree.n_splits,
                "leaf_flushes": self.tree.n_leaf_flushes,
            },
        )

    def insert_batch(self, data: np.ndarray) -> BuildReport:
        raw = self._require_built()
        data = np.asarray(data, dtype=np.float32)
        with Measurement(self.disk) as measure:
            first = raw.append_batch(data)
            words = sax_words(data, self.config)
            for i in range(len(data)):
                self.tree.insert(
                    words[i],
                    first + i,
                    data[i] if self.is_materialized else None,
                )
        n_leaves, fill = self.leaf_stats()
        return BuildReport(
            index_name=self.name,
            n_series=len(data),
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=n_leaves,
            avg_leaf_fill=fill,
        )

    # ------------------------------------------------------------------
    def _leaf_distances(
        self, query: np.ndarray, leaf: _Leaf
    ) -> tuple[np.ndarray, np.ndarray]:
        records = self.tree._leaf_records_in_memory(leaf)
        if len(records) == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        if self.is_materialized:
            series = records["series"].astype(np.float64)
        else:
            series = self.raw.get_many(records["off"])
        distances = early_abandon_euclidean_block(query, series, float("inf"))
        return distances, records["off"].astype(np.int64)

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            result = self._seed(query)
        return measure.stamp(result)

    def _seed(self, query: np.ndarray) -> QueryResult:
        """The approximate answer, unmeasured, for a query already
        checked: the probe that seeds an exact search."""
        word = sax_words(query[None, :], self.config)[0]
        leaf = self.tree.route(word, create=False)
        best_idx, best_dist, visited = -1, float("inf"), 0
        if leaf is not None and leaf.count:
            distances, offsets = self._leaf_distances(query, leaf)
            visited = len(offsets)
            j = int(np.argmin(distances))
            best_idx, best_dist = int(offsets[j]), float(distances[j])
        return QueryResult(
            answer_idx=best_idx,
            distance=best_dist,
            visited_records=visited,
            visited_leaves=1 if visited else 0,
        )

    def exact_search(self, query: np.ndarray) -> QueryResult:
        """Classic best-first tree search with mindist pruning."""
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            query_paa = paa(query, self.config.word_length)[0]
            seed = self._seed(query)
            bsf, answer = seed.distance, seed.answer_idx
            visited, leaves_read = seed.visited_records, seed.visited_leaves
            heap = []
            for i, node in enumerate(self.root_nodes()):
                heapq.heappush(
                    heap, (node.prefix.mindist(query_paa, self.config), i, node)
                )
            counter = len(heap)
            while heap:
                mindist, _, node = heapq.heappop(heap)
                if mindist >= bsf:
                    break
                if isinstance(node, _Internal):
                    for child in node.children.values():
                        counter += 1
                        heapq.heappush(
                            heap,
                            (
                                child.prefix.mindist(query_paa, self.config),
                                counter,
                                child,
                            ),
                        )
                    continue
                if not node.count:
                    continue
                distances, offsets = self._leaf_distances(query, node)
                visited += len(offsets)
                leaves_read += 1
                j = int(np.argmin(distances))
                if distances[j] < bsf:
                    bsf, answer = float(distances[j]), int(offsets[j])
        n = self.raw.n_series
        return QueryResult(
            answer_idx=answer,
            distance=bsf,
            visited_records=visited,
            visited_leaves=leaves_read,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
            pruned_fraction=1.0 - visited / n if n else 0.0,
        )

    def root_nodes(self):
        return list(self.tree.root.values())

    def storage_bytes(self) -> int:
        return self.tree.storage_bytes() if self.tree else 0

    def leaf_stats(self) -> tuple[int, float]:
        return self.tree.leaf_stats() if self.tree else (0, 0.0)
