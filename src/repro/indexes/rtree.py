"""R-tree over PAA points, bulk-loaded with Sort-Tile-Recursive (STR).

The spatial baseline of the evaluation: each series becomes a
``word_length``-dimensional PAA point, packed into leaves by STR
(Leutenegger et al., ICDE 1997).  STR sorts the points on one
dimension, slices the result into slabs, and recurses on the next
dimension inside each slab — so the data is externally sorted once per
recursion level.  That is the O(N * D) construction cost the paper
contrasts with Coconut's single O(N) sort over the interleaved key.

* ``materialized=True`` — "R-tree": leaves store the raw series.
* ``materialized=False`` — "R-tree+": leaves store offsets only.

Exact search is classic best-first nearest neighbor over MBR mindists
(lower bounds on ED via the PAA bounding lemma).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.external_sort import ExternalSorter, sort_to_arrays
from ..storage.pager import PagedFile
from ..storage.seriesfile import RawSeriesFile
from ..summaries.paa import paa
from .base import BuildReport, Measurement, QueryResult, SeriesIndex


@dataclass
class _RLeaf:
    low: np.ndarray
    high: np.ndarray
    count: int
    start_page: int
    n_pages: int


@dataclass
class _RNode:
    low: np.ndarray
    high: np.ndarray
    children: list = field(default_factory=list)


def _mbr_mindist(query_paa: np.ndarray, low, high, segment_size: float) -> float:
    """Lower bound on ED from a query to anything inside an MBR."""
    below = np.where(query_paa < low, low - query_paa, 0.0)
    above = np.where(query_paa > high, query_paa - high, 0.0)
    gap = below + above
    return float(np.sqrt(segment_size * np.sum(gap * gap)))


class RTreeIndex(SeriesIndex):
    """STR-packed R-tree on PAA summarizations."""

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        n_dimensions: int = 16,
        leaf_size: int = 100,
        materialized: bool = True,
        fanout: int = 16,
    ):
        super().__init__(disk, memory_bytes)
        self.n_dimensions = n_dimensions
        self.leaf_size = leaf_size
        self.is_materialized = materialized
        self.fanout = max(2, fanout)
        self.name = "R-tree" if materialized else "R-tree+"
        self._leaves: list[_RLeaf] = []
        self.root: _RNode | None = None
        self.sort_passes = 0

    # ------------------------------------------------------------------
    @property
    def record_dtype(self) -> np.dtype:
        fields = [
            ("p", "<f8", (self.n_dimensions,)),
            ("off", "<i8"),
        ]
        if self.is_materialized:
            fields.append(("series", "<f4", (self.raw.length,)))
        return np.dtype(fields)

    @property
    def segment_size(self) -> float:
        return self.raw.length / self.n_dimensions

    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        with Measurement(self.disk) as measure:
            records = self._collect_points(raw)
            self._leaf_file = PagedFile(self.disk, name=f"{self.name}-leaves")
            self._str_pack(records, 0)
            self._build_internal()
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
            extra={"sort_passes": self.sort_passes},
        )

    def _collect_points(self, raw: RawSeriesFile) -> np.ndarray:
        parts = []
        for start, block in raw.scan():
            rows = np.zeros(len(block), dtype=self.record_dtype)
            rows["p"] = paa(block, self.n_dimensions)
            rows["off"] = np.arange(start, start + len(block))
            if self.is_materialized:
                rows["series"] = block
            parts.append(rows)
        if not parts:
            return np.empty(0, dtype=self.record_dtype)
        return np.concatenate(parts)

    def _str_pack(self, records: np.ndarray, dim: int) -> None:
        """Sort-tile-recursive packing; one external sort per level."""
        n = len(records)
        if n == 0:
            return
        if n <= self.leaf_size or dim >= self.n_dimensions - 1:
            sorter = ExternalSorter(self.disk, self.memory_bytes)
            self.sort_passes += 1
            keys = np.ascontiguousarray(records["p"][:, dim])
            _, records = sort_to_arrays(sorter, keys, records)
            for start in range(0, n, self.leaf_size):
                self._emit_leaf(records[start : start + self.leaf_size])
            return
        sorter = ExternalSorter(self.disk, self.memory_bytes)
        self.sort_passes += 1
        keys = np.ascontiguousarray(records["p"][:, dim])
        _, records = sort_to_arrays(sorter, keys, records)
        n_leaf_pages = -(-n // self.leaf_size)
        n_slabs = max(1, int(np.ceil(n_leaf_pages ** (1.0 / (self.n_dimensions - dim)))))
        slab = -(-n // n_slabs)
        for start in range(0, n, slab):
            self._str_pack(records[start : start + slab], dim + 1)

    def _emit_leaf(self, records: np.ndarray) -> None:
        start_page = self._leaf_file.n_pages
        n_pages = self._leaf_file.write_stream(
            records.tobytes(), at_page=start_page
        )
        self._leaves.append(
            _RLeaf(
                low=records["p"].min(axis=0),
                high=records["p"].max(axis=0),
                count=len(records),
                start_page=start_page,
                n_pages=n_pages,
            )
        )

    def _build_internal(self) -> None:
        if not self._leaves:
            self.root = None
            return
        level: list = list(self._leaves)
        while len(level) > self.fanout:
            parents = []
            for start in range(0, len(level), self.fanout):
                group = level[start : start + self.fanout]
                low = np.min([g.low for g in group], axis=0)
                high = np.max([g.high for g in group], axis=0)
                parents.append(_RNode(low=low, high=high, children=group))
            level = parents
        self.root = _RNode(
            low=np.min([g.low for g in level], axis=0),
            high=np.max([g.high for g in level], axis=0),
            children=level,
        )

    # ------------------------------------------------------------------
    def _read_leaf(self, leaf: _RLeaf) -> np.ndarray:
        data = self._leaf_file.read_stream(leaf.start_page, leaf.n_pages)
        return np.frombuffer(
            data[: leaf.count * self.record_dtype.itemsize],
            dtype=self.record_dtype,
        )

    def _leaf_distances(
        self, query, leaf, best_so_far: float = float("inf")
    ) -> tuple[np.ndarray, np.ndarray]:
        records = self._read_leaf(leaf)
        if self.is_materialized:
            series = records["series"].astype(np.float64)
        else:
            series = self.raw.get_many(records["off"])
        # The branch-and-bound search passes its evolving bsf: rows the
        # kernel abandons (``inf``) lose the argmin update anyway.
        distances = early_abandon_euclidean_block(query, series, best_so_far)
        return distances, records["off"].astype(np.int64)

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        """Greedy descent to the closest leaf MBR."""
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            result = self._seed(query)
        return measure.stamp(result)

    def _seed(self, query: np.ndarray) -> QueryResult:
        """The approximate answer, unmeasured, for a query already
        checked: the probe that seeds an exact search."""
        best_idx, best_dist, visited = -1, float("inf"), 0
        if self.root is not None:
            query_paa = paa(query, self.n_dimensions)[0]
            node = self.root
            while isinstance(node, _RNode):
                node = min(
                    node.children,
                    key=lambda c: _mbr_mindist(
                        query_paa, c.low, c.high, self.segment_size
                    ),
                )
            distances, offsets = self._leaf_distances(query, node)
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
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            seed = self._seed(query)
            bsf, answer = seed.distance, seed.answer_idx
            visited, leaves_read = seed.visited_records, seed.visited_leaves
            if self.root is not None:
                query_paa = paa(query, self.n_dimensions)[0]
                counter = 0
                heap = [
                    (
                        _mbr_mindist(
                            query_paa, self.root.low, self.root.high,
                            self.segment_size,
                        ),
                        counter,
                        self.root,
                    )
                ]
                while heap:
                    bound, _, node = heapq.heappop(heap)
                    if bound >= bsf:
                        break
                    if isinstance(node, _RNode):
                        for child in node.children:
                            counter += 1
                            heapq.heappush(
                                heap,
                                (
                                    _mbr_mindist(
                                        query_paa, child.low, child.high,
                                        self.segment_size,
                                    ),
                                    counter,
                                    child,
                                ),
                            )
                        continue
                    distances, offsets = self._leaf_distances(
                        query, node, best_so_far=bsf
                    )
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

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        return self._leaf_file.size_bytes if self._leaves else 0

    def leaf_stats(self) -> tuple[int, float]:
        if not self._leaves:
            return 0, 0.0
        fills = [leaf.count / self.leaf_size for leaf in self._leaves]
        return len(self._leaves), float(np.mean(fills))
