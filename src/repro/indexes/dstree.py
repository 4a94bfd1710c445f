"""DSTree: data-adaptive segmentation tree (Wang et al., PVLDB 2013).

A materialized baseline built by inserting series one at a time,
top-down.  Every node carries an *adaptive* segmentation and an EAPCA
synopsis (per-segment min/max of mean and standard deviation over the
resident series), which yields tight lower bounds for pruning.

Splits are data-adaptive: the node picks the segment and statistic
(mean or std) whose resident values spread the most, thresholding at
the midpoint ("horizontal" split); periodically a segment is first
subdivided ("vertical" split) so descendants summarize at finer
granularity.  Construction is the slowest of all baselines — the
behaviour the paper reports (">24 hours in most cases") — because
every leaf overflow re-reads and rewrites scattered leaf pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..series.distance import euclidean_batch
from ..storage.disk import SimulatedDisk
from ..storage.seriesfile import RawSeriesFile
from ..summaries.eapca import eapca, node_lower_bound
from .base import BuildReport, Measurement, QueryResult, SeriesIndex


@dataclass
class _Node:
    boundaries: np.ndarray
    depth: int = 0
    # Synopsis over resident series (leaf) or subtree (internal).
    mean_min: np.ndarray | None = None
    mean_max: np.ndarray | None = None
    std_min: np.ndarray | None = None
    std_max: np.ndarray | None = None
    count: int = 0
    # Leaf storage.
    first_page: int = -1
    n_pages: int = 0
    on_disk: int = 0
    buffer_offsets: list[int] = field(default_factory=list)
    buffer_series: list[np.ndarray] = field(default_factory=list)
    # Internal routing.
    split_segment: int = -1
    split_on_std: bool = False
    threshold: float = 0.0
    children: list["_Node"] | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def buffered(self) -> int:
        return len(self.buffer_offsets)

    @property
    def total(self) -> int:
        return self.on_disk + self.buffered

    def update_synopsis(self, means: np.ndarray, stds: np.ndarray) -> None:
        if self.mean_min is None:
            self.mean_min = means.copy()
            self.mean_max = means.copy()
            self.std_min = stds.copy()
            self.std_max = stds.copy()
        else:
            np.minimum(self.mean_min, means, out=self.mean_min)
            np.maximum(self.mean_max, means, out=self.mean_max)
            np.minimum(self.std_min, stds, out=self.std_min)
            np.maximum(self.std_max, stds, out=self.std_max)
        self.count += 1

    def lower_bound(self, query: np.ndarray) -> float:
        if self.mean_min is None:
            return float("inf")
        return node_lower_bound(
            query,
            self.boundaries,
            self.mean_min,
            self.mean_max,
            self.std_min,
            self.std_max,
        )


class DSTree(SeriesIndex):
    """Top-down EAPCA segmentation tree (materialized)."""

    name = "DSTree"
    is_materialized = True

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        leaf_size: int = 100,
        initial_segments: int = 4,
        vertical_split_every: int = 2,
    ):
        super().__init__(disk, memory_bytes)
        self.leaf_size = leaf_size
        self.initial_segments = initial_segments
        self.vertical_split_every = max(1, vertical_split_every)
        self.root: _Node | None = None
        self.buffered_records = 0
        self.dead_pages = 0
        self.n_splits = 0
        self._record_dtype: np.dtype | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        self._record_dtype = np.dtype(
            [("off", "<i8"), ("series", "<f4", (raw.length,))]
        )
        boundaries = (
            np.arange(self.initial_segments + 1) * raw.length
        ) // self.initial_segments
        self.root = _Node(boundaries=boundaries.astype(np.int64))
        with Measurement(self.disk) as measure:
            for start, block in raw.scan():
                for i in range(len(block)):
                    self._insert(block[i], start + i)
            self._flush_all()
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
            extra={"splits": self.n_splits},
        )

    def _route_stat(self, node: _Node, series: np.ndarray) -> float:
        means, stds = eapca(series[None, :], node.boundaries)
        value = (stds if node.split_on_std else means)[0, node.split_segment]
        return float(value)

    def _insert(self, series: np.ndarray, offset: int) -> None:
        node = self.root
        while True:
            means, stds = eapca(series[None, :], node.boundaries)
            node.update_synopsis(means[0], stds[0])
            if node.is_leaf:
                break
            value = (stds if node.split_on_std else means)[0, node.split_segment]
            node = node.children[0 if value <= node.threshold else 1]
        node.buffer_offsets.append(int(offset))
        node.buffer_series.append(np.asarray(series, dtype=np.float32))
        self.buffered_records += 1
        if self.buffered_records * self._record_dtype.itemsize > self.memory_bytes:
            self._flush_all()
        if node.total > self.leaf_size:
            self._split_leaf(node)

    def _flush_all(self) -> None:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.buffered:
                    self._flush_leaf(node)
            else:
                stack.extend(node.children)
        self.buffered_records = 0

    def _leaf_records(self, leaf: _Node) -> np.ndarray:
        existing = np.empty(0, dtype=self._record_dtype)
        if leaf.on_disk and leaf.first_page >= 0:
            # One bulk run read (zero-copy on arena stores); counters
            # are bit-identical to the per-page loop it replaces.
            raw_bytes = self.disk.read_run_bytes(leaf.first_page, leaf.n_pages)
            existing = np.frombuffer(
                raw_bytes[: leaf.on_disk * self._record_dtype.itemsize],
                dtype=self._record_dtype,
            )
        merged = np.zeros(leaf.total, dtype=self._record_dtype)
        merged[: leaf.on_disk] = existing
        if leaf.buffered:
            merged["off"][leaf.on_disk :] = leaf.buffer_offsets
            merged["series"][leaf.on_disk :] = np.vstack(leaf.buffer_series)
        return merged

    def _write_leaf(self, leaf: _Node, records: np.ndarray) -> None:
        data = records.tobytes()
        needed = max(1, -(-len(data) // self.disk.page_size))
        if needed > leaf.n_pages:
            if leaf.first_page >= 0:
                self.dead_pages += leaf.n_pages
            leaf.first_page = self.disk.allocate(needed)
            leaf.n_pages = needed
        for i in range(needed):
            self.disk.write_page(
                leaf.first_page + i,
                data[i * self.disk.page_size : (i + 1) * self.disk.page_size],
            )
        leaf.on_disk = len(records)

    def _flush_leaf(self, leaf: _Node) -> None:
        records = self._leaf_records(leaf)
        leaf.buffer_offsets.clear()
        leaf.buffer_series.clear()
        self._write_leaf(leaf, records)

    def _choose_split(
        self, node: _Node, means: np.ndarray, stds: np.ndarray
    ) -> tuple[int, bool, float]:
        """Pick the (segment, statistic) with the widest spread."""
        sizes = np.diff(node.boundaries).astype(np.float64)
        mean_spread = (means.max(axis=0) - means.min(axis=0)) * np.sqrt(sizes)
        std_spread = (stds.max(axis=0) - stds.min(axis=0)) * np.sqrt(sizes)
        if mean_spread.max() >= std_spread.max():
            segment = int(np.argmax(mean_spread))
            column = means[:, segment]
            return segment, False, float(np.median(column))
        segment = int(np.argmax(std_spread))
        column = stds[:, segment]
        return segment, True, float(np.median(column))

    def _split_leaf(self, leaf: _Node) -> None:
        records = self._leaf_records(leaf)
        self.buffered_records = max(0, self.buffered_records - leaf.buffered)
        leaf.buffer_offsets.clear()
        leaf.buffer_series.clear()
        if leaf.first_page >= 0:
            self.dead_pages += leaf.n_pages
            leaf.first_page, leaf.n_pages, leaf.on_disk = -1, 0, 0
        boundaries = leaf.boundaries
        # Vertical split: refine the longest segment periodically.
        if leaf.depth % self.vertical_split_every == 1:
            sizes = np.diff(boundaries)
            widest = int(np.argmax(sizes))
            if sizes[widest] >= 4:
                middle = (boundaries[widest] + boundaries[widest + 1]) // 2
                boundaries = np.insert(boundaries, widest + 1, middle)
        series = records["series"].astype(np.float64)
        means, stds = eapca(series, boundaries)
        segment, on_std, threshold = self._choose_split(
            _Node(boundaries=boundaries), means, stds
        )
        column = (stds if on_std else means)[:, segment]
        left_mask = column <= threshold
        if left_mask.all() or not left_mask.any():
            # Degenerate spread: rewrite as an overflow leaf.
            self._write_leaf(leaf, records)
            return
        self.n_splits += 1
        leaf.split_segment = segment
        leaf.split_on_std = on_std
        leaf.threshold = threshold
        leaf.boundaries = boundaries
        # The synopsis was accumulated under the pre-refinement
        # segmentation; rebuild it under the node's new boundaries so
        # lower bounds stay valid.
        leaf.mean_min = means.min(axis=0)
        leaf.mean_max = means.max(axis=0)
        leaf.std_min = stds.min(axis=0)
        leaf.std_max = stds.max(axis=0)
        leaf.children = []
        for mask in (left_mask, ~left_mask):
            child = _Node(boundaries=boundaries, depth=leaf.depth + 1)
            child_means, child_stds = eapca(series[mask], boundaries)
            for m, s in zip(child_means, child_stds):
                child.update_synopsis(m, s)
            self._write_leaf(child, records[mask])
            leaf.children.append(child)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _leaf_for(self, query: np.ndarray) -> _Node:
        node = self.root
        while not node.is_leaf:
            value = self._route_stat(node, query)
            node = node.children[0 if value <= node.threshold else 1]
        return node

    def _leaf_distances(self, query, leaf) -> tuple[np.ndarray, np.ndarray]:
        records = self._leaf_records(leaf)
        if len(records) == 0:
            return np.empty(0), np.empty(0, dtype=np.int64)
        distances = euclidean_batch(query, records["series"].astype(np.float64))
        return distances, records["off"].astype(np.int64)

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            result = self._seed(query)
        return measure.stamp(result)

    def _seed(self, query: np.ndarray) -> QueryResult:
        """The approximate answer, unmeasured, for a query already
        checked: the probe that seeds an exact search."""
        leaf = self._leaf_for(query)
        best_idx, best_dist, visited = -1, float("inf"), 0
        if leaf.total:
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
        import heapq

        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            seed = self._seed(query)
            bsf, answer = seed.distance, seed.answer_idx
            visited, leaves_read = seed.visited_records, seed.visited_leaves
            counter = 0
            heap = [(self.root.lower_bound(query), counter, self.root)]
            while heap:
                bound, _, node = heapq.heappop(heap)
                if bound >= bsf:
                    break
                if not node.is_leaf:
                    for child in node.children:
                        counter += 1
                        heapq.heappush(
                            heap, (child.lower_bound(query), counter, child)
                        )
                    continue
                if not node.total:
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

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        live = 0
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                live += node.n_pages
            else:
                stack.extend(node.children)
        return (live + self.dead_pages) * self.disk.page_size

    def leaf_stats(self) -> tuple[int, float]:
        counts = []
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.total:
                    counts.append(node.total)
            else:
                stack.extend(node.children)
        if not counts:
            return 0, 0.0
        return len(counts), float(np.mean([c / self.leaf_size for c in counts]))
