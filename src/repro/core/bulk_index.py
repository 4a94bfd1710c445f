"""Bottom-up bulk loading: everything Coconut-Trie and Coconut-Tree share.

The paper's two indexes are one design with one decision left open.
Both summarize the raw file to sortable invSAX keys, sort them
externally and write the leaf level in one sequential pass (Algorithms
2 and 3); both answer approximate queries by reading the leaves around
the query key's position (Algorithm 4) and exact queries by scanning
the in-memory summary column aligned to that leaf order (Algorithm 5).
They differ only in *where a leaf ends* — at a shared key prefix
(Coconut-Trie) or at a rank (Coconut-Tree) — and hence in how a leaf
maps to pages.  :class:`BulkLoadedIndex` owns the common stages; a
subclass supplies ``_bulk_load`` (its split policy), ``_read_leaf_records``
(its leaf geometry) and whatever only its policy makes possible.

A build runs on the calling thread, the paper's way: one summarize
pass over the raw file, an external sort whose runs fit the memory
budget, then one sequential pass that writes the leaf level.
"""

from __future__ import annotations

import numpy as np

from ..indexes.base import BuildReport, Measurement, QueryResult
from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.external_sort import ExternalSorter
from ..storage.pager import PagedFile
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig
from .invsax import invsax_keys, query_key
from .sims import SIMSIndex
from .summary_column import SummaryColumn, row_dtype, window_around


def payload_dtype(length: int, materialized: bool) -> np.dtype:
    """Rows carried through the external sort: offset [+ the series].

    One definition shared by the summarize pass and leaf merging.
    """
    if materialized:
        return np.dtype([("off", "<i8"), ("series", "<f4", (length,))])
    return np.dtype([("off", "<i8")])


class BulkLoadedIndex(SIMSIndex):
    """Summarize, sort, pack leaves in one pass; probe and scan them.

    ``_leaves`` is the directory in key order — entries carry at least
    ``count`` and ``first_key`` — and ``_column`` the summary column of
    the same records in the same order.  Both change together, through
    :meth:`_set_summary_column`.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None,
        leaf_size: int,
        materialized: bool,
    ):
        super().__init__(disk, memory_bytes)
        if leaf_size <= 0:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self.config = config or SAXConfig()
        self.leaf_size = leaf_size
        self.is_materialized = materialized
        if materialized:
            self.name = f"{self.name}-Full"
        self._leaves: list = []
        self._first_keys: np.ndarray | None = None
        self._leaf_starts: np.ndarray | None = None
        self._column: SummaryColumn | None = None
        self._summaries_loaded = False
        self._summaries_dirty = False

    # ------------------------------------------------------------------
    # Construction (the stages Algorithms 2 and 3 share)
    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        with Measurement(self.disk) as measure:
            # A leaf record: the (key, offset) row [+ the series].
            rec = row_dtype(
                self.config, raw.length if self.is_materialized else None
            )
            self._leaf_dtype = rec
            sorter = ExternalSorter(self.disk, self.memory_bytes)
            keys, payloads = self._summarize(raw)
            self._leaf_file = PagedFile(self.disk, name=f"{self.name}-leaves")
            # The sorter spills as soon as it is called, so whatever the
            # split policy preallocates must be on the disk before it.
            self._reserve_leaf_file(raw.n_series)
            self._bulk_load(sorter.sort(keys, payloads), rec)
            self._write_sidecar()
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
            extra={"sort_runs": sorter.report.n_runs, **self._build_extra()},
        )

    def _summarize(self, raw: RawSeriesFile):
        """One pass over the raw file: ``(keys, payloads)`` in file order."""
        pay_dtype = payload_dtype(raw.length, self.is_materialized)
        # The typed empty heads keep an empty file's arrays well-formed.
        key_parts = [np.empty(0, dtype=self.config.key_dtype)]
        payload_parts = [np.empty(0, dtype=pay_dtype)]
        for start, block in raw.scan():
            key_parts.append(invsax_keys(block, self.config))
            payload = np.zeros(len(block), dtype=pay_dtype)
            payload["off"] = np.arange(start, start + len(block))
            if self.is_materialized:
                payload["series"] = block
            payload_parts.append(payload)
        return np.concatenate(key_parts), np.concatenate(payload_parts)

    def _reserve_leaf_file(self, n_series: int) -> None:
        """Preallocate leaf pages before the sort starts (default: none)."""

    def _bulk_load(self, sorted_chunks, rec: np.dtype) -> None:
        """The split policy: cut the sorted ``(keys, payloads)`` stream
        into leaves, write them, and end in :meth:`_set_summary_column`.
        (``_build_extra()`` adds its entries to the build report.)"""
        raise NotImplementedError

    def _pack_leaf(
        self, keys: np.ndarray, payloads: np.ndarray, rec: np.dtype
    ) -> np.ndarray:
        """The on-disk records of one leaf."""
        records = np.zeros(len(keys), dtype=rec)
        records["k"] = keys
        records["off"] = payloads["off"]
        if self.is_materialized:
            records["series"] = payloads["series"]
        return records

    def _set_summary_column(
        self, key_parts: list[np.ndarray], offset_parts: list[np.ndarray]
    ) -> None:
        """Adopt the keys and offsets of ``_leaves``, in directory order.

        The one place the directory and the column are (re)derived, so
        they cannot disagree: the column mirrors the leaf file's record
        order and ``_leaf_starts[i]`` is the column row of leaf ``i``'s
        first record.
        """
        self._column = SummaryColumn(self.config, key_parts, offset_parts)
        self._first_keys = np.array(
            [leaf.first_key for leaf in self._leaves],
            dtype=self.config.key_dtype,
        )
        self._leaf_starts = np.cumsum([0] + [leaf.count for leaf in self._leaves])
        if len(self._column) != self._leaf_starts[-1]:
            raise RuntimeError(
                f"{self.name}: summary column holds {len(self._column)} "
                f"records, the leaf directory {self._leaf_starts[-1]}"
            )

    def _write_sidecar(self) -> None:
        """Persist the summary column (keys + offsets, leaf-aligned).

        SIMS loads this file on first use; it is orders of magnitude
        smaller than the data, which is what makes the in-memory
        summary scan of Algorithm 5 feasible.
        """
        self._sidecar = PagedFile(self.disk, name=f"{self.name}-summaries")
        if len(self._column):
            self._sidecar.write_stream(self._column.packed())
        self._summaries_loaded = False

    def _ensure_summaries(self) -> None:
        """Load (or refresh) the summary column, charging its I/O."""
        if self._summaries_dirty:
            self._write_sidecar()
            self._summaries_dirty = False
        if self._summaries_loaded:
            return
        if self._sidecar.n_pages:
            # One sequential pass over the summary column.
            self._sidecar.read_stream(0, self._sidecar.n_pages)
        self._summaries_loaded = True

    # ------------------------------------------------------------------
    # Approximate search (Algorithm 4)
    # ------------------------------------------------------------------
    def _locate_leaf(self, key: bytes) -> int:
        probe = np.array([key], dtype=self.config.key_dtype)
        position = int(np.searchsorted(self._first_keys, probe, side="right")[0])
        return max(0, position - 1)

    def _radius(self, radius_leaves=None) -> int:
        """Leaves a probe reads around its target: the most promising
        one, unless the split policy lets a caller ask for more."""
        return 1

    def _seed(self, query: np.ndarray, radius_leaves=None) -> QueryResult:
        """Algorithm 4, unmeasured, for a query already checked: inspect
        the query's would-be position ± a radius of leaves.

        The target leaf (plus ``radius - 1`` physically adjacent
        leaves, which are sequential on disk) is read.  A materialized
        index evaluates everything it just read — the series are right
        there.  A secondary index additionally has to visit the raw
        file, so it fetches only the records closest in z-order to the
        query's insertion point, about one raw-file page per radius
        step ("usually a disk page", Sec. 4.3).
        """
        radius = self._radius(radius_leaves)
        key = query_key(query, self.config)
        return self._probe_result(
            self._probe(query, key, self._locate_leaf(key), radius)
        )

    def _probe(
        self,
        query: np.ndarray,
        key: bytes,
        target: int,
        radius: int,
        read_leaf=None,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """One probe: (candidate identifiers, their distances, leaves read).

        ``read_leaf(i)`` overrides how directory entry ``i`` is read —
        the batched approximate path passes a caching reader so queries
        landing in the same leaves share each read.
        """
        lo = max(0, target - (radius - 1) // 2)
        hi = min(len(self._leaves), lo + radius)
        lo = max(0, hi - radius)
        read_leaf = read_leaf or self._read_leaf
        parts = [read_leaf(i) for i in range(lo, hi)]
        parts = [records for records in parts if len(records)]
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0), hi - lo
        records = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if self.is_materialized:
            series = records["series"].astype(np.float64)
        else:
            window = max(4, self.raw.series_per_page) * radius
            start, stop = window_around(records["k"], key, window, self.config)
            records = records[start:stop]
            series = self.raw.get_many(records["off"])
        identifiers = records["off"].astype(np.int64)
        # No running bound at the approximate probe.
        distances = early_abandon_euclidean_block(query, series, float("inf"))
        return identifiers, distances, hi - lo

    @staticmethod
    def _probe_result(probe) -> QueryResult:
        """The best candidate of a probe, as the approximate answer."""
        identifiers, distances, n_leaves = probe
        best_idx, best_dist = -1, float("inf")
        if len(identifiers):
            best = int(np.argmin(distances))
            best_idx, best_dist = int(identifiers[best]), float(distances[best])
        return QueryResult(best_idx, best_dist, len(identifiers), n_leaves)

    def _read_leaf(self, i: int) -> np.ndarray:
        return self._read_leaf_records(self._leaves[i])

    def _approximate_batch(self, queries: np.ndarray) -> list[QueryResult]:
        """:meth:`_seed`'s answers for a checked batch at the default
        radius, unmeasured, in batch order, each distinct leaf read once.

        The queries are visited in ascending target leaf (a stable
        sort), so the shared reads walk the leaf file forward, through
        one per-batch leaf cache.  A query's answer never depends on
        the cache; only the I/O charge does.
        """
        keys = [query_key(query, self.config) for query in queries]
        targets = [self._locate_leaf(key) for key in keys]
        cache: dict[int, np.ndarray] = {}

        def read_leaf(i: int) -> np.ndarray:
            records = cache.get(i)
            if records is None:
                records = cache[i] = self._read_leaf(i)
            return records

        order = np.argsort(np.array(targets, dtype=np.int64), kind="stable")
        results: list = [None] * len(queries)
        for qi in order.tolist():
            probe = self._probe(
                queries[qi], keys[qi], targets[qi], self._radius(),
                read_leaf=read_leaf,
            )
            results[qi] = self._probe_result(probe)
        return results

    # ------------------------------------------------------------------
    # The SIMS pair (Algorithm 5's inputs)
    # ------------------------------------------------------------------
    def _prepare_sims(self):
        """(column, fetch): the loaded summary column and its fetch —
        raw pages, or the leaves when materialized."""
        self._ensure_summaries()
        if not self.is_materialized:
            return self._column, self._column.raw_fetch(self.raw)
        return self._column, self._fetch_from_leaves

    def _fetch_from_leaves(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read the leaves containing ``positions``, forward-only."""
        leaf_ids = np.searchsorted(self._leaf_starts, positions, side="right") - 1
        series = np.empty((len(positions), self.raw.length), dtype=np.float64)
        offsets = np.empty(len(positions), dtype=np.int64)
        for leaf_id in np.unique(leaf_ids):
            records = self._read_leaf_records(self._leaves[int(leaf_id)])
            mask = leaf_ids == leaf_id
            local = positions[mask] - self._leaf_starts[leaf_id]
            series[mask] = records["series"][local]
            offsets[mask] = records["off"][local]
        return series, offsets

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        if not self._leaves:
            return 0
        return self._leaf_file.size_bytes + self._sidecar.size_bytes

    def leaf_stats(self) -> tuple[int, float]:
        if not self._leaves:
            return 0, 0.0
        fills = [leaf.count / self.leaf_size for leaf in self._leaves]
        return len(self._leaves), float(np.mean(fills))
