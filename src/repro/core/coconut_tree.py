"""Coconut-Tree: bottom-up bulk-loaded, balanced data series index.

The paper's flagship index (Algorithm 3).  Series are summarized to
sortable invSAX keys, externally sorted, and the leaf level is written
in one sequential pass — the UB-tree bulk-loading recipe.  Because
splitting is by rank (median) rather than by shared prefix, every leaf
is packed to the configured fill factor, the tree is balanced, and the
whole leaf level is physically contiguous: queries read neighboring
leaves with streaming I/O instead of seeks.

Everything but the split policy — the summarize and sort stages, the
summary column and its sidecar, the approximate probe (Algorithm 4) —
is :class:`repro.core.bulk_index.BulkLoadedIndex`, shared with
Coconut-Trie; the query entry points, SIMS exact search (Algorithm 5)
included, are :class:`repro.core.sims.SIMSIndex`'s.  What rank-based
splitting adds is here: fixed-size leaf slots packed to a fill factor,
a probe radius wider than one leaf (the neighbors are adjacent on
disk), and updates.

Two variants, as in the paper:

* ``materialized=False`` — Coconut-Tree (CTree): leaves store (key,
  offset) pairs pointing into the raw file (a secondary index).
* ``materialized=True`` — Coconut-Tree-Full (CTreeFull): leaves store
  the series themselves alongside the keys.

Batch insertion merges sorted batches into the leaf level (Fig. 10a):
large batches amortize to near-bulk-load cost, tiny batches degrade
toward per-leaf random I/O — the crossover the paper reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..indexes.base import BuildReport, Measurement, QueryResult
from ..storage.disk import SimulatedDisk
from ..summaries.sax import SAXConfig
from .bulk_index import BulkLoadedIndex, payload_dtype
from .invsax import invsax_keys, key_bytes
from .summary_column import row_dtype


def _leaf_radius(value, name: str) -> int:
    """A probe radius in leaves: an integer >= 0 (0 = the default),
    never a ``bool``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 0
    ):
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


@dataclass
class _Leaf:
    """Directory entry for one leaf, kept in key order."""

    slot: int  # physical leaf slot in the leaf file
    count: int
    first_key: bytes


class CoconutTree(BulkLoadedIndex):
    """Balanced bulk-loaded index over sortable summarizations."""

    name = "Coconut-Tree"

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None = None,
        leaf_size: int = 100,
        fill_factor: float = 1.0,
        materialized: bool = False,
        default_radius: int = 1,
        fanout: int = 32,
    ):
        super().__init__(disk, memory_bytes, config, leaf_size, materialized)
        if not 0.5 <= fill_factor <= 1.0:
            raise ValueError(
                f"fill_factor must be in [0.5, 1.0], got {fill_factor}"
            )
        self.fill_factor = fill_factor
        self.default_radius = max(1, _leaf_radius(default_radius, "default_radius"))
        self.fanout = max(2, fanout)

    # ------------------------------------------------------------------
    # Geometry: fixed-size slots, so leaf ``slot`` starts at a known page
    # ------------------------------------------------------------------
    @property
    def record_dtype(self) -> np.dtype:
        raw = self._require_built() if self.built else self.raw
        length = raw.length if raw is not None else self.config.series_length
        return row_dtype(self.config, length if self.is_materialized else None)

    @property
    def pages_per_leaf(self) -> int:
        return max(
            1,
            -(-self.leaf_size * self.record_dtype.itemsize // self.disk.page_size),
        )

    @property
    def target_leaf_records(self) -> int:
        return max(1, int(self.leaf_size * self.fill_factor))

    @property
    def height(self) -> int:
        """Levels above the leaves of the (balanced) directory."""
        n = max(1, len(self._leaves))
        return max(1, math.ceil(math.log(n, self.fanout))) if n > 1 else 1

    # ------------------------------------------------------------------
    # Construction (Algorithm 3): split by rank
    # ------------------------------------------------------------------
    def _reserve_leaf_file(self, n_series: int) -> None:
        """The whole leaf level in one allocation: physically contiguous."""
        n_leaves_estimate = max(1, -(-n_series // self.target_leaf_records))
        self._leaf_file.grow(n_leaves_estimate * self.pages_per_leaf)

    def _build_extra(self) -> dict:
        return {"height": self.height}

    def _bulk_load(self, sorted_chunks, rec: np.dtype) -> None:
        """Pack the sorted stream into leaves at the target fill factor.

        Full leaves are sliced out of each chunk by offset and only the
        sub-leaf tail is carried into the next chunk, so the bytes
        copied are linear in the stream whatever its chunking.
        """
        target = self.target_leaf_records
        key_parts: list[np.ndarray] = []
        offset_parts: list[np.ndarray] = []
        tail_keys: list[np.ndarray] = []
        tail_payloads: list[np.ndarray] = []
        carried = 0
        for keys, payloads in sorted_chunks:
            key_parts.append(keys)
            # A copy: a field view would pin the chunk's series in memory.
            offset_parts.append(payloads["off"].astype(np.int64))
            at = 0
            if carried:
                at = min(target - carried, len(keys))
                tail_keys.append(keys[:at])
                tail_payloads.append(payloads[:at])
                carried += at
                if carried < target:
                    continue
                self._emit_leaf(
                    np.concatenate(tail_keys), np.concatenate(tail_payloads), rec
                )
            end = at + (len(keys) - at) // target * target
            for lo in range(at, end, target):
                self._emit_leaf(
                    keys[lo : lo + target], payloads[lo : lo + target], rec
                )
            tail_keys, tail_payloads = [keys[end:]], [payloads[end:]]
            carried = len(keys) - end
        if carried:
            self._emit_leaf(
                np.concatenate(tail_keys), np.concatenate(tail_payloads), rec
            )
        self._set_summary_column(key_parts, offset_parts)

    def _emit_leaf(
        self, keys: np.ndarray, payloads: np.ndarray, rec: np.dtype
    ) -> None:
        slot = len(self._leaves)
        needed = (slot + 1) * self.pages_per_leaf
        if needed > self._leaf_file.n_pages:
            self._leaf_file.grow(needed - self._leaf_file.n_pages)
        records = self._pack_leaf(keys, payloads, rec)
        self._leaves.append(self._store_leaf(slot, records))

    def _store_leaf(self, slot: int, records: np.ndarray) -> _Leaf:
        self._leaf_file.write_stream(
            records.tobytes(), at_page=slot * self.pages_per_leaf
        )
        return _Leaf(slot, len(records), key_bytes(records["k"][0], self.config))

    def _read_leaf_records(self, leaf: _Leaf) -> np.ndarray:
        n_bytes = leaf.count * self._leaf_dtype.itemsize
        n_pages = max(1, -(-n_bytes // self.disk.page_size))
        data = self._leaf_file.read_stream(
            leaf.slot * self.pages_per_leaf, n_pages
        )
        return np.frombuffer(data[:n_bytes], dtype=self._leaf_dtype)

    # ------------------------------------------------------------------
    # Search: neighboring leaves are adjacent, so the probe may widen
    # ------------------------------------------------------------------
    def _radius(self, radius_leaves=None) -> int:
        """The radius a caller asked for; ``None``/``0`` = the default."""
        if radius_leaves is None:
            return self.default_radius
        return _leaf_radius(radius_leaves, "radius_leaves") or self.default_radius

    def _probe_args(self, radius_leaves=None) -> tuple:
        """A one-query call's probe argument: its radius, checked."""
        return (self._radius(radius_leaves),)

    def approximate_search(
        self, query: np.ndarray, radius_leaves: int | None = None
    ) -> QueryResult:
        """Algorithm 4 over ``radius_leaves`` leaves (default: the
        constructor's ``default_radius``)."""
        return super().approximate_search(query, radius_leaves)

    def exact_search(
        self, query: np.ndarray, radius_leaves: int | None = None
    ) -> QueryResult:
        """Algorithm 5, seeded by a probe of ``radius_leaves`` leaves."""
        return super().exact_search(query, radius_leaves)

    def exact_knn(
        self, query: np.ndarray, k: int, radius_leaves: int | None = None
    ):
        """Exact k nearest neighbors; the probe, and so ``radius_leaves``,
        runs only at ``k = 1``, but a bad radius is refused at every ``k``
        before anything is read."""
        return super().exact_knn(query, k, radius_leaves)

    # ------------------------------------------------------------------
    # Updates (Fig. 10a)
    # ------------------------------------------------------------------
    def insert_batch(self, data: np.ndarray) -> BuildReport:
        raw = self._require_built()
        data = np.asarray(data, dtype=np.float32)
        with Measurement(self.disk) as measure:
            first_idx = raw.append_batch(data)
            keys = invsax_keys(data, self.config)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            offsets = (first_idx + order).astype(np.int64)
            series = data[order] if self.is_materialized else None
            self._merge_into_leaves(keys, offsets, series)
            self._summaries_dirty = True
            self._summaries_loaded = False
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

    def _merge_into_leaves(
        self,
        keys: np.ndarray,
        offsets: np.ndarray,
        series: np.ndarray | None,
    ) -> None:
        rec = self.record_dtype
        if not self._leaves:
            payloads = np.zeros(
                len(keys), dtype=payload_dtype(self.raw.length, self.is_materialized)
            )
            payloads["off"] = offsets
            if self.is_materialized:
                payloads["series"] = series
            self._bulk_load(iter([(keys, payloads)]), rec)
            return
        probes = keys.astype(self.config.key_dtype)
        targets = np.maximum(
            np.searchsorted(self._first_keys, probes, side="right") - 1, 0
        )
        starts = self._leaf_starts
        new_leaves: list[_Leaf] = []
        # The in-memory summary column must mirror the on-disk record
        # order: untouched leaves keep their slice, merged ones (split
        # or not, their records stay contiguous) contribute theirs.
        key_parts: list[np.ndarray] = []
        offset_parts: list[np.ndarray] = []
        for i, leaf in enumerate(self._leaves):
            mask = targets == i
            if not mask.any():
                new_leaves.append(leaf)
                key_parts.append(self._column.keys[starts[i] : starts[i + 1]])
                offset_parts.append(
                    self._column.offsets[starts[i] : starts[i + 1]]
                )
                continue
            existing = self._read_leaf_records(leaf)
            merged = np.zeros(leaf.count + int(mask.sum()), dtype=rec)
            merged[: leaf.count] = existing
            merged["k"][leaf.count :] = keys[mask]
            merged["off"][leaf.count :] = offsets[mask]
            if self.is_materialized:
                merged["series"][leaf.count :] = series[mask]
            merged = merged[np.argsort(merged["k"], kind="stable")]
            new_leaves.extend(self._split_and_store(leaf, merged))
            # Copies: field views would pin the merged series in memory.
            key_parts.append(np.ascontiguousarray(merged["k"]))
            offset_parts.append(merged["off"].astype(np.int64))
        self._leaves = new_leaves
        self._set_summary_column(key_parts, offset_parts)

    def _split_and_store(self, leaf: _Leaf, merged: np.ndarray) -> list[_Leaf]:
        """Write a merged leaf back, median-splitting while oversized."""
        leaves = []
        # Median split (Sec. 3.2): divide into the fewest leaves that
        # fit, each at least half full — never a full leaf plus a
        # near-empty remainder.
        n_chunks = -(-len(merged) // self.leaf_size)
        base, remainder = divmod(len(merged), n_chunks)
        at = 0
        for j in range(n_chunks):
            chunk = merged[at : at + base + (1 if j < remainder else 0)]
            at += len(chunk)
            if j == 0:
                slot = leaf.slot
            else:
                slot = self._leaf_file.n_pages // self.pages_per_leaf
                self._leaf_file.grow(self.pages_per_leaf)
            leaves.append(self._store_leaf(slot, chunk))
        return leaves
