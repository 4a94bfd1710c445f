"""Coconut-Tree: bottom-up bulk-loaded, balanced data series index.

The paper's flagship index (Algorithm 3).  Series are summarized to
sortable invSAX keys, externally sorted, and the leaf level is written
in one sequential pass — the UB-tree bulk-loading recipe.  Because
splitting is by rank (median) rather than by shared prefix, every leaf
is packed to the configured fill factor, the tree is balanced, and the
whole leaf level is physically contiguous: queries read neighboring
leaves with streaming I/O instead of seeks.

Two variants, as in the paper:

* ``materialized=False`` — Coconut-Tree (CTree): leaves store (key,
  offset) pairs pointing into the raw file (a secondary index).
* ``materialized=True`` — Coconut-Tree-Full (CTreeFull): leaves store
  the series themselves alongside the keys.

Approximate search (Algorithm 4) visits the leaf where the query's key
would reside plus a configurable radius of physically adjacent leaves.
Exact search (Algorithm 5, CoconutTreeSIMS) scans in-memory
summarizations aligned to the on-disk order and fetches unpruned
records skip-sequentially.

Batch insertion merges sorted batches into the leaf level (Fig. 10a):
large batches amortize to near-bulk-load cost, tiny batches degrade
toward per-leaf random I/O — the crossover the paper reports.

Parallel bulk-loading (``workers > 1``): the summarization scan fans
page-aligned chunks out to a worker pool
(:class:`repro.parallel.ParallelSummarizer`); each worker returns the
chunk's invSAX keys presorted, and the presorted runs feed
:meth:`repro.storage.ExternalSorter.sort_runs` — the partition phase of
the external sort runs on all cores.  The same worker count drives the
merge phase: resident runs are range-partitioned and merged on a pool
(:mod:`repro.parallel.merge`), and *spilled* runs merge the same
way on the sharded storage layer (:mod:`repro.parallel.spill`) — each
cascade group's key range is partitioned and every partition streams
its slices of the run files through a private
:class:`repro.storage.disk.DiskShard`, so ``workers=N`` parallelizes
partition, resident merge and the file-backed cascade alike.  The
resulting leaf level is bit-identical (same keys, same leaf
boundaries, same payload order) to the serial build for every worker
count and chunk size.
Batched queries (:meth:`query_batch`) share one SIMS summary scan and
every fetched page across the whole batch via
:func:`repro.parallel.batched_exact_knn`; batched approximate queries
share leaf reads via :func:`repro.parallel.approx_query_batch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..indexes.base import BuildReport, Measurement, QueryResult, SeriesIndex
from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.external_sort import ExternalSorter
from ..storage.pager import PagedFile
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig, sax_words
from .invsax import deinterleave_keys, interleave_words, query_key
from .sims import sims_scan


@dataclass
class _Leaf:
    """Directory entry for one leaf, kept in key order."""

    slot: int  # physical leaf slot in the leaf file
    count: int
    first_key: bytes


def _record_dtype(config: SAXConfig, length: int, materialized: bool) -> np.dtype:
    fields = [("k", config.key_dtype), ("off", "<i8")]
    if materialized:
        fields.append(("series", "<f4", (length,)))
    return np.dtype(fields)


def payload_dtype(length: int, materialized: bool) -> np.dtype:
    """Rows carried through the external sort: offset [+ the series].

    One definition shared by the serial scan, the parallel presorted
    runs and leaf merging — the layouts must match byte for byte for
    the parallel build to be bit-identical to the serial one.
    """
    if materialized:
        return np.dtype([("off", "<i8"), ("series", "<f4", (length,))])
    return np.dtype([("off", "<i8")])


class CoconutTree(SeriesIndex):
    """Balanced bulk-loaded index over sortable summarizations."""

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
        workers: int | None = 1,
        chunk_series: int | None = None,
        pool_kind: str = "thread",
    ):
        from ..parallel.pool import check_pool_kind, resolve_workers

        super().__init__(disk, memory_bytes)
        if not 0.5 <= fill_factor <= 1.0:
            raise ValueError(
                f"fill_factor must be in [0.5, 1.0], got {fill_factor}"
            )
        if leaf_size <= 0:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self.config = config or SAXConfig()
        self.leaf_size = leaf_size
        self.fill_factor = fill_factor
        self.is_materialized = materialized
        self.default_radius = max(1, default_radius)
        self.fanout = max(2, fanout)
        self.workers = resolve_workers(workers)
        self.chunk_series = chunk_series
        self.pool_kind = check_pool_kind(pool_kind)
        self.name = "Coconut-Tree-Full" if materialized else "Coconut-Tree"
        self._leaves: list[_Leaf] = []
        self._first_keys: np.ndarray | None = None
        self._summaries_loaded = False
        self._summaries_dirty = False
        # The summary column, flat and in on-disk (directory) order: the
        # sorted keys, the SAX words they convert to, their raw-file
        # offsets and the directory index of each record's leaf.
        self._keys: np.ndarray | None = None
        self._flat_words: np.ndarray | None = None
        self._flat_offsets: np.ndarray | None = None
        self._flat_leaf_of: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def record_dtype(self) -> np.dtype:
        raw = self._require_built() if self.built else self.raw
        length = raw.length if raw is not None else self.config.series_length
        return _record_dtype(self.config, length, self.is_materialized)

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
    # Construction (Algorithm 3)
    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        with Measurement(self.disk) as measure:
            rec = _record_dtype(self.config, raw.length, self.is_materialized)
            sorter = ExternalSorter(
                self.disk,
                self.memory_bytes,
                merge_workers=self.workers,
                pool_kind=self.pool_kind,
            )
            if self.workers > 1:
                runs = self._summarize_runs(raw)
            else:
                keys, payloads = self._summarize_scan(raw)
            n_leaves_estimate = max(
                1, -(-raw.n_series // self.target_leaf_records)
            )
            self._leaf_file = PagedFile(self.disk, name=f"{self.name}-leaves")
            self._leaf_file.grow(n_leaves_estimate * self.pages_per_leaf)
            self._sidecar = PagedFile(self.disk, name=f"{self.name}-summaries")
            self._record_itemsize = rec.itemsize
            sorted_stream = (
                sorter.sort_runs(runs)
                if self.workers > 1
                else sorter.sort(keys, payloads)
            )
            self._bulk_load(sorted_stream, rec)
            self._rebuild_directory()
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
            extra={"sort_runs": sorter.report.n_runs, "height": self.height},
        )

    def _summarize_scan(
        self, raw: RawSeriesFile
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pass over the raw file: sortable keys plus record payloads."""
        key_parts: list[np.ndarray] = []
        payload_parts: list[np.ndarray] = []
        pay_dtype = payload_dtype(raw.length, self.is_materialized)
        for start, block in raw.scan():
            words = sax_words(block, self.config)
            key_parts.append(interleave_words(words, self.config))
            payload = np.zeros(len(block), dtype=pay_dtype)
            payload["off"] = np.arange(start, start + len(block))
            if self.is_materialized:
                payload["series"] = block
            payload_parts.append(payload)
        if not key_parts:
            return (
                np.empty(0, dtype=self.config.key_dtype),
                np.empty(0, dtype=pay_dtype),
            )
        return np.concatenate(key_parts), np.concatenate(payload_parts)

    def _summarize_runs(
        self, raw: RawSeriesFile
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parallel variant of :meth:`_summarize_scan`: presorted runs."""
        from ..parallel.summarize import summarize_presorted_runs

        return summarize_presorted_runs(
            raw,
            self.config,
            self.is_materialized,
            workers=self.workers,
            chunk_size=self.chunk_series,
            kind=self.pool_kind,
        )

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
        records = np.zeros(len(keys), dtype=rec)
        records["k"] = keys
        records["off"] = payloads["off"]
        if self.is_materialized:
            records["series"] = payloads["series"]
        self._write_leaf_records(slot, records)
        first = bytes(keys[0]).ljust(self.config.key_bytes, b"\x00")
        self._leaves.append(_Leaf(slot=slot, count=len(keys), first_key=first))

    def _set_summary_column(
        self, key_parts: list[np.ndarray], offset_parts: list[np.ndarray]
    ) -> None:
        """Adopt the leaf-ordered keys and offsets; convert to words once."""
        # The typed empty head keeps an empty stream's column well-formed.
        self._keys = np.concatenate(
            [np.empty(0, dtype=self.config.key_dtype), *key_parts]
        )
        self._flat_offsets = np.concatenate(
            [np.empty(0, dtype=np.int64), *offset_parts]
        )
        self._flat_words = deinterleave_keys(self._keys, self.config)
        counts = np.array([leaf.count for leaf in self._leaves], dtype=np.intp)
        self._flat_leaf_of = np.repeat(np.arange(len(counts)), counts)

    def _write_leaf_records(self, slot: int, records: np.ndarray) -> None:
        self._leaf_file.write_stream(
            records.tobytes(), at_page=slot * self.pages_per_leaf
        )

    def _read_leaf_records(self, leaf: _Leaf, leaf_file=None) -> np.ndarray:
        file = self._leaf_file if leaf_file is None else leaf_file
        n_pages = max(
            1, -(-leaf.count * self._record_itemsize // self.disk.page_size)
        )
        data = file.read_stream(leaf.slot * self.pages_per_leaf, n_pages)
        return np.frombuffer(
            data[: leaf.count * self._record_itemsize], dtype=self.record_dtype
        )

    def _rebuild_directory(self) -> None:
        self._first_keys = np.array(
            [leaf.first_key for leaf in self._leaves],
            dtype=self.config.key_dtype,
        )

    def _write_sidecar(self) -> None:
        """Persist the summary column (keys + offsets, leaf-aligned).

        SIMS loads this file on first use; it is orders of magnitude
        smaller than the data, which is what makes the in-memory
        summary scan of Algorithm 5 feasible.
        """
        if not self._leaves:
            return
        dtype = np.dtype([("k", self.config.key_dtype), ("off", "<i8")])
        rows = np.zeros(len(self._keys), dtype=dtype)
        rows["k"] = self._keys
        rows["off"] = self._flat_offsets
        self._sidecar = PagedFile(self.disk, name=f"{self.name}-summaries")
        self._sidecar.write_stream(rows.tobytes())
        self._summaries_loaded = False

    # ------------------------------------------------------------------
    # Search (Algorithms 4 and 5)
    # ------------------------------------------------------------------
    def _locate_leaf(self, key: bytes) -> int:
        probe = np.array([key], dtype=self.config.key_dtype)
        position = int(np.searchsorted(self._first_keys, probe, side="right")[0])
        return max(0, position - 1)

    def approximate_search(
        self, query: np.ndarray, radius_leaves: int | None = None
    ) -> QueryResult:
        """Algorithm 4: inspect the query's would-be position ± a radius.

        The target leaf (plus ``radius_leaves - 1`` physically adjacent
        leaves, which are sequential on disk) is read.  A materialized
        index evaluates everything it just read — the series are right
        there.  A secondary index additionally has to visit the raw
        file, so it fetches only the records closest in z-order to the
        query's insertion point, about one raw-file page per radius
        step ("usually a disk page", Sec. 4.3).
        """
        query = self._query_array(query)
        radius = radius_leaves or self.default_radius
        with Measurement(self.disk) as measure:
            key = query_key(query, self.config)
            target = self._locate_leaf(key)
            lo = max(0, target - (radius - 1) // 2)
            hi = min(len(self._leaves), lo + radius)
            lo = max(0, hi - radius)
            identifiers, distances = self._scan_radius(query, key, lo, hi, radius)
            if len(identifiers):
                j = int(np.argmin(distances))
                best_idx, best_dist = int(identifiers[j]), float(distances[j])
            else:
                best_idx, best_dist = -1, float("inf")
        return QueryResult(
            answer_idx=best_idx,
            distance=best_dist,
            visited_records=len(identifiers),
            visited_leaves=hi - lo,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
        )

    def _scan_radius(
        self,
        query: np.ndarray,
        key: bytes,
        lo: int,
        hi: int,
        radius: int,
        read_leaf=None,
        raw=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances to the radius candidates: (identifiers, distances).

        ``read_leaf`` overrides the leaf reader — the batched
        approximate path passes a caching reader so queries landing in
        the same leaves share each read.  ``raw`` overrides the raw
        series file the secondary variant fetches from (the parallel
        approximate path passes a view bound to a worker's device).
        """
        read_leaf = read_leaf or self._read_leaf_records
        raw = raw if raw is not None else self.raw
        records_parts = [
            read_leaf(self._leaves[i]) for i in range(lo, hi)
        ]
        records_parts = [r for r in records_parts if len(r)]
        if not records_parts:
            return np.empty(0, dtype=np.int64), np.empty(0)
        records = (
            records_parts[0]
            if len(records_parts) == 1
            else np.concatenate(records_parts)
        )
        if self.is_materialized:
            series = records["series"].astype(np.float64)
            identifiers = records["off"].astype(np.int64)
        else:
            window = max(4, raw.series_per_page) * radius
            probe = np.array([key], dtype=self.config.key_dtype)
            position = int(np.searchsorted(records["k"], probe[0]))
            start = max(0, min(position - window // 2, len(records) - window))
            subset = records[start : start + window]
            series = raw.get_many(subset["off"])
            identifiers = subset["off"].astype(np.int64)
        # No running bound at the approximate probe.
        return identifiers, early_abandon_euclidean_block(
            query, series, float("inf")
        )

    def _ensure_summaries(self) -> None:
        """Load (or refresh) the in-memory summary arrays, charging I/O."""
        if self._summaries_dirty:
            self._write_sidecar()
            self._summaries_dirty = False
        if self._summaries_loaded:
            return
        if self._sidecar.n_pages:
            # One sequential pass over the summary column.
            self._sidecar.read_stream(0, self._sidecar.n_pages)
        self._summaries_loaded = True

    def exact_search(
        self, query: np.ndarray, radius_leaves: int | None = None
    ) -> QueryResult:
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            words, fetch = self._prepare_sims()
            seed = self.approximate_search(query, radius_leaves)
            outcome = sims_scan(
                query,
                words,
                self.config,
                fetch,
                initial_bsf=seed.distance,
                initial_answer=seed.answer_idx,
            )
        return QueryResult(
            answer_idx=outcome.answer_id,
            distance=outcome.distance,
            visited_records=outcome.visited_records + seed.visited_records,
            visited_leaves=seed.visited_leaves,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
            pruned_fraction=outcome.pruned_fraction,
        )

    def exact_knn(
        self, query: np.ndarray, k: int, radius_leaves: int | None = None
    ):
        """Exact k nearest neighbors (SIMS generalized; see core.knn).

        Returns a :class:`repro.core.knn.KNNOutcome` plus I/O stats via
        the ``io``/``simulated_io_ms`` attributes attached to it.
        """
        from .knn import sims_knn_scan

        query = self._query_array(query)
        radius = radius_leaves or self.default_radius
        with Measurement(self.disk) as measure:
            words, fetch = self._prepare_sims()
            key = query_key(query, self.config)
            target = self._locate_leaf(key)
            lo = max(0, target - (radius - 1) // 2)
            hi = min(len(self._leaves), lo + radius)
            lo = max(0, hi - radius)
            identifiers, distances = self._scan_radius(query, key, lo, hi, radius)
            seeds = list(zip(distances.tolist(), identifiers.tolist()))
            outcome = sims_knn_scan(
                query, k, words, self.config, fetch,
                seed_distances=seeds,
            )
        outcome.visited_records += len(identifiers)
        outcome.io = measure.io
        outcome.simulated_io_ms = measure.simulated_io_ms
        outcome.wall_s = measure.wall_s
        return outcome

    def query_batch(
        self, batch, query_workers=1, query_pool_kind="thread",
        bound_sharing="on",
    ):
        """Batched queries sharing work across the batch (repro.parallel).

        Exact batches share one SIMS pass: the summary column is loaded
        once and every fetched record block serves all queries that
        still need it.  Approximate batches share leaf reads: queries
        are answered in ascending target-leaf order against a per-batch
        leaf cache, so a leaf several queries land in is read once.
        Either way, answers are identical to issuing the queries one at
        a time.

        ``query_workers > 1`` (or ``None``/``0`` for all cores) runs
        the batch on the multi-worker engines: exact batches
        range-partition the lower-bound scan and stream record fetches
        through per-worker read-only shards, approximate batches
        range-partition the leaf visit order — answers (ids,
        distances, tie order) stay bit-identical to the serial batched
        engines.  ``query_pool_kind="serial"`` replays the parallel
        plan inline (the I/O-determinism oracle, with
        ``bound_sharing="off"``).  Planning and ``bound_sharing`` are
        documented on :func:`repro.parallel.sched.run_sims_query_batch`
        and :meth:`repro.indexes.base.SeriesIndex.query_batch`.
        """
        from ..parallel.sched import run_sims_query_batch

        return run_sims_query_batch(
            self,
            batch,
            query_workers=query_workers,
            query_pool_kind=query_pool_kind,
            bound_sharing=bound_sharing,
        )

    def _approx_visit_order(self, queries: np.ndarray):
        """The batch's shared visit order: ascending target leaf.

        Returns ``(order, ctx)`` — query indices sorted stably by
        target leaf (so shared reads walk the leaf file forward, and
        any contiguous slice of the order visits a contiguous leaf
        range) plus the per-query keys/targets reused by
        :meth:`_approx_answer_subset`.
        """
        keys = [query_key(query, self.config) for query in queries]
        targets = np.array(
            [self._locate_leaf(key) for key in keys], dtype=np.int64
        )
        order = np.argsort(targets, kind="stable").astype(np.int64)
        return order, (keys, targets)

    def _approx_answer_subset(
        self, queries: np.ndarray, ctx, order: np.ndarray, device=None
    ):
        """Answer the queries in ``order`` with a fresh leaf cache.

        ``device=None`` reads on the parent device — one subset over
        the full order is exactly the serial batched pass.  A worker's
        device (a shard-scoped buffer pool) binds every leaf and
        raw-file read to that worker's private I/O domain.  Returns
        ``(query_index, QueryResult)`` pairs; a query's answer never
        depends on the cache (only its I/O charging does), which pins
        the partitioned path to the serial per-batch cache oracle.
        """
        keys, targets = ctx
        radius = self.default_radius
        cache: dict[int, np.ndarray] = {}
        leaf_file = (
            None if device is None else self._leaf_file.attach(device)
        )
        raw = self.raw if device is None else self.raw.view(device)

        def read_leaf(leaf: _Leaf) -> np.ndarray:
            records = cache.get(leaf.slot)
            if records is None:
                records = self._read_leaf_records(leaf, leaf_file=leaf_file)
                cache[leaf.slot] = records
            return records

        pairs = []
        for qi in order:
            qi = int(qi)
            target = int(targets[qi])
            lo = max(0, target - (radius - 1) // 2)
            hi = min(len(self._leaves), lo + radius)
            lo = max(0, hi - radius)
            identifiers, distances = self._scan_radius(
                queries[qi], keys[qi], lo, hi, radius,
                read_leaf=read_leaf, raw=raw,
            )
            if len(identifiers):
                j = int(np.argmin(distances))
                best_idx, best_dist = int(identifiers[j]), float(distances[j])
            else:
                best_idx, best_dist = -1, float("inf")
            pairs.append(
                (
                    qi,
                    QueryResult(
                        answer_idx=best_idx,
                        distance=best_dist,
                        visited_records=len(identifiers),
                        visited_leaves=hi - lo,
                    ),
                )
            )
        return pairs

    def _approximate_batch(self, queries: np.ndarray) -> list[QueryResult]:
        """Per-query approximate answers with a shared leaf cache.

        Mirrors :meth:`approximate_search` exactly (same leaf window,
        same candidates, same answer); only the leaf reads are
        deduplicated, and the visit order is ascending by target leaf
        so the shared reads walk the leaf file forward.
        """
        order, ctx = self._approx_visit_order(queries)
        results: list[QueryResult | None] = [None] * len(queries)
        for qi, result in self._approx_answer_subset(queries, ctx, order):
            results[qi] = result
        return results

    def _prepare_sims(self):
        """(words, fetch) of the loaded summary column, for the engines."""
        self._ensure_summaries()
        fetch = (
            self._fetch_from_leaves
            if self.is_materialized
            else self._fetch_from_raw
        )
        return self._flat_words, fetch

    def _prepare_sims_parallel(self):
        """(words, make_fetch) for the multi-worker engine.

        ``make_fetch(device)`` binds the index's fetch to a worker's
        private device (a shard-scoped buffer pool); ``make_fetch(None)``
        is the ordinary parent-device fetch.
        """
        self._ensure_summaries()
        return self._flat_words, self._make_sims_fetch

    def _make_sims_fetch(self, device=None):
        from ..parallel.query import make_sims_fetch

        return make_sims_fetch(self, device)

    def _fetch_from_raw(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        offsets = self._flat_offsets[positions]
        return self.raw.get_many(offsets), offsets

    def _fetch_from_leaves(
        self, positions: np.ndarray, leaf_file=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Read the leaves containing ``positions``, forward-only."""
        leaf_ids = self._flat_leaf_of[positions]
        series = np.empty((len(positions), self.raw.length), dtype=np.float64)
        offsets = np.empty(len(positions), dtype=np.int64)
        starts = np.concatenate(
            [[0], np.cumsum([leaf.count for leaf in self._leaves])]
        )
        for leaf_id in np.unique(leaf_ids):
            records = self._read_leaf_records(
                self._leaves[int(leaf_id)], leaf_file=leaf_file
            )
            mask = leaf_ids == leaf_id
            local = positions[mask] - starts[int(leaf_id)]
            series[mask] = records["series"][local]
            offsets[mask] = records["off"][local]
        return series, offsets

    # ------------------------------------------------------------------
    # Updates (Fig. 10a)
    # ------------------------------------------------------------------
    def insert_batch(self, data: np.ndarray) -> BuildReport:
        raw = self._require_built()
        data = np.asarray(data, dtype=np.float32)
        with Measurement(self.disk) as measure:
            first_idx = raw.append_batch(data)
            words = sax_words(data, self.config)
            keys = interleave_words(words, self.config)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            offsets = (first_idx + order).astype(np.int64)
            series = data[order] if self.is_materialized else None
            self._merge_into_leaves(keys, offsets, series)
            self._rebuild_directory()
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
        starts = np.concatenate(
            [[0], np.cumsum([leaf.count for leaf in self._leaves])]
        )
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
                key_parts.append(self._keys[starts[i] : starts[i + 1]])
                offset_parts.append(
                    self._flat_offsets[starts[i] : starts[i + 1]]
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
            self._write_leaf_records(slot, chunk)
            first = bytes(chunk["k"][0]).ljust(self.config.key_bytes, b"\x00")
            leaves.append(_Leaf(slot, len(chunk), first))
        return leaves

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        leaf_bytes = self._leaf_file.size_bytes if self._leaves else 0
        sidecar = self._sidecar.size_bytes if self._leaves else 0
        return leaf_bytes + sidecar

    def leaf_stats(self) -> tuple[int, float]:
        if not self._leaves:
            return 0, 0.0
        fills = [leaf.count / self.leaf_size for leaf in self._leaves]
        return len(self._leaves), float(np.mean(fills))
