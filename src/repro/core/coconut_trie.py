"""Coconut-Trie: bottom-up bulk-loaded, prefix-split data series index.

The paper's first design point (Algorithm 2): like the state of the
art, nodes are identified by iSAX prefixes, but the index is built
bottom-up from the externally sorted invSAX order, so the leaf level
is contiguous on disk.

The paper builds the trie with ``insertBottomUp`` (one node per
distinct word, masking least significant bits until a shared parent
prefix emerges) followed by ``CompactSubtree`` (merging sibling leaves
into their parent while they fit).  Because the paper masks bits in
interleaved significance order, every node's mask is a *prefix of the
z-order key*, and the fully compacted tree is exactly the set of
maximal key-prefix regions holding at most ``leaf_size`` records.  We
construct that set directly by recursive prefix partitioning of the
sorted key array — same resulting tree, one pass, no intermediate
single-record nodes.

Prefix splitting cannot balance data across children, so leaves are
sparsely filled (the space amplification of Sec. 3.2) — visible here
as low average fill factor and more leaf pages than Coconut-Tree for
the same data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..indexes.base import BuildReport, Measurement, QueryResult, SeriesIndex
from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.external_sort import ExternalSorter, sort_to_arrays
from ..storage.pager import PagedFile
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig, sax_words
from .coconut_tree import _record_dtype, payload_dtype
from .invsax import deinterleave_keys, interleave_words, query_key
from .sims import sims_scan


@dataclass
class _TrieLeaf:
    """A maximal prefix region holding at most ``leaf_size`` records."""

    prefix_bits: int
    first_key: bytes
    count: int
    start_page: int
    n_pages: int
    position: int  # rank of the leaf's first record in sorted order


class CoconutTrie(SeriesIndex):
    """Contiguous, prefix-split index over sortable summarizations."""

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None = None,
        leaf_size: int = 100,
        materialized: bool = False,
        workers: int | None = 1,
        chunk_series: int | None = None,
        pool_kind: str = "thread",
    ):
        from ..parallel.pool import check_pool_kind, resolve_workers

        super().__init__(disk, memory_bytes)
        if leaf_size <= 0:
            raise ValueError(f"leaf_size must be positive, got {leaf_size}")
        self.config = config or SAXConfig()
        self.leaf_size = leaf_size
        self.is_materialized = materialized
        self.workers = resolve_workers(workers)
        self.chunk_series = chunk_series
        self.pool_kind = check_pool_kind(pool_kind)
        self.name = "Coconut-Trie-Full" if materialized else "Coconut-Trie"
        self._leaves: list[_TrieLeaf] = []
        self._first_keys: np.ndarray | None = None
        self._flat_words: np.ndarray | None = None
        self._flat_offsets: np.ndarray | None = None
        self._summaries_loaded = False
        self.n_internal_nodes = 0
        self.max_depth = 0

    # ------------------------------------------------------------------
    # Construction (Algorithm 2)
    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        with Measurement(self.disk) as measure:
            # ``workers`` also drives the merges — see CoconutTree.build.
            sorter = ExternalSorter(
                self.disk,
                self.memory_bytes,
                merge_workers=self.workers,
                pool_kind=self.pool_kind,
            )
            if self.workers > 1:
                from ..parallel.summarize import summarize_presorted_runs

                runs = summarize_presorted_runs(
                    raw,
                    self.config,
                    self.is_materialized,
                    workers=self.workers,
                    chunk_size=self.chunk_series,
                    kind=self.pool_kind,
                )
                keys, payloads = self._collect_stream(
                    sorter.sort_runs(runs), raw.length
                )
            else:
                keys, payloads = self._summarize_scan(raw)
                keys, payloads = sort_to_arrays(sorter, keys, payloads)
            rec = _record_dtype(self.config, raw.length, self.is_materialized)
            self._record_itemsize = rec.itemsize
            self._leaf_file = PagedFile(self.disk, name=f"{self.name}-leaves")
            self._sidecar = PagedFile(self.disk, name=f"{self.name}-summaries")
            if len(keys):
                raw_keys = keys.view(np.uint8).reshape(
                    len(keys), self.config.key_bytes
                )
                self._partition(keys, raw_keys, payloads, rec, 0, len(keys), 0)
            self._first_keys = np.array(
                [leaf.first_key for leaf in self._leaves],
                dtype=self.config.key_dtype,
            )
            self._flat_words = deinterleave_keys(keys, self.config)
            self._flat_offsets = payloads["off"].astype(np.int64)
            self._write_sidecar(keys, payloads)
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
                "internal_nodes": self.n_internal_nodes,
                "max_depth": self.max_depth,
            },
        )

    def _summarize_scan(
        self, raw: RawSeriesFile
    ) -> tuple[np.ndarray, np.ndarray]:
        pay_dtype = payload_dtype(raw.length, self.is_materialized)
        key_parts, payload_parts = [], []
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

    def _collect_stream(
        self, stream, length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate a sorted (keys, payloads) chunk stream."""
        key_parts, payload_parts = [], []
        for chunk_keys, chunk_payloads in stream:
            key_parts.append(chunk_keys)
            payload_parts.append(chunk_payloads)
        if not key_parts:
            return (
                np.empty(0, dtype=self.config.key_dtype),
                np.empty(0, dtype=payload_dtype(length, self.is_materialized)),
            )
        return np.concatenate(key_parts), np.concatenate(payload_parts)

    def _partition(
        self,
        keys: np.ndarray,
        raw_keys: np.ndarray,
        payloads: np.ndarray,
        rec: np.dtype,
        lo: int,
        hi: int,
        bit: int,
    ) -> None:
        """Recursively split [lo, hi) at ``bit`` until regions fit.

        Equivalent to insertBottomUp + CompactSubtree on the sorted
        stream: each emitted leaf is a maximal prefix region with at
        most ``leaf_size`` records (or an exhausted-prefix region).
        """
        count = hi - lo
        if count == 0:
            return
        if count <= self.leaf_size or bit >= self.config.key_bits:
            self._emit_leaf(keys, payloads, rec, lo, hi, bit)
            return
        self.n_internal_nodes += 1
        self.max_depth = max(self.max_depth, bit + 1)
        column = (raw_keys[lo:hi, bit >> 3] >> (7 - (bit & 7))) & 1
        boundary = lo + int(np.searchsorted(column, 1, side="left"))
        self._partition(keys, raw_keys, payloads, rec, lo, boundary, bit + 1)
        self._partition(keys, raw_keys, payloads, rec, boundary, hi, bit + 1)

    def _emit_leaf(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        rec: np.dtype,
        lo: int,
        hi: int,
        bit: int,
    ) -> None:
        records = np.zeros(hi - lo, dtype=rec)
        records["k"] = keys[lo:hi]
        records["off"] = payloads["off"][lo:hi]
        if self.is_materialized:
            records["series"] = payloads["series"][lo:hi]
        start_page = self._leaf_file.n_pages
        n_pages = self._leaf_file.write_stream(
            records.tobytes(), at_page=start_page
        )
        first = bytes(keys[lo]).ljust(self.config.key_bytes, b"\x00")
        self._leaves.append(
            _TrieLeaf(
                prefix_bits=bit,
                first_key=first,
                count=hi - lo,
                start_page=start_page,
                n_pages=n_pages,
                position=lo,
            )
        )

    def _write_sidecar(self, keys: np.ndarray, payloads: np.ndarray) -> None:
        if not len(keys):
            return
        dtype = np.dtype([("k", self.config.key_dtype), ("off", "<i8")])
        rows = np.zeros(len(keys), dtype=dtype)
        rows["k"] = keys
        rows["off"] = payloads["off"]
        self._sidecar.write_stream(rows.tobytes())
        self._summaries_loaded = False

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _read_leaf_records(self, leaf: _TrieLeaf, leaf_file=None) -> np.ndarray:
        file = self._leaf_file if leaf_file is None else leaf_file
        data = file.read_stream(leaf.start_page, leaf.n_pages)
        return np.frombuffer(
            data[: leaf.count * self._record_itemsize],
            dtype=_record_dtype(
                self.config, self.raw.length, self.is_materialized
            ),
        )

    def _locate_leaf(self, key: bytes) -> int:
        probe = np.array([key], dtype=self.config.key_dtype)
        position = int(np.searchsorted(self._first_keys, probe, side="right")[0])
        return max(0, position - 1)

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        """Visit the single most promising leaf (iSAX-style, Sec. 4.2).

        A materialized leaf evaluates everything it holds; a secondary
        leaf fetches about one raw-file page of records around the
        query's in-leaf position (as in Coconut-Tree's Algorithm 4).
        """
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            best_idx, best_dist, visited = -1, float("inf"), 0
            if self._leaves:
                key = query_key(query, self.config)
                leaf = self._leaves[self._locate_leaf(key)]
                records = self._read_leaf_records(leaf)
                if self.is_materialized:
                    series = records["series"].astype(np.float64)
                else:
                    window = max(4, self.raw.series_per_page)
                    probe = np.array([key], dtype=self.config.key_dtype)
                    position = int(np.searchsorted(records["k"], probe[0]))
                    start = max(
                        0, min(position - window // 2, len(records) - window)
                    )
                    records = records[start : start + window]
                    series = self.raw.get_many(records["off"])
                distances = early_abandon_euclidean_block(
                    query, series, float("inf")
                )
                visited = len(records)
                j = int(np.argmin(distances))
                best_idx, best_dist = int(records["off"][j]), float(distances[j])
        return QueryResult(
            answer_idx=best_idx,
            distance=best_dist,
            visited_records=visited,
            visited_leaves=1 if visited else 0,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
        )

    def exact_search(self, query: np.ndarray) -> QueryResult:
        """SIMS over the sorted summaries (same engine as Coconut-Tree)."""
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            words, fetch = self._prepare_sims()
            seed = self.approximate_search(query)
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

    def exact_knn(self, query: np.ndarray, k: int):
        """Exact k nearest neighbors via the SIMS kNN scan (core.knn)."""
        from .knn import seeded_sims_knn

        return seeded_sims_knn(self, query, k, self._prepare_sims)

    def query_batch(
        self, batch, query_workers=1, query_pool_kind="thread",
        bound_sharing="on",
    ):
        """Batched queries sharing work across the batch (repro.parallel).

        Exact batches share one SIMS pass; approximate batches share
        leaf reads — each distinct target leaf is read once for all the
        queries that land in it.  Answers are identical to the
        per-query loop either way.  ``query_workers > 1`` runs exact
        batches on the multi-worker engine (:mod:`repro.parallel.query`)
        and approximate batches on the partitioned visit-order engine,
        answers bit-identical to the serial batched engines;
        ``query_pool_kind="serial"`` replays the plan inline.
        Planning and ``bound_sharing`` are documented on
        :func:`repro.parallel.sched.run_sims_query_batch`.
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
        """Visit order (ascending target leaf) + per-query keys/targets."""
        if not self._leaves:
            return np.empty(0, dtype=np.int64), ([], np.empty(0, np.int64))
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

        Same contract as ``CoconutTree._approx_answer_subset``: reads
        bound to ``device`` (parent device when ``None``), answers a
        pure function of the query — the cache only dedupes I/O.
        """
        keys, targets = ctx
        cache: dict[int, np.ndarray] = {}
        leaf_file = (
            None if device is None else self._leaf_file.attach(device)
        )
        raw = self.raw if device is None else self.raw.view(device)

        def read_leaf(index: int) -> np.ndarray:
            records = cache.get(index)
            if records is None:
                records = self._read_leaf_records(
                    self._leaves[index], leaf_file=leaf_file
                )
                cache[index] = records
            return records

        pairs = []
        for qi in order:
            qi = int(qi)
            records = read_leaf(int(targets[qi]))
            if self.is_materialized:
                series = records["series"].astype(np.float64)
            else:
                window = max(4, raw.series_per_page)
                probe = np.array([keys[qi]], dtype=self.config.key_dtype)
                position = int(np.searchsorted(records["k"], probe[0]))
                start = max(
                    0, min(position - window // 2, len(records) - window)
                )
                records = records[start : start + window]
                series = raw.get_many(records["off"])
            distances = early_abandon_euclidean_block(
                queries[qi], series, float("inf")
            )
            j = int(np.argmin(distances))
            pairs.append(
                (
                    qi,
                    QueryResult(
                        answer_idx=int(records["off"][j]),
                        distance=float(distances[j]),
                        visited_records=len(records),
                        visited_leaves=1,
                    ),
                )
            )
        return pairs

    def _approximate_batch(self, queries: np.ndarray) -> list[QueryResult]:
        """Per-query approximate answers with a shared leaf cache.

        Mirrors :meth:`approximate_search` exactly; queries are visited
        in ascending leaf order and each distinct leaf is read once per
        batch.
        """
        if not self._leaves:
            return [QueryResult() for _ in queries]
        order, ctx = self._approx_visit_order(queries)
        results: list[QueryResult | None] = [None] * len(queries)
        for qi, result in self._approx_answer_subset(queries, ctx, order):
            results[qi] = result
        return results

    def _prepare_sims(self):
        """(words, fetch) of the summary column, for the shared engines."""
        self._ensure_summaries()
        fetch = (
            self._fetch_from_leaves
            if self.is_materialized
            else self._fetch_from_raw
        )
        return self._flat_words, fetch

    def _prepare_sims_parallel(self):
        """(words, make_fetch) for the multi-worker engine."""
        self._ensure_summaries()
        return self._flat_words, self._make_sims_fetch

    def _make_sims_fetch(self, device=None):
        from ..parallel.query import make_sims_fetch

        return make_sims_fetch(self, device)

    def _ensure_summaries(self) -> None:
        if self._summaries_loaded:
            return
        if self._sidecar.n_pages:
            self._sidecar.read_stream(0, self._sidecar.n_pages)
        self._summaries_loaded = True

    def _fetch_from_raw(
        self, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        offsets = self._flat_offsets[positions]
        return self.raw.get_many(offsets), offsets

    def _fetch_from_leaves(
        self, positions: np.ndarray, leaf_file=None
    ) -> tuple[np.ndarray, np.ndarray]:
        starts = np.array([leaf.position for leaf in self._leaves])
        leaf_ids = np.searchsorted(starts, positions, side="right") - 1
        series = np.empty((len(positions), self.raw.length), dtype=np.float64)
        offsets = np.empty(len(positions), dtype=np.int64)
        for leaf_id in np.unique(leaf_ids):
            leaf = self._leaves[int(leaf_id)]
            records = self._read_leaf_records(leaf, leaf_file=leaf_file)
            mask = leaf_ids == leaf_id
            local = positions[mask] - leaf.position
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
