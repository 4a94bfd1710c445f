"""Coconut-LSM: log-structured updates over sortable summarizations.

The paper's conclusion names this as future work: "we would also like
to explore how ideas from LSM trees could be used to enable ...
efficient updates".  Sortability is exactly what an LSM-tree needs —
runs are sorted files, and merging sorted runs is sequential I/O — so
the extension is natural:

* inserts accumulate in an in-memory buffer (the memtable);
* a full buffer is sorted and flushed as a *run* — a contiguous,
  sorted (key, offset) file — into level 0;
* when a level accumulates ``size_ratio`` runs they are merged into
  one run of the next level (tiering compaction), so every record is
  rewritten O(log_T(N/M)) times, always sequentially;
* queries see the union of the memtable and all runs: approximate
  search probes each run around the query key; exact search runs the
  SIMS scan over the concatenated in-memory summaries.

Compaction merging
------------------
Compaction inputs are already sorted, so merging them is a pure merge,
not a sort: compaction reads every input run sequentially, merges the
resident mirrors pairwise with NumPy searchsorted scatters
(:func:`repro.storage.merge.merge_presorted`) and writes one output run
sequentially.  The merge is stable over runs listed in ``self._runs``
order, so ties resolve by (run order, position), which is exactly what
a stable argsort of the concatenation yields (the oracle the tests pin
it to).

Compare with :class:`repro.core.coconut_tree.CoconutTree.insert_batch`,
which merges batches straight into the leaf level (cheap for big
batches, expensive for trickles) — the trade-off the Fig. 10a
experiment measures and the LSM rows of ``tests/test_paper_figures.py``
revisit.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass

import numpy as np

from ..indexes.base import BuildReport, Measurement, QueryResult
from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.faults import CorruptionError
from ..storage.merge import merge_presorted
from ..storage.pager import PagedFile
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig
from .invsax import invsax_keys, query_key
from .sims import SIMSIndex
from .summary_column import (
    PieceWords,
    SummaryColumn,
    pack_rows,
    row_dtype,
    window_around,
)
from .wal import (
    RunMeta,
    WriteAheadLog,
    parse_run_footer,
    replay_manifest,
    run_footer,
    scavenge_frames,
)

#: Durability modes: ``None`` keeps the original volatile behaviour;
#: ``"wal"`` adds checksummed run footers + the write-ahead manifest
#: (see :mod:`repro.core.wal` and ``docs/robustness.md``).
LSM_DURABILITY_MODES = (None, "wal")


@dataclass
class _Run:
    """One sorted, contiguous run of (key, offset) records.

    ``data_pages`` is the page count of the record region — equal to
    ``file.n_pages`` for volatile runs, one less for durable runs,
    whose final page is the checksummed footer.  Durable runs also
    carry their manifest identity: the ``RUN_ADD``/``COMPACT`` LSN
    that committed them and the contiguous raw-offset range
    ``[off_lo, off_hi)`` they summarize (what lets recovery rebuild a
    corrupt run from the raw file alone).
    """

    file: PagedFile
    keys: np.ndarray  # in-memory summary mirror (S<k>), sorted
    offsets: np.ndarray
    level: int
    data_pages: int = 0
    wal_lsn: int = -1
    off_lo: int = 0
    off_hi: int = 0

    @property
    def n_records(self) -> int:
        return len(self.keys)


class CoconutLSM(SIMSIndex):
    """Write-optimized Coconut variant (secondary index only)."""

    is_materialized = False
    name = "Coconut-LSM"

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None = None,
        size_ratio: int = 4,
        durability: "str | None" = None,
        wal_id: int = 1,
    ):
        super().__init__(disk, memory_bytes)
        # An integer: the WAL's META frame packs it as one, and tiering
        # compares run counts against it.
        if (
            isinstance(size_ratio, bool)
            or not isinstance(size_ratio, numbers.Integral)
            or size_ratio < 2
        ):
            raise ValueError(
                f"size_ratio must be an integer >= 2, got {size_ratio!r}"
            )
        if durability not in LSM_DURABILITY_MODES:
            raise ValueError(
                f"durability must be one of {LSM_DURABILITY_MODES}, "
                f"got {durability!r}"
            )
        self.config = config or SAXConfig()
        self.size_ratio = int(size_ratio)
        self.durability = durability
        self.wal_id = int(wal_id)
        self._wal: WriteAheadLog | None = None
        self._runs: list[_Run] = []
        self._mem_keys: list[np.ndarray] = []
        self._mem_offsets: list[np.ndarray] = []
        self._mem_lsns: list[int] = []
        self._mem_records = 0
        # (key pieces, their SummaryColumn): see ``_summary_column``.
        self._column_of: "tuple[list[np.ndarray], SummaryColumn] | None" = None
        # Words of every live key piece, converted once; served
        # snapshots of this index share it.
        self._piece_words = PieceWords(self.config)
        self.n_flushes = 0
        self.n_merges = 0
        self.n_rebuilt_runs = 0
        # Monotone counter bumped whenever the queryable state (runs,
        # memtable, raw watermark) changes; snapshot caches key on it.
        self.state_version = 0

    # ------------------------------------------------------------------
    @property
    def _record_bytes(self) -> int:
        return self.config.key_bytes + 8

    @property
    def _buffer_capacity(self) -> int:
        return max(16, self.memory_bytes // (2 * self._record_bytes))

    @property
    def n_runs(self) -> int:
        return len(self._runs)

    # ------------------------------------------------------------------
    # Construction and updates
    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        """Bulk load: one sorted bottom-level run (same as CTree's sort)."""
        self.raw = raw
        with Measurement(self.disk) as measure:
            if self.durability == "wal":
                self._wal = WriteAheadLog(self.disk, wal_id=self.wal_id)
                self._wal.append_meta(
                    raw.n_series,
                    self.memory_bytes,
                    self.size_ratio,
                    self.config.series_length,
                    self.config.word_length,
                    self.config.cardinality,
                )
            self._bulk_load(raw)
        self.built = True
        self.state_version += 1
        return BuildReport(
            index_name=self.name,
            n_series=raw.n_series,
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=self.n_runs,
            avg_leaf_fill=1.0,
        )

    def _bulk_load(self, raw: RawSeriesFile) -> None:
        """Sort the whole raw file into the bottom-level run."""
        if not raw.n_series:
            return
        keys_parts, offset_parts = [], []
        for start, block in raw.scan():
            keys_parts.append(invsax_keys(block, self.config))
            offset_parts.append(
                np.arange(start, start + len(block), dtype=np.int64)
            )
        keys = np.concatenate(keys_parts)
        offsets = np.concatenate(offset_parts)
        order = np.argsort(keys, kind="stable")
        self._write_run(
            keys[order],
            offsets[order],
            level=10**6,
            manifest=("run", 0, raw.n_series, -1),
        )

    def insert_batch(self, data: np.ndarray) -> BuildReport:
        raw = self._require_built()
        data = np.asarray(data, dtype=np.float32)
        with Measurement(self.disk) as measure:
            # Validates shape and values before any page is written.
            first = raw.append_batch(data)
            # Zero rows leave no WAL frame and no memtable entry: a
            # flush takes its raw range from the first and last entries.
            if len(data):
                keys = invsax_keys(data, self.config)
                if self._wal is not None:
                    # The commit point: raw rows are fully on the device
                    # (the append above), so once this frame verifies,
                    # the batch is acknowledged and recovery can always
                    # rebuild its keys from the raw file.  A fault before
                    # or during the append leaves the batch
                    # unacknowledged — recovery truncates the raw file
                    # back to the acked watermark.
                    lsn = self._wal.append_batch(first, first + len(data))
                    self._mem_lsns.append(lsn)
                self._mem_keys.append(keys)
                self._mem_offsets.append(
                    np.arange(first, first + len(data), dtype=np.int64)
                )
                self._mem_records += len(data)
                self.state_version += 1
                if self._mem_records >= self._buffer_capacity:
                    self._flush_memtable()
        return BuildReport(
            index_name=self.name,
            n_series=len(data),
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=self.n_runs,
            avg_leaf_fill=1.0,
        )

    def _flush_memtable(self) -> None:
        if not self._mem_records:
            return
        keys = np.concatenate(self._mem_keys)
        offsets = np.concatenate(self._mem_offsets)
        order = np.argsort(keys, kind="stable")
        manifest = None
        if self._wal is not None:
            # Memtable batches are consecutive raw ranges in insertion
            # order, so the flushed run covers one contiguous range and
            # its RUN_ADD retires every absorbed BATCH frame at once.
            manifest = (
                "run",
                int(self._mem_offsets[0][0]),
                int(self._mem_offsets[-1][-1]) + 1,
                self._mem_lsns[-1] if self._mem_lsns else -1,
            )
        self._write_run(keys[order], offsets[order], level=0, manifest=manifest)
        self._mem_keys.clear()
        self._mem_offsets.clear()
        self._mem_lsns.clear()
        self._mem_records = 0
        self.n_flushes += 1
        self._maybe_compact()

    def _pack_records(self, keys: np.ndarray, offsets: np.ndarray) -> bytes:
        return pack_rows(keys, offsets, self.config)

    def run_meta_of(self, run: _Run) -> "RunMeta | None":
        """Manifest-shaped description of a live durable run.

        This is the scrub seam: :class:`~repro.storage.integrity.
        Scrubber` hands the result straight to :meth:`_rebuild_run` to
        regenerate a decayed run extent from the raw file, exactly as
        crash recovery would.  The CRC is recomputed from the in-memory
        key/offset mirrors — the same arrays every query answer already
        trusts — so a rebuild is accepted only if it reproduces what
        queries have been serving.  Returns ``None`` for volatile runs,
        which cover no raw range and cannot be rebuilt from it.
        """
        if run.off_hi <= run.off_lo:
            return None
        return RunMeta(
            level=run.level,
            first_page=run.file.physical_page(0),
            n_pages=run.file.n_pages,
            n_records=run.n_records,
            crc=zlib.crc32(self._pack_records(run.keys, run.offsets)),
            off_lo=run.off_lo,
            off_hi=run.off_hi,
            covers_lsn=run.wal_lsn,
        )

    def _commit_run(self, run: _Run, payload: bytes, manifest) -> None:
        """Footer + manifest frame for a fully-written durable run.

        Called only after ``run.file`` holds the complete record
        payload: the footer page is appended (torn-write detector),
        then the ``RUN_ADD``/``COMPACT`` frame commits the run — the
        atomic manifest swap.  A crash anywhere before the frame
        verifies leaves the previous manifest state intact.
        """
        kind, off_lo, off_hi, extra = manifest
        crc = zlib.crc32(payload)
        run.file.grow(1)
        run.file.write(run.data_pages, run_footer(run.n_records, crc))
        if run.file.n_extents != 1:
            raise CorruptionError(
                f"durable run {run.file.name!r} is not physically contiguous"
            )
        meta = RunMeta(
            level=run.level,
            first_page=run.file.physical_page(0),
            n_pages=run.file.n_pages,
            n_records=run.n_records,
            crc=crc,
            off_lo=off_lo,
            off_hi=off_hi,
            covers_lsn=extra if kind == "run" else -1,
        )
        if kind == "run":
            run.wal_lsn = self._wal.append_run(meta)
        else:
            run.wal_lsn = self._wal.append_compact(meta, replaced=extra)
        run.off_lo, run.off_hi = off_lo, off_hi

    def _write_run(
        self, keys: np.ndarray, offsets: np.ndarray, level: int, manifest=None
    ) -> None:
        payload = self._pack_records(keys, offsets)
        file = PagedFile(self.disk, name=f"lsm-L{level}-run")
        data_pages = file.write_stream(payload)
        run = _Run(
            file=file, keys=keys, offsets=offsets, level=level, data_pages=data_pages
        )
        if self._wal is not None and manifest is not None:
            self._commit_run(run, payload, manifest)
        self._runs.append(run)

    def _maybe_compact(self) -> None:
        """Tiering: merge a level once it holds ``size_ratio`` runs."""
        while True:
            levels: dict[int, list[_Run]] = {}
            for run in self._runs:
                levels.setdefault(run.level, []).append(run)
            overflow = [
                level
                for level, runs in levels.items()
                if level < 10**6 and len(runs) >= self.size_ratio
            ]
            if not overflow:
                return
            level = min(overflow)
            group = levels[level]
            # Read every input run (sequential), write one output run
            # (sequential) at the next level.
            for run in group:
                run.file.read_stream(0, run.data_pages)
                self._runs.remove(run)
            # Stable over ``self._runs`` order (see the module docstring).
            keys, offsets = merge_presorted(
                [(run.keys, run.offsets) for run in group]
            )
            manifest = None
            if self._wal is not None:
                manifest = (
                    "compact",
                    min(run.off_lo for run in group),
                    max(run.off_hi for run in group),
                    [run.wal_lsn for run in group],
                )
            self._write_run(keys, offsets, level=level + 1, manifest=manifest)
            self.n_merges += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _probe_run(
        self, run: _Run, key: bytes, window: int, read_window=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Offsets near the query key in one run, charging its I/O.

        ``read_window`` overrides how the probed page range is read —
        the batched approximate path passes a caching reader so queries
        probing the same page window of the same run share one read.
        """
        start, stop = window_around(run.keys, key, window, self.config)
        if stop <= start:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # Charge the page range of the probed records.
        rec = self._record_bytes
        first_page = start * rec // self.disk.page_size
        last_page = min(
            run.data_pages - 1, max(first_page, (stop * rec) // self.disk.page_size)
        )
        if read_window is None:
            run.file.read_stream(first_page, last_page - first_page + 1)
        else:
            read_window(run, first_page, last_page - first_page + 1)
        return run.offsets[start:stop], np.arange(start, stop)

    def _approximate_one(
        self, query: np.ndarray, read_window=None, raw=None
    ) -> tuple[int, float, np.ndarray, np.ndarray]:
        """One approximate probe: (answer_idx, distance, offsets, distances).

        ``offsets`` (ascending, distinct) are the records the probe
        refined and ``distances`` their true distances — every one a
        free seed for an exact k-NN heap.  Shared between
        :meth:`approximate_search` and the batched paths; only
        ``read_window`` (how run page windows are charged) and ``raw``
        (which device the record fetch lands on) vary, so per-query
        answers are identical by construction.
        """
        raw = raw if raw is not None else self.raw
        key = query_key(query, self.config)
        window = max(4, raw.series_per_page)
        offset_parts = []
        for run in self._runs:
            offsets, _ = self._probe_run(run, key, window, read_window)
            offset_parts.append(offsets)
        if self._mem_records:
            mem_keys, mem_offsets = self._sorted_memtable()
            probe = np.array([key], dtype=self.config.key_dtype)
            position = int(np.searchsorted(mem_keys, probe[0]))
            # Not ``window_around``: a memtable probe near the top end
            # is not pulled back to a full window, and answers pin that.
            start = max(0, position - window // 2)
            offset_parts.append(mem_offsets[start : start + window])
        offsets = (
            np.unique(np.concatenate(offset_parts))
            if offset_parts
            else np.empty(0, dtype=np.int64)
        )
        if len(offsets) == 0:
            return -1, float("inf"), offsets, np.empty(0)
        distances = early_abandon_euclidean_block(
            query, raw.get_many(offsets), float("inf")
        )
        j = int(np.argmin(distances))
        return int(offsets[j]), float(distances[j]), offsets, distances

    def _sorted_memtable(self) -> tuple[np.ndarray, np.ndarray]:
        """The memtable's ``(keys, offsets)`` in stable key order."""
        keys = np.concatenate(self._mem_keys)
        order = np.argsort(keys, kind="stable")
        return keys[order], np.concatenate(self._mem_offsets)[order]

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        """Probe every run (and the memtable) around the query key."""
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            best_idx, best_dist, offsets, _ = self._approximate_one(query)
        return QueryResult(
            answer_idx=best_idx,
            distance=best_dist,
            visited_records=len(offsets),
            visited_leaves=self.n_runs,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
        )

    def _approx_visit_order(self, queries: np.ndarray):
        """Visit order for batched probes: batch order, no context.

        Every query probes every run around its own key, so there is
        no cross-query sort to exploit — the shared resource is the
        window cache, which :meth:`_approx_answer_subset` keeps per
        subset.  Batch order makes the serial path trivially identical
        to the per-query loop.
        """
        return np.arange(len(queries), dtype=np.int64), None

    def _approx_answer_subset(
        self, queries: np.ndarray, ctx, order: np.ndarray, device=None
    ):
        """Answer the queries in ``order`` with a fresh window cache.

        ``device=None`` probes run files and fetches records on the
        parent device — one subset spanning the batch is exactly the
        serial batched pass.  Another device (a served snapshot's shard
        or its fault wrapper) binds each run file and the raw series
        file to it, and the run windows are hashed against the checksum
        sidecar whenever the raw file's records are (``verified_reads``),
        so a served probe never reads a page it has not verified.  The
        window cache only dedupes the I/O charge of a probed page range;
        answers are a pure function of the query.
        """
        seen: set[tuple[int, int, int]] = set()
        raw = self.raw if device is None else self.raw.view(device)
        verified = device is not None and raw.verified_reads
        files: dict[int, object] = {}

        def read_window(run: _Run, first_page: int, n_pages: int) -> None:
            cache_key = (id(run), first_page, n_pages)
            if cache_key in seen:
                return
            seen.add(cache_key)
            if device is None:
                file = run.file
            else:
                file = files.get(id(run))
                if file is None:
                    file = run.file.attach(device)
                    files[id(run)] = file
            file.read_stream(first_page, n_pages, verified=verified)

        pairs = []
        for qi in order:
            qi = int(qi)
            best_idx, best_dist, offsets, distances = self._approximate_one(
                queries[qi], read_window, raw=raw
            )
            pairs.append(
                (
                    qi,
                    QueryResult(
                        answer_idx=best_idx,
                        distance=best_dist,
                        visited_records=len(offsets),
                        visited_leaves=self.n_runs,
                        probed=(offsets, distances),
                    ),
                )
            )
        return pairs

    def _key_pieces(self) -> list[np.ndarray]:
        """Key arrays of the current state: runs in list order, then the
        memtable batches."""
        return [run.keys for run in self._runs] + self._mem_keys

    def _build_summary_column(self) -> SummaryColumn:
        """The column of the current state; only key pieces no earlier
        column converted are converted."""
        return SummaryColumn(
            self.config,
            self._key_pieces(),
            [run.offsets for run in self._runs] + self._mem_offsets,
            self._piece_words,
        )

    def _summary_column(self) -> SummaryColumn:
        """The column of the current state, kept — with the cell index
        its scans built — until runs or memtable next change.

        Runs and memtable batches are immutable arrays that are only
        ever appended, removed or replaced whole, so the state changed
        exactly when its key pieces are no longer the same objects in
        the same order.  The kept pieces are referenced, not ``id``-ed:
        a freed piece cannot be mistaken for a new one at its address.
        """
        pieces = self._key_pieces()
        kept = self._column_of
        if (
            kept is None
            or len(kept[0]) != len(pieces)
            or any(a is not b for a, b in zip(kept[0], pieces))
        ):
            kept = self._column_of = (pieces, self._build_summary_column())
        return kept[1]

    def _prepare_sims(self):
        """(column, fetch) over the union of runs, for the shared engines."""
        column = self._summary_column()
        return column, column.raw_fetch(self.raw)

    def _prepare_sims_parallel(self):
        """(column, make_fetch): ``make_fetch(device)`` binds the fetch's
        raw reads to ``device`` (a served snapshot's shard or its fault
        wrapper); ``make_fetch(None)`` reads the parent device."""
        column = self._summary_column()

        def make_fetch(device=None):
            return column.raw_fetch(
                self.raw if device is None else self.raw.view(device)
            )

        return column, make_fetch

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        disk: SimulatedDisk,
        raw: RawSeriesFile,
        wal_id: "int | None" = None,
    ) -> "CoconutLSM":
        """Rebuild a durable index from the device after a crash.

        Scavenges the write-ahead manifest (no anchors; every allocated
        page is scanned for valid frames), replays the contiguous LSN
        prefix, truncates the raw file to the acknowledged watermark,
        verifies every live run against its checksum — rebuilding any
        corrupt run from the raw file, the durable source of truth —
        and re-derives the memtable from the uncovered ``BATCH``
        frames.  The result is bit-identical in content and answers to
        an index rebuilt from the acknowledged batches alone; see
        ``docs/robustness.md`` for the exact contract.
        """
        frames = scavenge_frames(disk, wal_id=wal_id)
        state = replay_manifest(frames)
        config = SAXConfig(
            series_length=state.series_length,
            word_length=state.word_length,
            cardinality=state.cardinality,
        )
        index = cls(
            disk,
            state.memory_bytes,
            config=config,
            size_ratio=state.size_ratio,
            durability="wal",
            wal_id=state.wal_id,
        )
        index.raw = raw
        raw.truncate(min(raw.n_series, state.watermark))
        if raw.n_series != state.watermark:
            raise CorruptionError(
                f"raw file holds {raw.n_series} series but the manifest "
                f"acknowledged {state.watermark}"
            )
        # The recovered log continues the old one: same wal_id, next
        # LSN past everything scavenged, a fresh frame file.  Replay is
        # idempotent, so frames from both files compose on the next
        # recovery.
        index._wal = WriteAheadLog(
            disk, wal_id=state.wal_id, start_lsn=state.max_lsn + 1
        )
        for lsn in sorted(state.runs):
            meta = state.runs[lsn]
            file = PagedFile.from_extent(
                disk, meta.first_page, meta.n_pages, name=f"lsm-L{meta.level}-run"
            )
            loaded = index._load_run(file, meta)
            if loaded is None:
                loaded = index._rebuild_run(file, meta)
                index.n_rebuilt_runs += 1
            keys, offsets = loaded
            index._runs.append(
                _Run(
                    file=file,
                    keys=keys,
                    offsets=offsets,
                    level=meta.level,
                    data_pages=meta.data_pages,
                    wal_lsn=lsn,
                    off_lo=meta.off_lo,
                    off_hi=meta.off_hi,
                )
            )
        if state.n_build and not any(
            meta.off_lo == 0 for meta in state.runs.values()
        ):
            # The crash hit the bulk build after its META frame but
            # before the bottom-level run committed (the bottom run is
            # never compacted, so a committed one always survives as
            # the off_lo == 0 entry).  Nothing else can have committed
            # yet; redo the bulk load from the raw file.
            index._bulk_load(raw)
        for lsn, off_lo, off_hi in state.batches:
            offsets = np.arange(off_lo, off_hi, dtype=np.int64)
            keys = invsax_keys(raw.get_many(offsets), config)
            index._mem_keys.append(keys)
            index._mem_offsets.append(offsets)
            index._mem_lsns.append(lsn)
            index._mem_records += len(offsets)
        index.built = True
        return index

    def _load_run(self, file: PagedFile, meta: RunMeta):
        """Checksum-verified ``(keys, offsets)`` of a run, else ``None``."""
        footer = parse_run_footer(file.read(meta.data_pages))
        if footer is None or footer != (meta.n_records, meta.crc):
            return None
        blob = bytes(file.read_stream(0, meta.data_pages)) if meta.data_pages else b""
        payload = blob[: meta.n_records * self._record_bytes]
        if zlib.crc32(payload) != meta.crc:
            return None
        rows = np.frombuffer(
            payload, dtype=row_dtype(self.config), count=meta.n_records
        )
        return rows["k"].copy(), rows["off"].astype(np.int64)

    def _rebuild_run(self, file: PagedFile, meta: RunMeta):
        """Rewrite a corrupt run from the raw file (bit-flip recovery).

        Every run summarizes one contiguous raw range, and within equal
        keys records land in ascending offset order (runs are stable
        sorts/merges of consecutive ranges), so recomputing the keys
        for ``[off_lo, off_hi)`` and stable-sorting reproduces the run
        byte for byte — verified against the manifest checksum before
        the rewrite is accepted.
        """
        offsets = np.arange(meta.off_lo, meta.off_hi, dtype=np.int64)
        if len(offsets) != meta.n_records:
            raise CorruptionError(
                f"run at page {meta.first_page} covers {len(offsets)} records "
                f"but the manifest recorded {meta.n_records}"
            )
        keys = invsax_keys(self.raw.get_many(offsets), self.config)
        order = np.argsort(keys, kind="stable")
        keys, offsets = keys[order], offsets[order]
        payload = self._pack_records(keys, offsets)
        if zlib.crc32(payload) != meta.crc:
            raise CorruptionError(
                f"run at page {meta.first_page} cannot be rebuilt: the raw "
                "file no longer matches the manifest checksum"
            )
        file.write_stream(payload)
        file.write(meta.data_pages, run_footer(meta.n_records, meta.crc))
        return keys, offsets

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        return sum(run.file.size_bytes for run in self._runs)

    def leaf_stats(self) -> tuple[int, float]:
        return self.n_runs, 1.0
