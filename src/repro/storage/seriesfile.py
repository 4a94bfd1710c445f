"""The raw data series file.

All indexes in the paper operate against a "raw file" that stores the
z-normalized data series one after the other.  Secondary
(non-materialized) indexes keep only offsets into this file and fetch
series from it at query time; materialized indexes copy the series into
their leaves.  This module stores the raw file on the simulated disk so
that fetches are charged to the I/O model, while also keeping the array
in memory for distance computations once a fetch has paid its I/O.
"""

from __future__ import annotations

import operator
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .disk import SimulatedDisk, _opens_run, _spans
from .integrity import verify_pages, verify_view
from .pager import PagedFile


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Ascending distinct values, hash-free.

    Fetch plans usually arrive sorted — one vectorized diff is then the
    entire cost of finding that out, and a boolean take the cost of
    dropping the repeats (several records of one page).
    """
    if len(values) < 2:
        return values
    diffs = np.diff(values)
    if (diffs > 0).all():
        return values
    if not (diffs >= 0).all():
        values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _index_array(idxs) -> np.ndarray:
    """``idxs`` as a flat int64 array; any other non-empty dtype is a
    :class:`TypeError` (a float would be truncated to a record id, a
    boolean mask read as ids 0 and 1)."""
    idxs = np.asarray(idxs)
    if idxs.size and idxs.dtype.kind not in "iu":
        raise TypeError(f"series indices must be integers, got dtype {idxs.dtype}")
    return idxs.astype(np.int64, copy=False).ravel()


def _index(idx) -> int:
    """One series index as an ``int``; a bool or a non-integer is a
    :class:`TypeError` (``True`` would read record 1)."""
    if not isinstance(idx, bool):
        try:
            return operator.index(idx)
        except TypeError:
            pass
    raise TypeError(f"series index must be an integer, got {type(idx).__name__}")


class FetchPlan(NamedTuple):
    """Where the records of one fetch lie, built before any I/O."""

    physical: np.ndarray  # the pages to read, once each, in file order
    rank: np.ndarray  # per record: its first page's position in ``physical``
    slots: np.ndarray  # per record: its slot on that page
    share: float  # records requested / records on the pages read


class PagedRecords:
    """The records on the pages one fetch read and hashed, in place.

    ``runs`` are read-only ``(records, length)`` float32 views, one per
    maximal run of consecutive pages the read returned: every record
    on those pages (``on_pages`` of them), requested or not, and no
    byte between them.  Requested record ``j`` is row ``where[j]`` of
    the runs, concatenated.
    The views alias the device's arenas and pin them
    (``docs/storage.md``, *Lifetime rule*): drop this object before the
    fetched block's work moves on, keeping only :meth:`take` copies.
    """

    def __init__(self, runs: "list[np.ndarray]", where: np.ndarray, length: int):
        self.runs = runs
        self.where = where
        self.shape = (len(where), length)
        self.on_pages = sum(len(run) for run in runs)
        self._firsts = np.cumsum([0] + [len(run) for run in runs[:-1]])

    def per_record(self, fn) -> np.ndarray:
        """``fn(run)`` — one value per row — over every run, picked for
        each requested record in request order."""
        values = [fn(run) for run in self.runs]
        values = values[0] if len(values) == 1 else np.concatenate(values)
        return values[self.where]

    def take(self, rows: np.ndarray) -> np.ndarray:
        """A private copy of requested records ``rows``, in that order."""
        where = self.where[rows]
        if len(self.runs) == 1:
            return self.runs[0][where]
        out = np.empty((len(where), self.shape[1]), dtype=np.float32)
        run_of = np.searchsorted(self._firsts, where, side="right") - 1
        order = np.argsort(run_of, kind="stable")
        cuts = np.searchsorted(run_of[order], np.arange(1, len(self.runs)))
        for run, first, mine in zip(self.runs, self._firsts, np.split(order, cuts)):
            out[mine] = run[where[mine] - first]
        return out


class RawSeriesFile:
    """N float32 data series of equal length, stored record-aligned.

    Series are packed ``series_per_page`` to a page when a record fits
    in a page, and span ``pages_per_series`` consecutive pages when it
    does not (e.g. very long series on small pages).

    With ``verified_reads=True`` every page this file fetches is hashed
    once against the device's :class:`repro.storage.integrity.
    ChecksumMap` before its bytes are parsed, raising
    :class:`repro.storage.faults.CorruptionError` with page provenance
    instead of returning records from a flipped page.  The raw file is
    the queries' source of truth, so this is the last line of defence
    between silent media decay and a wrong answer.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        length: int,
        name: str = "raw",
        verified_reads: bool = False,
    ):
        if length <= 0:
            raise ValueError(f"series length must be positive, got {length}")
        self.disk = disk
        self.length = length
        self.name = name
        self.verified_reads = verified_reads
        self.record_bytes = 4 * length
        if self.record_bytes <= disk.page_size:
            self.series_per_page = disk.page_size // self.record_bytes
            self.pages_per_series = 1
        else:
            self.series_per_page = 1
            self.pages_per_series = -(-self.record_bytes // disk.page_size)
        self.file = PagedFile(disk, name=name)
        self.n_series = 0
        self._is_view = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, disk: SimulatedDisk, data: np.ndarray, name: str = "raw"
    ) -> "RawSeriesFile":
        """Write a (N, n) float32 array to disk as the raw file."""
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {data.shape}")
        raw = cls(disk, data.shape[1], name=name)
        raw.append_batch(data)
        return raw

    def append_batch(self, data: np.ndarray) -> int:
        """Append series to the end of the file (sequential writes).

        Returns the index of the first appended series.  A NaN or
        infinite value (after the float32 cast) raises ``ValueError``
        before any page is written — it would zero every lower bound
        and come back as an answer at distance ``nan``.  Zero rows
        perform no I/O.  A :meth:`view` refuses with ``ValueError``
        before any I/O.
        """
        self._refuse_view("append to")
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 2 or data.shape[1] != self.length:
            raise ValueError(
                f"expected shape (*, {self.length}), got {data.shape}"
            )
        if not np.isfinite(data).all():
            raise ValueError("series contain NaN or infinite values")
        first_idx = self.n_series
        if len(data):
            self._append_full(data, first_idx)
        return first_idx

    def _append_full(self, data: np.ndarray, first_idx: int) -> None:
        total = first_idx + len(data)
        if self.pages_per_series == 1:
            spp = self.series_per_page
            # Rewrite partial last page if needed.
            start = first_idx
            if start % spp:
                page = start // spp
                in_page = start % spp
                # count= bounds the parse to the resident records: the
                # padded page may not be a float32 multiple in length.
                # Routed through _read_logical so verified_reads hashes
                # the page first — a read-modify-write over a corrupt
                # page would otherwise re-record (bless) the damage.
                existing = np.frombuffer(
                    self._read_logical(page),
                    dtype=np.float32,
                    count=in_page * self.length,
                )
                take = min(spp - in_page, len(data))
                merged = np.concatenate([existing, data[:take].ravel()])
                self.file.write(page, merged.astype(np.float32).tobytes())
                data = data[take:]
                start += take
            if len(data):
                n_new_pages = -(-len(data) // spp)
                first_new = start // spp
                if first_new + n_new_pages > self.file.n_pages:
                    self.file.grow(first_new + n_new_pages - self.file.n_pages)
                for i in range(n_new_pages):
                    chunk = data[i * spp : (i + 1) * spp]
                    self.file.write(first_new + i, chunk.ravel().tobytes())
        else:
            pps = self.pages_per_series
            needed = total * pps - self.file.n_pages
            if needed > 0:
                self.file.grow(needed)
            for i, row in enumerate(data):
                blob = row.astype(np.float32).tobytes()
                base = (first_idx + i) * pps
                for j in range(pps):
                    self.file.write(
                        base + j,
                        blob[j * self.disk.page_size : (j + 1) * self.disk.page_size],
                    )
        self.n_series = total

    def truncate(self, n_series: int) -> None:
        """Logically truncate the file to its first ``n_series`` records.

        Crash recovery uses this to drop rows appended by operations
        that were never acknowledged: like a real filesystem truncate,
        only the length changes — pages past the new end keep whatever
        bytes they held, and a later append overwrites them through the
        normal partial-last-page path.  A bool or a non-integer is a
        :class:`TypeError`; a :meth:`view` refuses with ``ValueError``.
        """
        self._refuse_view("truncate")
        n_series = _index(n_series)
        if not 0 <= n_series <= self.n_series:
            raise ValueError(
                f"cannot truncate to {n_series} (file holds {self.n_series})"
            )
        self.n_series = n_series

    def _refuse_view(self, verb: str) -> None:
        if self._is_view:
            raise ValueError(
                f"cannot {verb} RawSeriesFile({self.name!r}): it is a read-only view"
            )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def view(self, device) -> "RawSeriesFile":
        """A read-only view of this file performing its I/O on ``device``.

        Same geometry, same extents, same records up to the row count
        at the time of the call — but every read is classified against
        ``device``'s own head and charged to its own counters.  This is
        how a served snapshot fetches its records through its read-only
        :class:`~repro.storage.disk.DiskShard` without touching the
        parent device.  A view refuses :meth:`append_batch` and
        :meth:`truncate`: its tail page is the live file's.
        """
        view = RawSeriesFile.__new__(RawSeriesFile)
        view.disk = device
        view.length = self.length
        view.name = self.name
        view.record_bytes = self.record_bytes
        view.series_per_page = self.series_per_page
        view.pages_per_series = self.pages_per_series
        view.file = self.file.attach(device)
        view.n_series = self.n_series
        view.verified_reads = self.verified_reads
        view._is_view = True
        return view

    def _read_logical(self, logical_page: int) -> bytes:
        physical = self.file.physical_page(logical_page)
        data = self.disk.read_page(physical)
        if self.verified_reads:
            verify_view(
                getattr(self.disk, "checksums", None),
                physical,
                data,
                f"RawSeriesFile({self.name!r})",
            )
        return data

    def _read_logical_run(self, first_page: int, n_pages: int) -> bytes:
        """Read consecutive logical pages as one page-padded stream.

        Streams whole extents through the device's bytes-level
        interface (same counters as page-at-a-time).
        """
        parts = []
        for first_physical, run_pages in self.file._physical_runs(
            first_page, n_pages
        ):
            part = self.disk.read_run_bytes(first_physical, run_pages)
            if self.verified_reads:
                verify_pages(
                    getattr(self.disk, "checksums", None),
                    first_physical,
                    part,
                    run_pages,
                    self.disk.page_size,
                    f"RawSeriesFile({self.name!r})",
                )
            parts.append(part)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _page_of(self, idx: int) -> int:
        if self.pages_per_series == 1:
            return idx // self.series_per_page
        return idx * self.pages_per_series

    def get(self, idx: int) -> np.ndarray:
        """Fetch one series by index (random I/O unless cached/adjacent).

        A bool or a non-integer index is a :class:`TypeError`, raised
        before any I/O."""
        idx = _index(idx)
        if not 0 <= idx < self.n_series:
            raise IndexError(f"series {idx} out of range [0, {self.n_series})")
        if self.pages_per_series == 1:
            page = self._read_logical(self._page_of(idx))
            offset = (idx % self.series_per_page) * self.record_bytes
            return np.frombuffer(
                page[offset : offset + self.record_bytes], dtype=np.float32
            ).copy()
        first = self._page_of(idx)
        blob = b"".join(
            self._read_logical(first + j) for j in range(self.pages_per_series)
        )
        return np.frombuffer(blob[: self.record_bytes], dtype=np.float32).copy()

    def _check_idxs(self, idxs: np.ndarray) -> None:
        """Bounds-check a whole index array before any I/O happens.

        With the padded-read page contract an out-of-range index would
        otherwise silently gather zeros (or arbitrary neighbouring
        records); fetches must fail exactly like :meth:`get` does.
        """
        lo = int(idxs.min())
        hi = int(idxs.max())
        if lo < 0 or hi >= self.n_series:
            bad = lo if lo < 0 else hi
            raise IndexError(f"series {bad} out of range [0, {self.n_series})")

    @property
    def records_fill_pages(self) -> bool:
        """Whether records tile every page with no padding, so that a run
        of consecutive pages is a ``(records, length)`` float32 array."""
        return (
            self.pages_per_series == 1
            and self.series_per_page * self.record_bytes == self.disk.page_size
        )

    def plan_fetch(self, idxs) -> "FetchPlan":
        """Where the records ``idxs`` lie: the pages to read, once each.

        No I/O.  Page and slot are computed per requested record; only
        the page list is sorted and deduplicated.  A record starts on
        page ``(idx // spp) * pps`` at slot ``idx % spp`` and owns the
        ``pps - 1`` pages after it (one of ``spp`` and ``pps`` is always
        1, so the same two lines cover both layouts).  Raises
        :class:`TypeError` for an index array that is not of integers
        (floats would be truncated, a boolean mask read as ids 0 and
        1) and :class:`IndexError` for one out of range.
        """
        idxs = _index_array(idxs)
        if len(idxs):
            self._check_idxs(idxs)
        spp, pps = self.series_per_page, self.pages_per_series
        heads = idxs // spp * pps
        distinct = _sorted_unique(heads)
        plan = (distinct[:, None] + np.arange(pps)).ravel()
        return FetchPlan(
            self.file.physical_pages(plan),
            np.searchsorted(distinct, heads) * pps,
            idxs % spp,
            len(idxs) / max(1, len(distinct) * spp),
        )

    def _read(self, plan: "FetchPlan"):
        """The plan's pages in one vectored ``read_pages`` of the
        device, each page hashed once before anything parses it.
        Returns the scatter list."""
        if len(plan.physical) == 0:
            return []
        scatter = self.disk.read_pages(plan.physical)
        if self.verified_reads:
            self._verify_scatter(plan.physical, scatter)
        return scatter

    def get_many(self, idxs) -> np.ndarray:
        """Fetch many series, visiting each page once in ascending order.

        This is the skip-sequential access pattern of the SIMS exact
        search: the distinct pages behind ``idxs`` are visited in file
        order so the disk head only moves forward, duplicates and
        unsorted input included, and series spanning several pages are
        folded into the same one-visit-per-page plan.  Three steps, no
        per-record and no per-run Python work: *plan*
        (:meth:`plan_fetch`), *one vectored read* of the planned pages,
        hashed when reads are verified, and *one gather* of
        record-sized cells from the scatter list straight into the
        output rows, in request order — no page is joined or copied on
        the way when the device is a page store.  ``idxs`` may also be
        the plan of a :meth:`plan_fetch` call, which is not planned
        again.  Raises :class:`TypeError` for non-integer indices and
        :class:`IndexError` for out-of-range ones before any I/O is
        performed.
        """
        plan = idxs if isinstance(idxs, FetchPlan) else self.plan_fetch(idxs)
        rank, slots = plan.rank, plan.slots
        shape = (len(slots), self.length)
        scatter = self._read(plan)
        page_size = self.disk.page_size
        spp, pps = self.series_per_page, self.pages_per_series
        # Gather.  Chunk j of a record is its bytes on page head + j: a
        # void cell of ``width`` bytes (the whole record when pps == 1),
        # so every element moved below is one C memcpy of a record's
        # worth of bytes, taken from a (page, slot) window over the
        # entry's buffer — tail padding skipped by the window's row
        # stride — and stored into the same chunk of the output rows.
        # One entry holding every record whole (a single arena, or a
        # wrapper's joined stream) needs no assembly: its take, already
        # in request order, is the output.
        one_entry = len(scatter) == 1
        out = None if one_entry and pps == 1 else np.empty(shape, np.float32)
        lo = 0
        for buffer, rows in scatter:
            hi = lo + len(rows)
            for j in range(pps):
                start = j * page_size  # of chunk j within the record
                width = min(page_size, self.record_bytes - start)
                cell = np.dtype((np.void, width))
                window = buffer[:, : spp * width].view(cell)
                at = rank + j
                if one_entry:
                    mine = slice(None)
                else:
                    mine = np.flatnonzero((at >= lo) & (at < hi))
                taken = window[rows[at[mine] - lo], slots[mine]]
                if out is None:
                    return taken.view(np.float32).reshape(shape)
                chunk = out.view(np.uint8)[:, start : start + width]
                chunk.view(cell)[mine, 0] = taken
            lo = hi
        return out

    def read_records(self, plan: "FetchPlan") -> "PagedRecords":
        """The records on the plan's pages, read and hashed, in place.

        The same vectored read and the same hashes as :meth:`get_many`
        of the plan — same ``DiskStats``, head and trace — but nothing
        is gathered: each maximal run of consecutive pages in the
        scatter list becomes one zero-copy ``(records, length)`` view.
        Only for files whose records fill their pages
        (:attr:`records_fill_pages`); the views pin their arenas, so
        the result must not outlive the block it was read for
        (``docs/storage.md``, *Lifetime rule*).
        """
        if not self.records_fill_pages:
            raise ValueError("records do not tile this file's pages")
        runs = []
        for buffer, rows in self._read(plan):
            for lo, hi in _spans(_opens_run(rows)):
                first = int(rows[lo])
                pages = buffer[first : first + hi - lo]
                runs.append(pages.view(np.float32).reshape(-1, self.length))
        where = plan.rank * self.series_per_page + plan.slots
        return PagedRecords(runs, where, self.length)

    def _verify_scatter(self, physical: np.ndarray, scatter) -> None:
        """Hash every page of a scatter list once (zero-copy rows)."""
        checksums = getattr(self.disk, "checksums", None)
        source = f"RawSeriesFile({self.name!r})"
        page_ids = iter(physical.tolist())
        for buffer, rows in scatter:
            for row in rows.tolist():
                verify_view(checksums, next(page_ids), buffer[row], source)

    def scan(
        self,
        chunk_series: int | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Sequentially scan records ``[start, stop)`` as (index, block).

        ``chunk_series`` bounds the size of each yielded block; reads
        are always whole pages, streamed through the bytes-level device
        interface.  The default arguments scan the entire file; a
        sub-range reads only the pages that hold it, ascending.
        """
        stop = self.n_series if stop is None else min(stop, self.n_series)
        start = max(0, start)
        if start >= stop:
            return
        if self.pages_per_series == 1:
            spp = self.series_per_page
            page_size = self.disk.page_size
            chunk_pages = max(1, (chunk_series or spp * 64) // spp)
            payload = spp * self.record_bytes
            idx = start
            page = start // spp
            last_page = self._page_of(stop - 1)
            while page <= last_page:
                take = min(chunk_pages, last_page - page + 1)
                raw = self._read_logical_run(page, take)
                block_first = page * spp
                lo = idx - block_first
                hi = min((page + take) * spp, stop) - block_first
                if payload == page_size:
                    # Records are back to back across pages: parse the
                    # needed range straight over the stream (zero-copy
                    # on arena devices).
                    records = np.frombuffer(
                        raw, dtype=np.float32, count=take * spp * self.length
                    ).reshape(take * spp, self.length)
                else:
                    # Records are packed per page with tail padding
                    # (page size not a record multiple): a strided
                    # (page, payload) window skips each page's padding
                    # and one vectorized copy packs the records
                    # contiguously — no per-page join.
                    src = np.frombuffer(raw, dtype=np.uint8)
                    packed = np.ascontiguousarray(
                        as_strided(
                            src, shape=(take, payload), strides=(page_size, 1)
                        )
                    )
                    records = packed.view(np.float32).reshape(
                        take * spp, self.length
                    )
                yield idx, records[lo:hi]
                idx = block_first + hi
                page += take
        else:
            # Multi-page records: each chunk's page span is one
            # consecutive logical run — stream it once (one visit per
            # page, same counters as page-at-a-time) and carve records
            # out with a strided copy that skips each span's padding.
            step = max(1, chunk_series or 64)
            pps = self.pages_per_series
            page_size = self.disk.page_size
            for first in range(start, stop, step):
                count = min(step, stop - first)
                raw = self._read_logical_run(first * pps, count * pps)
                src = np.frombuffer(raw, dtype=np.uint8)
                packed = np.ascontiguousarray(
                    as_strided(
                        src,
                        shape=(count, self.record_bytes),
                        strides=(pps * page_size, 1),
                    )
                )
                yield first, packed.view(np.float32)

    @property
    def live_pages(self) -> int:
        """Logical pages holding live records — the scrubber's raw
        sweep range.  Pages past this (after a recovery truncate) are
        dead: unreachable by any read, nothing sound to restore them
        to."""
        if self.n_series == 0:
            return 0
        if self.pages_per_series == 1:
            return -(-self.n_series // self.series_per_page)
        return self.n_series * self.pages_per_series

    @property
    def size_bytes(self) -> int:
        return self.file.size_bytes

    def __len__(self) -> int:
        return self.n_series

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawSeriesFile(n={self.n_series}, length={self.length}, "
            f"pages={self.file.n_pages})"
        )
