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

from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bufferpool import BufferPool
from .disk import SimulatedDisk
from .integrity import verify_view
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


class RawSeriesFile:
    """N float32 data series of equal length, stored record-aligned.

    Series are packed ``series_per_page`` to a page when a record fits
    in a page, and span ``pages_per_series`` consecutive pages when it
    does not (e.g. very long series on small pages).

    With ``verified_reads=True`` every page this file fetches — direct
    from the device or through an attached pool — is hashed against the
    device's :class:`repro.storage.integrity.ChecksumMap` before its
    bytes are parsed, raising :class:`repro.storage.faults.
    CorruptionError` with page provenance instead of returning records
    from a flipped page.  The raw file is the queries' source of truth,
    so this is the last line of defence between silent media decay and
    a wrong answer.  Each page is hashed once: reads through a pool
    that is itself verifying are hashed by the pool (on a miss, before
    admission — its hits are verified views) and not again here.
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
        self._pool: BufferPool | None = None

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
        perform no I/O.
        """
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
        normal partial-last-page path.
        """
        if not 0 <= n_series <= self.n_series:
            raise ValueError(
                f"cannot truncate to {n_series} (file holds {self.n_series})"
            )
        self.n_series = n_series

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def attach_pool(self, pool: BufferPool | None) -> None:
        """Route subsequent reads through a buffer pool (or detach)."""
        self._pool = pool

    def view(self, device) -> "RawSeriesFile":
        """A read-only view of this file performing its I/O on ``device``.

        Same geometry, same extents, same records — but every read is
        classified against ``device``'s own head and charged to its own
        counters.  This is how a served snapshot streams its record
        fetches through its read-only shard (or a shard-scoped buffer
        pool) without touching the parent device: no shared mutable
        state.  Views must not be appended to.
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
        view._pool = None
        return view

    def _hashes_reads_from(self, device) -> bool:
        """Whether this file must hash what ``device`` hands it (a
        verifying pool read from directly already has)."""
        return self.verified_reads and not (
            isinstance(device, BufferPool) and device.verified_reads
        )

    def _verify_run(self, device, first_physical: int, data, n_pages: int):
        """Hash ``n_pages`` page slices of a padded stream (zero-copy)."""
        checksums = getattr(device, "checksums", None)
        page_size = self.disk.page_size
        view = data if isinstance(data, memoryview) else memoryview(data)
        source = f"RawSeriesFile({self.name!r})"
        for i in range(n_pages):
            verify_view(
                checksums,
                first_physical + i,
                view[i * page_size : (i + 1) * page_size],
                source,
            )
        return data

    def _read_logical(self, logical_page: int) -> bytes:
        physical = self.file.physical_page(logical_page)
        if self._pool is not None:
            device, data = self._pool, self._pool.read(physical)
        else:
            device, data = self.disk, self.disk.read_page(physical)
        if self._hashes_reads_from(device):
            verify_view(
                getattr(device, "checksums", None),
                physical,
                data,
                f"RawSeriesFile({self.name!r})",
            )
        return data

    def _read_logical_run(self, first_page: int, n_pages: int) -> bytes:
        """Read consecutive logical pages as one page-padded stream.

        Streams whole extents through the device's bytes-level
        interface when available (same counters as page-at-a-time).
        """
        device = self._pool if self._pool is not None else self.disk
        reader = getattr(device, "read_run_bytes", None)
        if reader is None:  # pragma: no cover - non-bulk devices
            page_size = self.disk.page_size
            return b"".join(
                bytes(self._read_logical(first_page + i)).ljust(
                    page_size, b"\x00"
                )
                for i in range(n_pages)
            )
        parts = []
        verify = self._hashes_reads_from(device)
        for first_physical, run_pages in self.file._physical_runs(
            first_page, n_pages
        ):
            part = reader(first_physical, run_pages)
            if verify:
                self._verify_run(device, first_physical, part, run_pages)
            parts.append(part)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def _page_of(self, idx: int) -> int:
        if self.pages_per_series == 1:
            return idx // self.series_per_page
        return idx * self.pages_per_series

    def get(self, idx: int) -> np.ndarray:
        """Fetch one series by index (random I/O unless cached/adjacent)."""
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

    def get_many(self, idxs: np.ndarray) -> np.ndarray:
        """Fetch many series, visiting each page once in ascending order.

        This is the skip-sequential access pattern of the SIMS exact
        search: the distinct pages behind ``idxs`` are visited in file
        order so the disk head only moves forward, duplicates and
        unsorted input included, and series spanning several pages are
        folded into the same one-visit-per-page plan.  Three steps, no
        per-record and no per-run Python work: *plan* (page and slot of
        every requested record; only the page list is sorted and
        deduplicated), *one vectored read* (``read_pages`` of the
        device, or of the attached pool) and *one gather* of
        record-sized cells from the scatter list straight into the
        output rows, in request order — no page is joined or copied on
        the way when the device is a page store.  Raises
        :class:`IndexError` on any out-of-range index before any I/O is
        performed.
        """
        idxs = np.asarray(idxs, dtype=np.int64).ravel()
        shape = (len(idxs), self.length)
        if len(idxs) == 0:
            return np.empty(shape, dtype=np.float32)
        self._check_idxs(idxs)
        page_size = self.disk.page_size
        spp, pps = self.series_per_page, self.pages_per_series
        # Plan.  A record starts on page (idx // spp) * pps at slot
        # idx % spp and owns the pps - 1 pages after it (one of spp and
        # pps is always 1, so the same two lines cover both layouts).
        heads = idxs // spp * pps
        slots = idxs % spp
        distinct = _sorted_unique(heads)
        plan = (distinct[:, None] + np.arange(pps)).ravel()
        rank = np.searchsorted(distinct, heads) * pps  # of heads, in plan
        device = self._pool if self._pool is not None else self.disk
        physical = self.file.physical_pages(plan)
        scatter = device.read_pages(physical)
        if self._hashes_reads_from(device):
            self._verify_scatter(device, physical, scatter)
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

    def _verify_scatter(self, device, physical: np.ndarray, scatter) -> None:
        """Hash every page of a scatter list once (zero-copy rows)."""
        checksums = getattr(device, "checksums", None)
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
