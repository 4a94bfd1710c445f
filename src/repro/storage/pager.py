"""Paged files on top of the simulated disk.

A :class:`PagedFile` is a logical sequence of pages mapped onto physical
extents of the disk.  A file created with its final size in one
``allocate`` call is fully contiguous; a file grown incrementally
accretes extents, which may be scattered between other allocations —
mirroring how real filesystems fragment incrementally grown files and
how top-down-built indexes scatter their leaves.

A file is bound to a *device* — anything exposing ``page_size``,
``allocate`` and the verbs of ``DEVICE_IO_VERBS``: the shared
:class:`repro.storage.disk.SimulatedDisk`, the read-only
:class:`repro.storage.disk.DiskShard` a served snapshot reads through,
or a :class:`repro.storage.faults.FaultyDevice` wrapping either.  The
binding is explicit rather than a global: :meth:`PagedFile.attach`
yields a view of the same extents on a different device, which is how
a served snapshot reads a shared file through its shard (its own head,
its own stats) without mutating anybody else's state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .disk import PageError, SimulatedDisk
from .integrity import verify_pages


@dataclass(frozen=True)
class Extent:
    """A physically contiguous range of pages."""

    first_page: int
    n_pages: int


class PagedFile:
    """A logical page space backed by one or more physical extents."""

    def __init__(self, disk: SimulatedDisk, n_pages: int = 0, name: str = ""):
        self.disk = disk
        self.name = name
        self._extents: list[Extent] = []
        # First logical page of each extent (``physical_page`` bisects).
        self._starts: list[int] = []
        self._n_pages = 0
        if n_pages:
            self.grow(n_pages)

    @classmethod
    def from_extent(
        cls, device, first_page: int, n_pages: int, name: str = ""
    ) -> "PagedFile":
        """Wrap an already-allocated contiguous extent as a file.

        No allocation or I/O happens — the pages may already hold data.
        This is how Coconut-LSM recovery reopens a committed run from
        its manifest entry.
        """
        file = cls(device, name=name)
        if n_pages:
            file._extents = [Extent(first_page, n_pages)]
            file._starts = [0]
            file._n_pages = n_pages
        return file

    def attach(self, device) -> "PagedFile":
        """A view of this file bound to ``device``, same extent table.

        The view maps logical pages to the same physical pages but
        performs its I/O on ``device`` — a served snapshot's read-only
        :class:`repro.storage.disk.DiskShard`, or the parent disk
        under a fault-wrapped device.  Views are for I/O on the
        existing pages; growing a view does not grow the original.
        """
        view = PagedFile(device, name=self.name)
        view._extents = list(self._extents)
        view._starts = list(self._starts)
        view._n_pages = self._n_pages
        return view

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def n_extents(self) -> int:
        return len(self._extents)

    @property
    def size_bytes(self) -> int:
        return self._n_pages * self.disk.page_size

    def grow(self, n_pages: int) -> int:
        """Append ``n_pages`` as one new physical extent.

        Returns the logical page index of the first new page.  The new
        extent is merged with the previous one when it happens to be
        physically adjacent (no intervening allocation); the device is
        told where the file ends, so it grows the file's own arena in
        that case and opens a new one otherwise.
        """
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        first_logical = self._n_pages
        end = None
        if self._extents:
            last = self._extents[-1]
            end = last.first_page + last.n_pages
        first_physical = self.disk.allocate(n_pages, file_end=end)
        if first_physical == end:
            self._extents[-1] = Extent(last.first_page, last.n_pages + n_pages)
        else:
            self._extents.append(Extent(first_physical, n_pages))
            self._starts.append(first_logical)
        self._n_pages += n_pages
        return first_logical

    def physical_page(self, logical: int) -> int:
        """Map a logical page index to its physical page id."""
        if not 0 <= logical < self._n_pages:
            raise PageError(
                f"logical page {logical} out of range [0, {self._n_pages})"
            )
        at = bisect_right(self._starts, logical) - 1
        return self._extents[at].first_page + logical - self._starts[at]

    def physical_pages(self, logical: np.ndarray) -> np.ndarray:
        """:meth:`physical_page` of a whole array of logical pages."""
        logical = np.asarray(logical, dtype=np.int64)
        if len(logical) and not 0 <= logical.min() <= logical.max() < self._n_pages:
            raise PageError(
                f"logical pages [{logical.min()}, {logical.max()}] out of "
                f"range [0, {self._n_pages})"
            )
        at = np.searchsorted(self._starts, logical, side="right") - 1
        shift = np.array(
            [e.first_page - start for e, start in zip(self._extents, self._starts)],
            dtype=np.int64,
        )
        return logical + shift[at]

    def _physical_runs(
        self, first_logical: int, n_pages: int
    ) -> "list[tuple[int, int]]":
        """Map a logical page range to contiguous physical runs.

        Returns ``(first_physical, n_pages)`` pairs in logical order —
        one pair per extent the range crosses.  This is the planning
        step of the bytes-level streaming fast path: the extent walk
        happens once per range instead of once per page.
        """
        runs: list[tuple[int, int]] = []
        skip, need = first_logical, n_pages
        for extent in self._extents:
            if need == 0:
                break
            if skip >= extent.n_pages:
                skip -= extent.n_pages
                continue
            take = min(extent.n_pages - skip, need)
            runs.append((extent.first_page + skip, take))
            skip = 0
            need -= take
        return runs

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write(self, logical: int, data: bytes) -> None:
        # Integrity sidecar: record the *intended* payload, and only
        # after the device acks.  Recording above the device is what
        # catches an in-flight FaultyDevice bit flip (the device would
        # checksum the already-flipped bytes); recording after the ack
        # keeps a write that faulted before taking effect from moving
        # the expectation off the bytes actually in the store.
        physical = self.physical_page(logical)
        self.disk.write_page(physical, data)
        checksums = getattr(self.disk, "checksums", None)
        if checksums is not None:
            checksums.record_page(physical, data)

    def read(self, logical: int) -> bytes:
        return self.disk.read_page(self.physical_page(logical))

    def append_page(self, data: bytes) -> int:
        """Grow the file by one page and write ``data`` into it."""
        logical = self.grow(1)
        self.write(logical, data)
        return logical

    def write_stream(self, data: bytes, at_page: int = 0) -> int:
        """Write a byte stream across consecutive logical pages.

        The file is grown as needed.  Returns the number of pages used.
        The inner loop streams whole extents through the device's
        bytes-level interface (``write_run_bytes``) when it has one;
        content, counters and head movement are bit-identical to the
        page-at-a-time path either way.  A negative ``at_page`` raises
        :class:`PageError` before anything is grown, written or recorded.
        """
        if at_page < 0:
            raise PageError(f"logical page {at_page} is negative")
        page_size = self.disk.page_size
        n_pages = max(1, -(-len(data) // page_size))
        needed = at_page + n_pages - self._n_pages
        if needed > 0:
            self.grow(needed)
        writer = getattr(self.disk, "write_run_bytes", None)
        if writer is None:  # pragma: no cover - non-bulk devices
            for i in range(n_pages):
                chunk = data[i * page_size : (i + 1) * page_size]
                self.write(at_page + i, chunk)
            return n_pages
        view = memoryview(data)
        checksums = getattr(self.disk, "checksums", None)
        at = 0
        for first_physical, run_pages in self._physical_runs(at_page, n_pages):
            take = min(len(data) - at, run_pages * page_size)
            writer(first_physical, view[at : at + take], run_pages)
            if checksums is not None:
                checksums.record_run(first_physical, view[at : at + take], run_pages)
            at += take
        return n_pages

    def read_stream(self, first_page: int, n_pages: int, verified: bool = False):
        """Read consecutive logical pages as one byte stream.

        Short pages are zero-padded, so the result is always exactly
        ``n_pages * page_size`` bytes.  Whole extents stream through
        the device's ``read_run_bytes`` — same bytes, same classified
        counters as reading page by page — and a range inside a single
        physical run is handed upward exactly as the device returned
        it: on arena devices that is one zero-copy ``memoryview``, end
        to end from the page store to the consumer.  ``verified``
        hashes every page against the device's checksum sidecar
        (:func:`~repro.storage.integrity.verify_pages`) before it is
        handed upward: a page flipped at rest raises
        :class:`~repro.storage.faults.CorruptionError`.
        """
        if first_page < 0 or n_pages < 0 or first_page + n_pages > self._n_pages:
            raise PageError(
                f"range [{first_page}, {first_page + n_pages}) out of "
                f"[0, {self._n_pages})"
            )
        parts = []
        for first_physical, run_pages in self._physical_runs(first_page, n_pages):
            part = self.disk.read_run_bytes(first_physical, run_pages)
            if verified:
                verify_pages(
                    getattr(self.disk, "checksums", None),
                    first_physical,
                    part,
                    run_pages,
                    self.disk.page_size,
                    f"PagedFile({self.name!r})",
                )
            parts.append(part)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedFile(name={self.name!r}, pages={self._n_pages}, "
            f"extents={len(self._extents)})"
        )
