"""A simulated page-addressed block device with I/O classification.

The device exposes a flat physical address space of fixed-size pages.
Every read or write is classified as *sequential* (the accessed page
immediately follows the previously accessed page, so the disk head does
not move) or *random* (anything else).  Counters live in
:class:`repro.storage.cost.DiskStats` and are converted to simulated
time by a :class:`repro.storage.cost.CostModel`.

Indexes built bottom-up allocate their pages in contiguous extents and
touch them in order, so their I/O is counted as sequential — the
contiguity property the Coconut paper establishes.  Indexes built by
top-down insertion allocate leaves at split time, scattering them across
the address space, so their I/O is counted as random.

Page store
----------
Pages live in **contiguous arenas, each owned by one file**
(:class:`_ExtentArenas`): every ``allocate`` call reserves a fresh
``bytearray`` holding its pages back to back, unless the caller says
the extent continues its file (``file_end``, passed by
``PagedFile.grow``) and the extent starts exactly where that file's
arena ends — then the arena grows in place.  A new file never grows,
and so never copies, another file's arena.  Reads return zero-copy
read-only ``memoryview`` slices of the arena — :meth:`read_run_bytes`
of a run inside one arena is a single slice, no join, no copy — and
:meth:`write_run_bytes` splices a whole run with one buffer
assignment.  An arena never moves while a view of it is exported, so
views stay valid for the life of the device.

**A page read always returns exactly ``page_size`` bytes.**  Pages
never written — and the tail of pages written short — read as zeros,
on ``read_page`` and ``read_run_bytes`` alike.

:meth:`_PagedDevice.read_pages` is the vectored read: a whole page
list validated once, classified in one vectorized step (bit-identical
to one ``read_page`` / ``read_run_bytes`` per maximal consecutive
run) and answered with a *scatter list* of read-only 2-D views over
whole arenas — no page is copied.  ``RawSeriesFile.get_many`` gathers
records straight out of it.  Devices that wrap another device answer
the same verb by replaying the per-run reads on themselves
(:class:`_DerivedVerbs`).

Zero-copy view lifetime
-----------------------
Views returned by the device alias live storage: they observe
later writes to the same pages, and they pin the arena's memory while
referenced.  The safe lifetime rules are documented in
``docs/storage.md``; in short, a consumer that needs a stable private
copy (e.g. to mutate) must copy explicitly — everything inside this
package already does.  A scatter list pins whole arenas
(a file growing from a pinned tail arena opens a new arena instead of
growing it), so it never outlives the call that asked for it.

Access traces
-------------
``trace=True`` records every classified access as ``(op, first_page,
n_pages)`` tuples (``op`` is ``"r"`` or ``"w"``) in :attr:`trace`.
Bulk accesses record one tuple — exactly the granularity the
classification happens at — so two devices driven by the same plan
produce bit-identical traces.  A :class:`DiskShard` of a tracing
parent traces privately.

The read-only reader
--------------------
A :class:`SimulatedDisk` is a single I/O domain: one head, one set of
counters.  A served snapshot reads through a :class:`DiskShard`
instead: a private, read-only I/O domain over every page the parent
had allocated when the shard was taken, with its own head position,
its own :class:`DiskStats` and its own trace.  The parent stays live —
ingest keeps allocating and writing on it — and the shard's reads
never move the parent's head, counters or trace.  Pages allocated
after the shard was taken are beyond its snapshot watermark on every
read verb and on ``page_view``, and the shard refuses every write verb.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .cost import CostModel, DiskStats

#: Every verb that moves page payloads.  A device class defines all of
#: them (``tests/test_device_vocabulary.py``), and a wrapper that
#: forwards unknown attributes must refuse these rather than forward
#: them past its own bookkeeping.
DEVICE_IO_VERBS = (
    "read_page",
    "write_page",
    "read_run_bytes",
    "write_run_bytes",
    "read_run",
    "write_run",
    "read_pages",
)


class PageError(Exception):
    """Raised on invalid page accesses (unallocated page, oversized data)."""


def _spans(starts_new: np.ndarray) -> "list[tuple[int, int]]":
    """Half-open ``(lo, hi)`` spans of a sequence of ``len(starts_new) + 1``
    items, where ``starts_new[i]`` says item ``i + 1`` opens a new span."""
    cuts = (np.flatnonzero(starts_new) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(starts_new) + 1]))


def _opens_run(pages: np.ndarray) -> np.ndarray:
    """For each page after the first: does it open a new maximal run of
    consecutive ids (it is not its predecessor + 1)?"""
    return pages[1:] != pages[:-1] + 1


class _DerivedVerbs:
    """The verbs a device composes from its primitive ones.

    Anything exposing ``page_size``, ``read_page``, ``write_page``,
    ``read_run_bytes`` and the two write checks gets the list API and
    the vectored read by inheriting this — the page stores, and a
    device that wraps another (``FaultyDevice``).  Each verb is spelled
    in the primitives *of ``self``*, so a wrapper's fault-plan op
    indices are those of the primitive sequence by construction.
    """

    def read_run(self, first_page: int, n_pages: int) -> list:
        """Read ``n_pages`` consecutive pages (one seek, then streaming).

        Rides the bytes-level fast path: one :meth:`read_run_bytes`
        call sliced at page boundaries, so the list API gets the
        arena's zero-copy reads (the slices are sub-views of the same
        buffer) and the same bulk-classified counters.
        """
        if n_pages <= 0:
            return []
        blob = self.read_run_bytes(first_page, n_pages)
        view = blob if isinstance(blob, memoryview) else memoryview(blob)
        ps = self.page_size
        return [view[i * ps : (i + 1) * ps] for i in range(n_pages)]

    def write_run(self, first_page: int, pages: list) -> None:
        """Write consecutive pages (one seek, then streaming).

        All or nothing, like ``write_run_bytes``: the whole range and
        every payload length are validated before the first page is
        counted or stored.
        """
        if not pages:
            return
        self._check_write_run(first_page, len(pages))
        for data in pages:
            self._check_page_payload(data)
        for i, data in enumerate(pages):
            self.write_page(first_page + i, data)

    def read_pages(self, pages) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Vectored read of ``pages``, replayed run by run on ``self``.

        The adapter behind every device that is not itself a page
        store: each maximal run of consecutive ids becomes one
        :meth:`read_page` (single page) or :meth:`read_run_bytes` call,
        in request order — exactly the sequence a caller without a
        vectored read would issue — and the joined stream comes back as
        a one-entry scatter list (see :meth:`_PagedDevice.read_pages`
        for the shape).  The pages *are* copied here; what the wrapper
        keeps is its own semantics, call for call.
        """
        pages = np.asarray(pages, dtype=np.int64).ravel()
        if len(pages) == 0:
            return []
        parts = [
            self.read_page(int(pages[lo]))
            if hi - lo == 1
            else self.read_run_bytes(int(pages[lo]), hi - lo)
            for lo, hi in _spans(_opens_run(pages))
        ]
        stream = parts[0] if len(parts) == 1 else b"".join(parts)
        buffer = np.frombuffer(stream, dtype=np.uint8)
        buffer.flags.writeable = False
        return [(buffer.reshape(len(pages), self.page_size), np.arange(len(pages)))]


class _ExtentArenas:
    """Contiguous page storage: ``bytearray`` arenas, each owned by one file.

    Arenas are appended in ascending page order (allocation is
    monotonic).  Each freshly allocated extent gets its own arena,
    unless it continues the file that owns the tail arena
    (``grow_tail``): then it is *coalesced* — the tail grows in place —
    so incrementally grown files stay single-arena and their runs stay
    on the zero-copy path of :meth:`run_view`.  Only a file's own growth
    ever extends an arena, so allocating a new file never copies an
    existing one.  Growing a ``bytearray`` with exported memoryviews
    raises ``BufferError``, so coalescing backs off to a separate arena
    exactly when a grow could invalidate a live view; an arena with no
    exports never moves data (``extend`` preserves existing offsets),
    and once created an arena is never removed, so exported views stay
    valid for the life of the container.  All views handed out are
    read-only; mutation goes through :meth:`splice`.
    """

    __slots__ = ("page_size", "starts", "arenas")

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.starts: list[int] = []  # first page id of each arena
        self.arenas: list[bytearray] = []

    def add(self, first_page: int, n_pages: int, grow_tail: bool = False) -> None:
        """Back a freshly allocated extent with zero-filled storage —
        grown onto the tail arena when ``grow_tail`` and it is adjacent."""
        grow = n_pages * self.page_size
        if grow_tail and self.arenas:
            tail_pages = len(self.arenas[-1]) // self.page_size
            if first_page == self.starts[-1] + tail_pages:
                try:
                    self.arenas[-1].extend(bytes(grow))
                    return
                except BufferError:
                    pass  # live exports pin the tail: new arena instead
        self.starts.append(first_page)
        self.arenas.append(bytearray(grow))

    def _locate(self, page_id: int) -> int:
        """Index of the arena containing ``page_id`` (must be backed)."""
        return bisect_right(self.starts, page_id) - 1

    def page(self, page_id: int) -> memoryview:
        """Zero-copy read-only view of one full page."""
        i = self._locate(page_id)
        at = (page_id - self.starts[i]) * self.page_size
        return memoryview(self.arenas[i]).toreadonly()[at : at + self.page_size]

    def run_view(self, first_page: int, n_pages: int):
        """A contiguous run as one zero-copy view when it fits one arena.

        Runs spanning an arena boundary (physically adjacent pages of
        two files, or of a file whose growth backed off from a pinned
        tail) fall back to a joined ``bytes`` copy — correctness first,
        the zero-copy fast path where allocation made it possible.
        """
        ps = self.page_size
        i = self._locate(first_page)
        at = (first_page - self.starts[i]) * ps
        want = n_pages * ps
        arena = self.arenas[i]
        if at + want <= len(arena):
            return memoryview(arena).toreadonly()[at : at + want]
        parts = []
        while want > 0:
            arena = self.arenas[i]
            take = min(want, len(arena) - at)
            parts.append(memoryview(arena)[at : at + take])
            want -= take
            at = 0
            i += 1
        return b"".join(parts)

    def scatter(self, pages: np.ndarray) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Where ``pages`` (all backed) live: ``(buffer2d, rows)`` entries.

        ``buffer2d`` is a read-only ``(arena_pages, page_size)`` uint8
        view of one whole arena and ``rows`` the row of each page in
        it; a new entry opens whenever the request moves to another
        arena, so an ascending request yields one entry per arena
        touched.  Nothing is copied.
        """
        which = np.searchsorted(self.starts, pages, side="right") - 1
        entries = []
        for lo, hi in _spans(which[1:] != which[:-1]):
            i = int(which[lo])
            arena = np.frombuffer(
                memoryview(self.arenas[i]).toreadonly(), dtype=np.uint8
            )
            entries.append(
                (arena.reshape(-1, self.page_size), pages[lo:hi] - self.starts[i])
            )
        return entries

    def splice(self, first_page: int, data, n_bytes: int) -> None:
        """Write ``data`` at ``first_page``, zero-filling up to ``n_bytes``.

        One buffer assignment per arena touched (one, for runs inside a
        single arena) — the write-side twin of :meth:`run_view`.
        """
        view = memoryview(data)
        fill = len(view)
        i = self._locate(first_page)
        at = (first_page - self.starts[i]) * self.page_size
        pos = 0
        while pos < n_bytes:
            # Assign through a memoryview of the arena: memoryview-to-
            # memoryview slice assignment copies buffer to buffer with
            # no intermediate bytes object (bytearray slice assignment
            # from a view would materialize one).
            arena = memoryview(self.arenas[i])
            take = min(n_bytes - pos, len(arena) - at)
            src_take = min(take, max(0, fill - pos))
            if src_take:
                arena[at : at + src_take] = view[pos : pos + src_take]
            if src_take < take:
                arena[at + src_take : at + take] = bytes(take - src_take)
            pos += take
            at = 0
            i += 1


class _PagedDevice(_DerivedVerbs):
    """Accounting and streaming helpers shared by disks and shards.

    Subclasses provide ``page_size``, ``cost_model``, ``read_page``,
    ``write_page``, ``read_run_bytes``, ``_check_write_run``,
    ``_check_run_readable`` and ``_scatter``; this base owns the head
    position (``None`` while parked — the next access is always
    random), the live counters and the optional access trace.
    """

    page_size: int
    cost_model: CostModel

    def _init_accounting(self, trace: bool = False) -> None:
        self._head: int | None = None
        self._stats = DiskStats()
        self._trace: list[tuple[str, int, int]] | None = [] if trace else None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _count_read(self, page_id: int) -> None:
        if self._head is not None and page_id == self._head + 1:
            self._stats.sequential_reads += 1
        else:
            self._stats.random_reads += 1
        self._stats.bytes_read += self.page_size
        self._head = page_id
        if self._trace is not None:
            self._trace.append(("r", page_id, 1))

    def _count_write(self, page_id: int) -> None:
        if self._head is not None and page_id == self._head + 1:
            self._stats.sequential_writes += 1
        else:
            self._stats.random_writes += 1
        self._stats.bytes_written += self.page_size
        self._head = page_id
        if self._trace is not None:
            self._trace.append(("w", page_id, 1))

    # ------------------------------------------------------------------
    # Bulk classification (the bytes-level fast path)
    # ------------------------------------------------------------------
    def _count_read_run(self, first_page: int, n_pages: int) -> None:
        """Classify ``n_pages`` consecutive reads in one step.

        Bit-identical to calling :meth:`_count_read` page by page: the
        first access is sequential iff it lands right after the head,
        every following access within the run is sequential by
        construction, and the head ends on the run's last page.
        """
        if self._head is not None and first_page == self._head + 1:
            self._stats.sequential_reads += n_pages
        else:
            self._stats.random_reads += 1
            self._stats.sequential_reads += n_pages - 1
        self._stats.bytes_read += n_pages * self.page_size
        self._head = first_page + n_pages - 1
        if self._trace is not None:
            self._trace.append(("r", first_page, n_pages))

    def _count_write_run(self, first_page: int, n_pages: int) -> None:
        """Write-side twin of :meth:`_count_read_run`."""
        if self._head is not None and first_page == self._head + 1:
            self._stats.sequential_writes += n_pages
        else:
            self._stats.random_writes += 1
            self._stats.sequential_writes += n_pages - 1
        self._stats.bytes_written += n_pages * self.page_size
        self._head = first_page + n_pages - 1
        if self._trace is not None:
            self._trace.append(("w", first_page, n_pages))

    # ------------------------------------------------------------------
    # Vectored read (the gather's one device call)
    # ------------------------------------------------------------------
    def read_pages(self, pages) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Read ``pages`` (any order, repeats allowed) in one call.

        Validated once — both ends of the id range — before anything
        is counted, then classified in one vectorized step that is
        bit-identical to issuing :meth:`read_page` /
        :meth:`read_run_bytes` per maximal consecutive run in request
        order: page *i* is sequential iff it is its predecessor + 1
        (the head, for the first), the head ends on the last page, and
        the trace gets one ``("r", first, count)`` tuple per run.

        Returns a **scatter list** ``[(buffer2d, rows), ...]`` whose
        ``rows`` arrays, concatenated, line up with ``pages``:
        ``buffer2d[rows[j]]`` is the page, ``buffer2d`` a read-only
        ``(n, page_size)`` uint8 view of a whole arena (the parent's,
        for a shard).  No page is copied.  Entries alias live storage
        and pin it, so a scatter list must not outlive the call that
        asked for it (``docs/storage.md``).
        """
        pages = np.asarray(pages, dtype=np.int64).ravel()
        n = len(pages)
        if n == 0:
            return []
        lo, hi = int(pages.min()), int(pages.max())
        self._check_run_readable(lo, hi - lo + 1)
        new_run = _opens_run(pages)
        random = int(np.count_nonzero(new_run))
        if self._head is None or pages[0] != self._head + 1:
            random += 1
        self._stats.random_reads += random
        self._stats.sequential_reads += n - random
        self._stats.bytes_read += n * self.page_size
        self._head = int(pages[-1])
        if self._trace is not None:
            self._trace.extend(
                ("r", int(pages[a]), b - a) for a, b in _spans(new_run)
            )
        return self._scatter(pages)

    def _check_page_payload(self, data) -> None:
        if len(data) > self.page_size:
            raise PageError(
                f"data of {len(data)} bytes exceeds page size {self.page_size}"
            )

    def _check_run_payload(self, data, n_pages: int) -> None:
        if len(data) > n_pages * self.page_size:
            raise PageError(
                f"data of {len(data)} bytes exceeds {n_pages} pages of "
                f"{self.page_size} bytes"
            )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> DiskStats:
        """Live counters (mutating object — use :meth:`snapshot` to diff)."""
        return self._stats

    @property
    def trace(self) -> "list[tuple[str, int, int]] | None":
        """Recorded accesses (``None`` unless built with ``trace=True``)."""
        return self._trace

    def snapshot(self) -> DiskStats:
        """An immutable copy of the current counters."""
        return self._stats.copy()

    def stats_since(self, snapshot: DiskStats) -> DiskStats:
        """Counters accumulated since ``snapshot`` was taken."""
        return self._stats - snapshot

    def io_ms_since(self, snapshot: DiskStats) -> float:
        """Simulated I/O milliseconds since ``snapshot``."""
        return self.cost_model.io_ms(self.stats_since(snapshot))

    def reset_stats(self) -> None:
        self._stats = DiskStats()
        if self._trace is not None:
            self._trace = []

    @property
    def head_position(self) -> int | None:
        """Physical page under the head, or ``None`` while parked."""
        return self._head

    def park_head(self) -> None:
        """Park the head: the next access, wherever it lands, is random.

        Parking is idempotent and deterministic — there is no sentinel
        page id that a later access could accidentally be "adjacent" to,
        so nothing before the park can perturb the next classification.
        """
        self._head = None


class SimulatedDisk(_PagedDevice):
    """A block device simulation that counts classified page I/Os.

    Parameters
    ----------
    page_size:
        Bytes per page.  All I/O accounting is in whole pages; writing
        fewer bytes than a page still transfers one page.
    cost_model:
        Converts access counts to simulated milliseconds.
    store:
        Leftover keyword: only ``"arena"`` (the one page store) is
        accepted.  It survives because ``bench_e2e/pipeline.py`` passes
        it and a PR may not edit the benchmark it is gated on; delete
        it in the next ``benchmark``-archetype PR.
    trace:
        Record every classified access in :attr:`trace`.
    integrity:
        Attach a :class:`repro.storage.integrity.ChecksumMap` sidecar
        from page zero.  ``PagedFile`` records intended payloads into
        it at write time; ``verified_reads`` and the ``Scrubber`` check
        against it.  Off by default: with no sidecar every recording
        hook is a single failed attribute lookup.
    """

    def __init__(
        self,
        page_size: int = 8192,
        cost_model: CostModel | None = None,
        store: str = "arena",
        trace: bool = False,
        integrity: bool = False,
    ):
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        if store != "arena":
            raise ValueError(
                f"store must be 'arena', got {store!r}: the arena is the only "
                "page store (the dict-backed reference device lives in "
                "tests/oracles.py)"
            )
        self.page_size = page_size
        self.cost_model = cost_model or CostModel()
        self._arenas = _ExtentArenas(page_size)
        self._written: set[int] = set()
        self._next_page = 0
        self.checksums = None
        self._init_accounting(trace=trace)
        if integrity:
            self.enable_integrity()

    def enable_integrity(self):
        """Attach (or return) the CRC sidecar for this device.

        Enabling on a disk that already holds data *blesses* the
        current content: every written page's present bytes are
        recorded as the expectation, exactly like the initial
        verification pass a real scrubber runs when checksumming is
        turned on over an existing volume.
        """
        if self.checksums is None:
            from .integrity import ChecksumMap

            self.checksums = ChecksumMap(self.page_size)
            for page_id in self._written:
                self.checksums.record_page(page_id, self.page_view(page_id))
        return self.checksums

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, n_pages: int = 1, file_end: int | None = None) -> int:
        """Reserve ``n_pages`` physically contiguous pages.

        Returns the id of the first page.  Allocation itself performs
        no I/O; pages read as zeros until written.  Each allocation is
        backed by one contiguous arena, so runs inside it stream as
        single zero-copy views.  ``file_end`` is the page just past the
        calling file's last extent: when the new extent starts exactly
        there, it grows that file's arena instead of opening a new one.
        """
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        first = self._next_page
        self._next_page += n_pages
        self._arenas.add(first, n_pages, grow_tail=file_end == first)
        return first

    @property
    def pages_allocated(self) -> int:
        return self._next_page

    @property
    def pages_written(self) -> int:
        return len(self._written)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write_page(self, page_id: int, data) -> None:
        """Write one page, classifying the access by head position.

        ``data`` (bytes or any buffer) may be shorter than a page; the
        tail reads back as zeros either way.
        """
        self._check_page(page_id)
        self._check_page_payload(data)
        self._count_write(page_id)
        self._arenas.splice(page_id, data, self.page_size)
        self._written.add(page_id)

    def read_page(self, page_id: int):
        """Read one full page, classifying the access by head position.

        Always returns exactly ``page_size`` bytes — a zero-copy
        read-only ``memoryview``; never-written pages (and the tail of
        short writes) read as zeros.
        """
        self._check_page(page_id)
        self._count_read(page_id)
        return self._arenas.page(page_id)

    # ------------------------------------------------------------------
    # Bytes-level streaming (whole-run I/O without per-page dispatch)
    # ------------------------------------------------------------------
    def read_run_bytes(self, first_page: int, n_pages: int):
        """Read a physically contiguous run as one padded byte stream.

        Returns exactly ``n_pages * page_size`` bytes (short pages are
        zero-padded).  Classification, counters and the final head
        position are bit-identical to ``n_pages`` :meth:`read_page`
        calls — the accounting happens in one bulk step.  The result is
        a zero-copy read-only ``memoryview`` when the run lies within
        one arena — the common case for bulk-built files — which is
        what lets :meth:`repro.storage.pager.PagedFile.read_stream`
        hand whole extents upward without a single copy.
        """
        if n_pages <= 0:
            return b""
        self._check_run_readable(first_page, n_pages)
        self._count_read_run(first_page, n_pages)
        return self._arenas.run_view(first_page, n_pages)

    def _check_run_readable(self, first_page: int, n_pages: int) -> None:
        self._check_page(first_page)
        self._check_page(first_page + n_pages - 1)

    def _scatter(self, pages):
        return self._arenas.scatter(pages)

    def write_run_bytes(self, first_page: int, data, n_pages: int) -> None:
        """Write one byte stream across a physically contiguous run.

        ``data`` (bytes or memoryview) is laid out back to back; bytes
        past ``len(data)`` up to the run's end read as zeros, exactly
        as the per-page path behaves.  Accounting is bit-identical to
        ``n_pages`` :meth:`write_page` calls; the whole run is spliced
        with one buffer assignment.
        """
        if n_pages <= 0:
            return
        self._check_write_run(first_page, n_pages)
        self._check_run_payload(data, n_pages)
        self._count_write_run(first_page, n_pages)
        self._arenas.splice(first_page, data, n_pages * self.page_size)
        self._written.update(range(first_page, first_page + n_pages))

    def _check_write_run(self, first_page: int, n_pages: int) -> None:
        self._check_page(first_page)
        self._check_page(first_page + n_pages - 1)

    # ------------------------------------------------------------------
    # Diagnostics (no I/O accounting)
    # ------------------------------------------------------------------
    def page_view(self, page_id: int):
        """A full zero-padded page without touching head or counters.

        Zero-copy; used by the maintenance plane (scrub repair, WAL
        scavenging, integrity blessing) and by the equivalence suites.
        """
        self._check_page(page_id)
        return self._arenas.page(page_id)

    def dump_pages(self) -> "dict[int, bytes]":
        """Written pages as ``{page_id: padded bytes}`` (diagnostics)."""
        return {p: bytes(self.page_view(p)) for p in sorted(self._written)}

    def _check_page(self, page_id: int) -> None:
        if not 0 <= page_id < self._next_page:
            raise PageError(
                f"page {page_id} is not allocated (allocated: {self._next_page})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedDisk(page_size={self.page_size}, "
            f"allocated={self._next_page}, written={self.pages_written})"
        )


class DiskShard(_PagedDevice):
    """A private, read-only I/O domain over a parent disk.

    Reads any page the parent had allocated at construction (the
    snapshot watermark), straight from the parent's arenas, on every
    read verb and on :meth:`page_view`; pages allocated later are out
    of range, so a stale reader cannot see in-flight state.  Head
    position, :class:`DiskStats` and trace are private: reads never
    move the parent's, and the parent stays live.  The write verbs are
    defined, keeping the device vocabulary uniform, and refuse.
    Verified reads check against the parent's checksum sidecar.
    ``name`` is keyword-only, so a positional argument after the parent
    is a :class:`TypeError` rather than a silently accepted name.
    """

    def __init__(self, parent: SimulatedDisk, *, name: str = ""):
        self.parent = parent
        self.page_size = parent.page_size
        self.cost_model = parent.cost_model
        self.name = name or "shard"
        self._readable_below = parent.pages_allocated
        self.checksums = parent.checksums
        self._init_accounting(trace=parent._trace is not None)

    # ------------------------------------------------------------------
    def read_page(self, page_id: int):
        """Read one page below the watermark (see SimulatedDisk.read_page)."""
        self._check_run_readable(page_id, 1)
        self._count_read(page_id)
        return self.parent._arenas.page(page_id)

    def read_run_bytes(self, first_page: int, n_pages: int):
        """Bulk read of a contiguous run (see SimulatedDisk.read_run_bytes)."""
        if n_pages <= 0:
            return b""
        self._check_run_readable(first_page, n_pages)
        self._count_read_run(first_page, n_pages)
        return self.parent._arenas.run_view(first_page, n_pages)

    def _check_run_readable(self, first_page: int, n_pages: int) -> None:
        """Range check against the snapshot watermark."""
        last = first_page + n_pages - 1
        if first_page < 0 or last >= self._readable_below:
            bad = first_page if first_page < 0 else last
            raise PageError(
                f"{self.name}: page {bad} is not readable from the parent "
                f"snapshot (< {self._readable_below})"
            )

    def _scatter(self, pages):
        return self.parent._arenas.scatter(pages)

    def write_page(self, page_id: int, data) -> None:
        self._refuse_write()

    def write_run_bytes(self, first_page: int, data, n_pages: int) -> None:
        self._refuse_write()

    def _check_write_run(self, first_page: int, n_pages: int) -> None:
        self._refuse_write()

    def _refuse_write(self) -> None:
        raise PageError(f"{self.name} is read-only")

    # ------------------------------------------------------------------
    def page_view(self, page_id: int):
        """A page below the watermark, with no accounting (see
        SimulatedDisk.page_view)."""
        self._check_run_readable(page_id, 1)
        return self.parent._arenas.page(page_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskShard({self.name!r}, readable_below={self._readable_below})"
