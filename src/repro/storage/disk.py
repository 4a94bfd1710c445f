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
Pages live in **contiguous arenas, one per allocation extent**
(:class:`_ExtentArenas`): every ``allocate`` call reserves one
``bytearray`` holding its pages back to back, and an extent physically
adjacent to the tail arena grows it in place.  Reads return zero-copy
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
``docs/storage.md``; in short, a view taken from a :class:`DiskShard`
must not outlive the shard's session, and a consumer that needs a
stable private copy (e.g. to mutate) must copy explicitly — everything
inside this package already does.  A scatter list pins whole arenas
(an ``allocate`` next to a pinned tail arena opens a new arena instead
of growing it), so it never outlives the call that asked for it.

Access traces
-------------
``trace=True`` records every classified access as ``(op, first_page,
n_pages)`` tuples (``op`` is ``"r"`` or ``"w"``) in :attr:`trace`.
Bulk accesses record one tuple — exactly the granularity the
classification happens at — so two devices driven by the same plan
produce bit-identical traces.  Shards of a tracing parent trace
privately; detach appends their traces to the parent in partition
order, keeping the reconciled trace a pure function of the per-shard
plans.

Sharding
--------
A :class:`SimulatedDisk` is a single I/O domain: one head, one set of
counters, no concurrency.  Parallel consumers — the range-partitioned
spilled-run merge, the parallel query fetches — instead open a
:class:`ShardedDisk` session, which fences the parent device and hands
each worker a
:class:`DiskShard`: a private I/O domain with

* a *writable extent* — a contiguous, pre-allocated page range that no
  other shard may touch;
* read-only access to every page the parent held when the session was
  attached (sources written by sibling shards are invisible — snapshot
  isolation);
* its own head position and its own :class:`DiskStats`.

The shard's private store is a **private arena covering its extent**,
seeded with the parent's extent content at attach; detach reconciles
by splicing whole arenas back into the parent in partition order — one
buffer assignment per shard, never a per-page loop.

Because classification depends only on a shard's *own* access sequence,
the sequential/random split of a parallel run is independent of thread
scheduling: executing the same per-shard plans inline, one shard after
another, reproduces every counter bit for bit — the *serial replay
oracle* the equivalence suite pins against.  On detach the shards are
reconciled into the parent deterministically, in partition order:
pages merge into the parent's store, stats add up shard by shard, and
the parent head is parked so the first post-session access classifies
as random no matter how the pool interleaved.
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
    the vectored read by inheriting this — the page stores, and every
    device that wraps another (``BufferPool``, ``FaultyDevice``).  Each
    verb is spelled in the primitives *of ``self``*, so a wrapper's
    cache decisions, checksum verification and fault-plan op indices
    are those of the primitive sequence by construction.
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
    """Contiguous page storage: one ``bytearray`` arena per extent run.

    Arenas are appended in ascending page order (allocation is
    monotonic).  A freshly allocated extent that is physically adjacent
    to the tail arena is *coalesced* into it — grown in place — so
    incrementally built files stay single-arena and their runs stay on
    the zero-copy path of :meth:`run_view`.  Growing a ``bytearray``
    with exported memoryviews raises ``BufferError``, so coalescing
    backs off to a separate arena exactly when a grow could invalidate
    a live view; an arena with no exports never moves data (``extend``
    preserves existing offsets), and once created an arena is never
    removed, so exported views stay valid for the life of the
    container.  All views handed out are read-only; mutation goes
    through :meth:`splice`.
    """

    __slots__ = ("page_size", "starts", "arenas")

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.starts: list[int] = []  # first page id of each arena
        self.arenas: list[bytearray] = []

    def add(self, first_page: int, n_pages: int) -> None:
        """Back a freshly allocated extent with zero-filled storage."""
        grow = n_pages * self.page_size
        if self.arenas:
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

        Runs spanning an arena boundary (physically adjacent pages from
        separate ``allocate`` calls, e.g. an incrementally grown file)
        fall back to a joined ``bytes`` copy — correctness first, the
        zero-copy fast path where allocation made it possible.
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

    def copy_out(self, first_page: int, n_pages: int) -> bytearray:
        """A private copy of a page range (shard-arena seeding)."""
        run = self.run_view(first_page, n_pages)
        return bytearray(run)


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

        Validated once — device state and both ends of the id range —
        before anything is counted, then classified in one vectorized
        step that is bit-identical to issuing :meth:`read_page` /
        :meth:`read_run_bytes` per maximal consecutive run in request
        order: page *i* is sequential iff it is its predecessor + 1
        (the head, for the first), the head ends on the last page, and
        the trace gets one ``("r", first, count)`` tuple per run.

        Returns a **scatter list** ``[(buffer2d, rows), ...]`` whose
        ``rows`` arrays, concatenated, line up with ``pages``:
        ``buffer2d[rows[j]]`` is the page, ``buffer2d`` a read-only
        ``(n, page_size)`` uint8 view of a whole arena (a shard's
        private arena for pages inside its extent, the parent's
        otherwise).  No page is copied.  Entries alias live storage
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
        so interleaved pools can never perturb a parked device's next
        classification.
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
        from page zero.  Consumers (``PagedFile``, ``BufferPool``, the
        spill ``_ExtentWriter``) record intended payloads into it at
        write time; ``verified_reads`` and the ``Scrubber`` check
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
        self._shard_session: "ShardedDisk | None" = None
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
    def allocate(self, n_pages: int = 1) -> int:
        """Reserve ``n_pages`` physically contiguous pages.

        Returns the id of the first page.  Allocation itself performs
        no I/O; pages read as zeros until written.  Each allocation is
        backed by one contiguous arena, so runs inside it stream as
        single zero-copy views.
        """
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        self._check_unsharded("allocate")
        first = self._next_page
        self._next_page += n_pages
        self._arenas.add(first, n_pages)
        return first

    @property
    def pages_allocated(self) -> int:
        return self._next_page

    @property
    def pages_written(self) -> int:
        return len(self._written)

    @property
    def sharded(self) -> bool:
        """Whether a :class:`ShardedDisk` session is currently attached."""
        return self._shard_session is not None

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write_page(self, page_id: int, data) -> None:
        """Write one page, classifying the access by head position.

        ``data`` (bytes or any buffer) may be shorter than a page; the
        tail reads back as zeros either way.
        """
        self._check_unsharded("write_page")
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
        self._check_unsharded("read_page")
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
        self._check_unsharded("read_page")
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
        self._check_unsharded("write_page")
        self._check_page(first_page)
        self._check_page(first_page + n_pages - 1)

    # ------------------------------------------------------------------
    # Diagnostics (no I/O accounting)
    # ------------------------------------------------------------------
    def page_view(self, page_id: int):
        """A full zero-padded page without touching head or counters.

        Zero-copy; used by :class:`repro.storage.bufferpool.BufferPool`
        to admit views instead of copies, by the maintenance plane
        (scrub, WAL scavenging) and by the equivalence suites.
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

    def _check_unsharded(self, operation: str) -> None:
        if self._shard_session is not None:
            raise PageError(
                f"cannot {operation} while a ShardedDisk session is attached; "
                "route I/O through the shards and detach first"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedDisk(page_size={self.page_size}, "
            f"allocated={self._next_page}, written={self.pages_written})"
        )


class DiskShard(_PagedDevice):
    """A private I/O domain over a reserved extent of a parent disk.

    Writes land in a shard-private store restricted to the shard's
    writable extent; reads prefer the private store and fall back to the
    parent's pages as they stood when the session attached (snapshot
    isolation — a sibling shard's concurrent writes are invisible).
    Head position and :class:`DiskStats` are private, so every access
    classification depends only on this shard's own sequence, never on
    how a pool interleaves shards.

    The private store is one contiguous arena covering the extent,
    seeded with the parent's extent content at attach, so extent reads
    are zero-copy views and detach splices the whole arena back in one
    buffer assignment.

    Shards are created by :class:`ShardedDisk`, not directly.
    """

    def __init__(
        self,
        parent: SimulatedDisk,
        first_page: int,
        n_pages: int,
        shard_id: int,
        name: str = "",
    ):
        self.parent = parent
        self.page_size = parent.page_size
        self.cost_model = parent.cost_model
        self.first_page = first_page
        self.extent_pages = n_pages
        self.shard_id = shard_id
        self.name = name or f"shard-{shard_id}"
        self._readable_below = parent.pages_allocated
        self._next_page = first_page
        self._written: set[int] = set()
        # The private store is a single-extent _ExtentArenas covering
        # the writable range — the same arena mechanics as the parent,
        # in one place.  Seeded with the parent's extent content so
        # unwritten pages read (and reconcile) as the snapshot held.
        self._arenas = _ExtentArenas(self.page_size)
        if n_pages:
            self._arenas.starts.append(first_page)
            if parent._written.isdisjoint(range(first_page, first_page + n_pages)):
                # Nothing written in the extent yet: zeros, no copy.
                self._arenas.arenas.append(bytearray(n_pages * self.page_size))
            else:
                self._arenas.arenas.append(
                    parent._arenas.copy_out(first_page, n_pages)
                )
        self._attached = True
        # Session-private checksum sidecar: records made through this
        # shard land here (lookups fall through to the parent chain)
        # and reconcile into the parent map at detach, exactly like the
        # pages; an aborted session drops them with the pages.
        self.checksums = (
            parent.checksums.child() if parent.checksums is not None else None
        )
        self._init_accounting(trace=parent._trace is not None)

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._attached

    @property
    def pages_allocated(self) -> int:
        return self._next_page - self.first_page

    @property
    def pages_written(self) -> int:
        return len(self._written)

    def allocate(self, n_pages: int = 1) -> int:
        """Carve ``n_pages`` from the shard's extent (no parent call)."""
        if n_pages <= 0:
            raise ValueError(f"n_pages must be positive, got {n_pages}")
        self._check_attached()
        if self._next_page + n_pages > self.first_page + self.extent_pages:
            raise PageError(
                f"{self.name}: extent of {self.extent_pages} pages exhausted"
            )
        first = self._next_page
        self._next_page += n_pages
        return first

    # ------------------------------------------------------------------
    def _in_extent(self, page_id: int) -> bool:
        return self.first_page <= page_id < self.first_page + self.extent_pages

    def write_page(self, page_id: int, data) -> None:
        """Write within the shard's extent, classified by its own head."""
        self._check_attached()
        if not self._in_extent(page_id):
            raise PageError(
                f"{self.name}: page {page_id} outside writable extent "
                f"[{self.first_page}, {self.first_page + self.extent_pages})"
            )
        self._check_page_payload(data)
        self._count_write(page_id)
        self._arenas.splice(page_id, data, self.page_size)
        self._written.add(page_id)

    def read_page(self, page_id: int):
        """Read own pages, or any pre-session parent page (read-only).

        Same padded-page contract as :meth:`SimulatedDisk.read_page`.
        """
        self._check_attached()
        in_extent = self._in_extent(page_id)
        if not in_extent and not 0 <= page_id < self._readable_below:
            raise PageError(
                f"{self.name}: page {page_id} is neither in the shard's "
                f"extent nor readable from the parent snapshot "
                f"(< {self._readable_below})"
            )
        self._count_read(page_id)
        if in_extent:
            return self._arenas.page(page_id)
        # Parent pages are immutable while the session is attached
        # (the parent is fenced and sibling writes stay shard-local),
        # so this lookup is safe from any thread.
        return self.parent._arenas.page(page_id)

    # ------------------------------------------------------------------
    # Bytes-level streaming (see SimulatedDisk for the contract)
    # ------------------------------------------------------------------
    def _check_run_readable(self, first_page: int, n_pages: int) -> None:
        """Range check against the snapshot watermark.

        The writable extent is always allocated before the session
        attaches, so the readable set — ``[0, readable_below)`` plus
        the extent — collapses to ``[0, readable_below)``: a run is
        readable iff it stays below the watermark.
        """
        self._check_attached()
        last = first_page + n_pages - 1
        if first_page < 0 or last >= self._readable_below:
            bad = first_page if first_page < 0 else last
            raise PageError(
                f"{self.name}: page {bad} is neither in the shard's "
                f"extent nor readable from the parent snapshot "
                f"(< {self._readable_below})"
            )

    def read_run_bytes(self, first_page: int, n_pages: int):
        """Bulk read of a contiguous run, padded to whole pages.

        Shard-private extent pages take precedence over the parent
        snapshot, and every counter matches ``n_pages`` single-page
        reads exactly.  Returns a single zero-copy view when the run
        lies entirely inside the extent arena or entirely inside one
        parent arena.
        """
        if n_pages <= 0:
            return b""
        self._check_run_readable(first_page, n_pages)
        self._count_read_run(first_page, n_pages)
        return self._run_parts(first_page, n_pages)

    def _run_parts(self, first_page: int, n_pages: int):
        """Compose a run from the extent arena and the parent snapshot.

        The extent is one contiguous range, so a run splits into at
        most three segments: before, inside, after.  Single-segment
        runs return one zero-copy view.
        """
        end = first_page + n_pages
        lo, hi = self.first_page, self.first_page + self.extent_pages
        mid_lo, mid_hi = max(first_page, lo), min(end, hi)
        if mid_lo >= mid_hi:  # entirely outside the extent
            return self.parent._arenas.run_view(first_page, n_pages)
        if first_page >= lo and end <= hi:  # entirely inside
            return self._arenas.run_view(first_page, n_pages)
        parts = []
        if first_page < mid_lo:
            parts.append(self.parent._arenas.run_view(first_page, mid_lo - first_page))
        parts.append(self._arenas.run_view(mid_lo, mid_hi - mid_lo))
        if mid_hi < end:
            parts.append(self.parent._arenas.run_view(mid_hi, end - mid_hi))
        return b"".join(parts)

    def _scatter(self, pages):
        """Extent pages from the private arena, the rest from the parent."""
        inside = (pages >= self.first_page) & (
            pages < self.first_page + self.extent_pages
        )
        entries = []
        for lo, hi in _spans(inside[1:] != inside[:-1]):
            arenas = self._arenas if inside[lo] else self.parent._arenas
            entries.extend(arenas.scatter(pages[lo:hi]))
        return entries

    def write_run_bytes(self, first_page: int, data, n_pages: int) -> None:
        """Bulk write within the shard's extent (see SimulatedDisk)."""
        if n_pages <= 0:
            return
        self._check_write_run(first_page, n_pages)
        self._check_run_payload(data, n_pages)
        self._count_write_run(first_page, n_pages)
        self._arenas.splice(first_page, data, n_pages * self.page_size)
        self._written.update(range(first_page, first_page + n_pages))

    def _check_write_run(self, first_page: int, n_pages: int) -> None:
        self._check_attached()
        last = first_page + n_pages - 1
        if not (
            self.first_page <= first_page
            and last < self.first_page + self.extent_pages
        ):
            raise PageError(
                f"{self.name}: pages [{first_page}, {last}] outside writable "
                f"extent [{self.first_page}, "
                f"{self.first_page + self.extent_pages})"
            )

    # ------------------------------------------------------------------
    def page_view(self, page_id: int):
        """Diagnostic full-page view (no accounting); see SimulatedDisk."""
        if self._in_extent(page_id):
            return self._arenas.page(page_id)
        return self.parent.page_view(page_id)

    def _check_attached(self) -> None:
        if not self._attached:
            raise PageError(f"{self.name} is detached; its session has ended")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiskShard({self.name!r}, extent=[{self.first_page}, "
            f"{self.first_page + self.extent_pages}), "
            f"written={self.pages_written}, attached={self._attached})"
        )


class ShardedDisk:
    """A scoped sharding session over one :class:`SimulatedDisk`.

    ``extents`` lists each shard's writable page range as ``(first_page,
    n_pages)`` pairs; ranges must already be allocated on the parent and
    pairwise disjoint (``n_pages == 0`` marks a shard that only reads).
    While the session is attached the parent rejects direct I/O — the
    explicit lifecycle that replaces the implicit shared global device —
    and every shard operates on its private domain.  A ``read_only``
    session (all extents zero pages) instead leaves the parent live:
    the shards stream immutable pre-session pages — each still on its
    own head, with its own counters — while the consumer keeps using
    the parent (the pipelined final merge pass feeds the bulk loader
    this way).

    Usable as a context manager::

        with ShardedDisk(disk, [(first, n), ...]) as shards:
            ...  # hand one shard to each worker

    Detach reconciles deterministically in partition order: shard pages
    merge into the parent store (each shard's whole extent arena is
    spliced in one buffer assignment — never page by page) and
    shard stats add onto the parent counters shard by shard, then the
    parent head is parked.  The reconciled totals are therefore
    identical for any pool kind or worker count that executes the same
    per-shard plans.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        extents: "list[tuple[int, int]]",
        names: "list[str] | None" = None,
        read_only: bool = False,
    ):
        if disk.sharded:
            raise PageError("disk already has an attached ShardedDisk session")
        if read_only and any(n_pages for _, n_pages in extents):
            raise ValueError("read_only sessions take zero-page extents")
        if names and len(names) != len(extents):
            raise ValueError(f"{len(names)} names for {len(extents)} extents")
        occupied: list[tuple[int, int]] = []
        for first, n_pages in extents:
            if n_pages < 0 or first < 0:
                raise ValueError(f"invalid extent ({first}, {n_pages})")
            if first + n_pages > disk.pages_allocated:
                raise PageError(
                    f"extent ({first}, {n_pages}) exceeds allocated space "
                    f"({disk.pages_allocated} pages)"
                )
            for other_first, other_n in occupied:
                if first < other_first + other_n and other_first < first + n_pages:
                    raise PageError(
                        f"extent ({first}, {n_pages}) overlaps "
                        f"({other_first}, {other_n})"
                    )
            if n_pages:
                occupied.append((first, n_pages))
        self.disk = disk
        self.read_only = read_only
        self.shards = [
            DiskShard(
                disk,
                first,
                n_pages,
                shard_id=i,
                name=(names[i] if names else ""),
            )
            for i, (first, n_pages) in enumerate(extents)
        ]
        self._attached = True
        if not read_only:
            # Writing sessions fence the parent: all I/O goes through
            # the shards until detach.  Read-only sessions leave the
            # parent live — its pre-session pages are immutable, so a
            # consumer may keep appending (e.g. writing index leaves)
            # while the shards stream the sources.
            disk._shard_session = self

    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._attached

    def detach(self) -> DiskStats:
        """Reconcile shards into the parent; returns the merged delta.

        Idempotent.  Reconciliation walks the shards in partition order
        (shard 0 first), merging pages and adding stats, then parks the
        parent head — so the session's effect on the parent is a pure,
        deterministic function of the per-shard plans.  A shard
        reconciles by splicing its whole extent arena into the parent
        arena — one buffer assignment, no per-page loop.
        """
        if not self._attached:
            return DiskStats()
        merged = DiskStats()
        for shard in self.shards:
            if shard.extent_pages:
                self.disk._arenas.splice(
                    shard.first_page,
                    shard._arenas.arenas[0],
                    shard.extent_pages * self.disk.page_size,
                )
                self.disk._written.update(shard._written)
            if self.disk.checksums is not None and shard.checksums is not None:
                self.disk.checksums.absorb(shard.checksums)
            merged = merged + shard._stats
            if self.disk._trace is not None and shard._trace:
                self.disk._trace.extend(shard._trace)
            shard._attached = False
        self.disk._stats = self.disk._stats + merged
        if self.disk._shard_session is self:
            self.disk._shard_session = None
        self.disk.park_head()
        self._attached = False
        return merged

    def abort(self) -> DiskStats:
        """Discard the session without reconciling anything.

        Idempotent.  Shard pages, stats and traces are dropped, the
        parent is unfenced, and the parent head is left exactly where
        it was when the session attached — so an aborted attempt (a
        worker raising an injected device fault, a crashed merge)
        contributes *nothing* to the parent: a later retry or a serial
        fallback on the parent replays as if the attempt never ran.
        """
        if not self._attached:
            return DiskStats()
        for shard in self.shards:
            shard._attached = False
        if self.disk._shard_session is self:
            self.disk._shard_session = None
        self._attached = False
        return DiskStats()

    def __enter__(self) -> "list[DiskShard]":
        return self.shards

    def __exit__(self, exc_type, exc, tb) -> None:
        # A clean exit reconciles; an exception aborts, so a raise
        # mid-session can never leave the parent fenced or merge a
        # half-executed plan into its pages and counters.
        if exc_type is None:
            self.detach()
        else:
            self.abort()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedDisk(shards={len(self.shards)}, attached={self._attached})"
        )
