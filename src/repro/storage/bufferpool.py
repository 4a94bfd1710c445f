"""An LRU buffer pool over the simulated disk (or one shard of it).

The buffer pool models the main-memory budget M of the disk access
model: pages cached in the pool are served without disk I/O, so an
index whose working set fits in the pool behaves as if it were in
memory, while a larger working set degrades to disk-bound behaviour —
the transition every experiment in the paper sweeps across.

Pools support ``with`` (detach on exit, even on error paths), so a
worker that fails mid-stream can never leave a pool bound to a shard
its session is about to reconcile::

    with BufferPool(shard, capacity_pages=8) as pool:
        ...  # every read through the pool lands on the shard

A pool is bound to exactly one device at a time — the shared
:class:`repro.storage.disk.SimulatedDisk` or, in a sharded session, one
worker's private :class:`repro.storage.disk.DiskShard`.  Pools are
*shard-scoped*: a parallel worker never shares its pool (or its cache
state) with another thread, so cache decisions — like the I/O
classification of the shard underneath — are a deterministic function
of that worker's own access sequence.  The explicit
:meth:`attach`/:meth:`detach` lifecycle replaces reaching for an
implicit global device: detaching drops the cache and disconnects the
pool, and re-attaching (to the parent after a session, or to a new
shard) starts from a cold cache, never from another domain's pages.

The pool is itself a device (it forwards ``page_size`` and
``allocate``), so a :class:`repro.storage.pager.PagedFile` view can be
attached directly to a pool to read a file through it.
"""

from __future__ import annotations

from collections import OrderedDict

from .disk import PageError, SimulatedDisk, _DerivedVerbs
from .integrity import verify_view


class BufferPool(_DerivedVerbs):
    """Read cache with LRU eviction and write-through semantics.

    ``read_run`` / ``write_run`` / ``read_pages`` are the derived verbs
    of :class:`repro.storage.disk._DerivedVerbs`, spelled in the
    cache-aware primitives below — a vectored read through a pool
    makes, page for page, the hit / miss / admission decisions of the
    per-run reads it replays.

    Parameters
    ----------
    disk:
        The underlying device (a disk or a shard); may be ``None`` to
        create the pool detached and :meth:`attach` one later.
    capacity_pages:
        Maximum number of cached pages.  Zero disables caching, which
        makes every access hit the disk (useful for worst-case runs).
    verified_reads:
        Hash every page fetched from the device against the device's
        :class:`repro.storage.integrity.ChecksumMap` before admitting
        it, raising :class:`repro.storage.faults.CorruptionError` with
        page provenance instead of caching (and serving) flipped
        bytes.  Verification hashes the device's existing view — the
        zero-copy read path is preserved.  Cache hits are not
        re-hashed: admitted views were verified, and the lifecycle
        forbids out-of-band writes underneath a pool.
    """

    def __init__(
        self,
        disk: SimulatedDisk | None,
        capacity_pages: int,
        verified_reads: bool = False,
    ):
        if capacity_pages < 0:
            raise ValueError(f"capacity_pages must be >= 0, got {capacity_pages}")
        self.disk = disk
        self.capacity_pages = capacity_pages
        self.verified_reads = verified_reads
        # Full zero-padded pages; on arena devices these are zero-copy
        # views of the device arena (admission and eviction move
        # references, never payload bytes).
        self._cache: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self.disk is not None

    def attach(self, device) -> "BufferPool":
        """Bind the pool to ``device``, starting from a cold cache.

        Cached pages never survive a re-bind: a page id on one shard
        and the same id on the parent are the same physical page, but
        the cache of one I/O domain must not answer for another —
        that is exactly the implicit sharing the lifecycle forbids.
        """
        self.invalidate()
        self.disk = device
        return self

    def detach(self) -> None:
        """Disconnect from the device, dropping every cached page."""
        self.invalidate()
        self.disk = None

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc_info) -> None:
        # Detaching on every exit path keeps error handling honest: a
        # worker that dies mid-merge cannot leave a pool holding a
        # reference (and cached pages) of a shard that is about to be
        # reconciled.  Detach is idempotent, so nested use is safe.
        self.detach()

    def _require_attached(self) -> SimulatedDisk:
        if self.disk is None:
            raise PageError("buffer pool is detached; attach a device first")
        return self.disk

    # ------------------------------------------------------------------
    # Device passthrough (so PagedFile views can bind to a pool)
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        return self._require_attached().page_size

    def allocate(self, n_pages: int = 1, file_end: int | None = None) -> int:
        return self._require_attached().allocate(n_pages, file_end=file_end)

    @property
    def checksums(self):
        """The device's integrity sidecar (``None`` when disabled), so
        consumers writing through a pool record exactly as they would
        against the device directly."""
        return getattr(self._require_attached(), "checksums", None)

    def _check_write_run(self, first_page: int, n_pages: int) -> None:
        self._require_attached()._check_write_run(first_page, n_pages)

    def _check_page_payload(self, data) -> None:
        self._require_attached()._check_page_payload(data)

    def _source(self) -> str:
        return f"BufferPool({self.disk!r})"

    def _verify(self, page_id: int, data):
        return verify_view(self.checksums, page_id, data, self._source)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(self, page_id: int):
        """Read through the cache; a miss costs one disk read.

        Returns a full zero-padded page, exactly as the device would:
        on arena devices both the miss and every later hit serve the
        same zero-copy view of the device arena — the cache holds
        views, it never copies page payloads.

        One caveat follows from holding views: a write that bypasses
        the pool straight to the device shows through the cache (a
        view is a window) unless the device handed out copies (then the
        cached bytes are a snapshot).  The lifecycle already forbids
        that pattern — a pool is its domain's only access path; use
        :meth:`invalidate` if an out-of-band write is ever unavoidable.
        """
        device = self._require_attached()
        if page_id in self._cache:
            self.hits += 1
            self._cache.move_to_end(page_id)
            return self._cache[page_id]
        self.misses += 1
        data = device.read_page(page_id)
        if self.verified_reads:
            self._verify(page_id, data)
        self._admit(page_id, data)
        return data

    # PagedFile calls the device vocabulary; route it through the cache.
    read_page = read

    def write(self, page_id: int, data) -> None:
        """Write through to disk, updating the cached copy.

        The admitted copy is the device's own page view when the
        device exposes one (zero-copy, already padded), so a later hit
        equals a later miss byte for byte.
        """
        device = self._require_attached()
        device.write_page(page_id, data)
        checksums = getattr(device, "checksums", None)
        if checksums is not None:
            checksums.record_page(page_id, data)
        self._admit(page_id, self._device_page(device, page_id, data))

    write_page = write

    @staticmethod
    def _device_page(device, page_id: int, data):
        """What a read of ``page_id`` would now return, without I/O."""
        view = getattr(device, "page_view", None)
        if view is not None:
            return view(page_id)
        return bytes(data).ljust(device.page_size, b"\x00")

    # ------------------------------------------------------------------
    # Bytes-level streaming (the PagedFile fast path, cache-aware)
    # ------------------------------------------------------------------
    def read_run_bytes(self, first_page: int, n_pages: int):
        """Bulk read through the cache, padded to whole pages.

        Hits and misses are counted page by page exactly as
        :meth:`read` would, consecutive misses are fetched from the
        device in one bulk call (their classification equals the
        per-page sequence: first access against the head, the rest
        sequential), and admissions happen in ascending page order so
        the LRU state matches the per-page path.  Nothing is copied on
        the way through: a fully-missed run is passed upward exactly as
        the device returned it (one view on arena devices), per-page
        admissions are sub-views of that same buffer, and cache hits
        contribute the cached full-page views directly.
        """
        if n_pages <= 0:
            return b""
        device = self._require_attached()
        page_size = device.page_size
        bulk = getattr(device, "read_run_bytes", None)
        cache = self._cache
        parts: list = []
        page = first_page
        end = first_page + n_pages
        while page < end:
            if page in cache:
                self.hits += 1
                cache.move_to_end(page)
                parts.append(cache[page])
                page += 1
                continue
            stop = page + 1
            while stop < end and stop not in cache:
                stop += 1
            self.misses += stop - page
            if bulk is not None:
                blob = bulk(page, stop - page)
                # Native slicing admits the right thing for the blob's
                # provenance: memoryview blobs (arena) slice into
                # zero-copy sub-views of storage the device owns
                # anyway; bytes blobs (joined temporaries) slice into
                # per-page copies, so a cached page never pins the
                # whole transient run buffer.
                for i in range(stop - page):
                    chunk = blob[i * page_size : (i + 1) * page_size]
                    if self.verified_reads:
                        self._verify(page + i, chunk)
                    self._admit(page + i, chunk)
                parts.append(blob)
            else:  # pragma: no cover - devices without the bulk interface
                for p in range(page, stop):
                    data = bytes(device.read_page(p)).ljust(
                        page_size, b"\x00"
                    )
                    if self.verified_reads:
                        self._verify(p, data)
                    self._admit(p, data)
                    parts.append(data)
            page = stop
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def write_run_bytes(self, first_page: int, data, n_pages: int) -> None:
        """Bulk write-through; cached copies match the per-page path."""
        if n_pages <= 0:
            return
        device = self._require_attached()
        page_size = device.page_size
        bulk = getattr(device, "write_run_bytes", None)
        view = memoryview(data)
        if bulk is not None:
            bulk(first_page, view, n_pages)
            checksums = getattr(device, "checksums", None)
            if checksums is not None:
                checksums.record_run(first_page, view, n_pages)
            for i in range(n_pages):
                self._admit(
                    first_page + i,
                    self._device_page(
                        device,
                        first_page + i,
                        view[i * page_size : (i + 1) * page_size],
                    ),
                )
        else:  # pragma: no cover - devices without the bulk interface
            for i in range(n_pages):
                self.write(
                    first_page + i,
                    view[i * page_size : (i + 1) * page_size],
                )

    def _admit(self, page_id: int, data) -> None:
        if self.capacity_pages == 0:
            return
        self._cache[page_id] = data
        self._cache.move_to_end(page_id)
        while len(self._cache) > self.capacity_pages:
            self._cache.popitem(last=False)

    def invalidate(self, page_id: int | None = None) -> None:
        """Drop one page (or everything) from the cache."""
        if page_id is None:
            self._cache.clear()
        else:
            self._cache.pop(page_id, None)

    @property
    def cached_pages(self) -> int:
        return len(self._cache)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool(capacity={self.capacity_pages}, "
            f"cached={len(self._cache)}, hit_rate={self.hit_rate:.2f})"
        )
