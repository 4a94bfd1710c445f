"""End-to-end page integrity: CRC sidecar, verified reads, scrub + repair.

A device can flip a single bit of a write *silently* — the op acks,
the corrupt bytes land, and the zero-copy arena path propagates the
flipped view all the way to query answers — and a page written
correctly can decay at rest.  WAL frames and run footers already carry
their own CRCs, but data pages (Coconut run payloads, the raw series
file) had nothing.
This module closes that gap end to end:

* :class:`ChecksumMap` — a per-page CRC32 sidecar keyed by **physical
  page id**.  Checksums are recorded by the *consumer that knows the
  intended payload* (:class:`~repro.storage.pager.PagedFile`) at write
  time, **after the device acks** — never by the device itself.  That
  ordering is load-bearing twice over: a device that corrupts the
  payload in flight has already stored the flipped bytes, so a
  device-level hook would bless the corruption; and a write that faults
  before taking effect must not move the expectation off the bytes that
  are actually on the platter.  Keying by physical id makes the sidecar
  immune to arena extent coalescing (``bytearray.extend`` preserves
  page ids); a read-only :class:`~repro.storage.disk.DiskShard` checks
  against its parent's map.

* **Verified reads** — ``verified_reads=True`` on
  :class:`~repro.storage.seriesfile.RawSeriesFile` hashes every page
  view fetched from the device (``zlib.crc32`` accepts memoryviews, so
  the zero-copy discipline survives — verification never copies) and
  raises :class:`~repro.storage.faults.CorruptionError` with page
  provenance instead of returning flipped bytes.

* :class:`Scrubber` — sweeps the live on-disk regions (raw series
  pages + every Coconut run extent) in bounded increments, detects
  pages whose content no longer matches the sidecar, repairs
  single-bit decay algebraically (see below), and rebuilds corrupt
  runs from the raw file via the ``CoconutLSM`` recovery seam.

Single-bit repair
-----------------
CRC32 is affine over GF(2): for equal-length messages,
``crc(a ^ b) == crc(a) ^ crc(b) ^ crc(0)``.  A page whose content
``x'`` differs from the intended ``x`` by one flipped bit ``e_p``
therefore satisfies ``crc(x') ^ crc(x) == crc(e_p) ^ crc(zeros)`` — a
*syndrome* that depends only on the bit position and the page size,
never on the data.  :func:`single_bit_syndromes` tabulates all
``8 * page_size`` syndromes once per page size (the CRC-32 polynomial
has Hamming distance >= 4 below ~11450 bytes, so the syndromes of an
8 KiB page are pairwise distinct); repair is then one dict lookup and
one bit flip, verified against the recorded CRC before the page is
patched.  Multi-bit damage misses the table and falls through to the
rebuild-from-raw path (runs) or is quarantined (raw pages, where no
redundant copy exists).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from .disk import PageError
from .faults import CorruptionError

__all__ = [
    "ChecksumMap",
    "ScrubReport",
    "Scrubber",
    "checksum_page",
    "single_bit_syndromes",
    "verify_pages",
    "verify_view",
]

_ZEROS: "dict[int, bytes]" = {}
_ZERO_CRC: "dict[int, int]" = {}
_SYNDROMES: "dict[int, dict[int, int]]" = {}


def _zeros(n: int) -> bytes:
    pad = _ZEROS.get(n)
    if pad is None:
        pad = _ZEROS[n] = bytes(n)
    return pad


def zero_page_crc(page_size: int) -> int:
    """CRC of a never-written page: the padded-read contract in a hash."""
    crc = _ZERO_CRC.get(page_size)
    if crc is None:
        crc = _ZERO_CRC[page_size] = zlib.crc32(_zeros(page_size))
    return crc


def checksum_page(data, page_size: int) -> int:
    """CRC32 of ``data`` zero-extended to ``page_size`` bytes.

    This is the *padded-page* checksum: every device read returns
    exactly ``page_size`` bytes with short pages zero-filled, so the
    expectation must hash the same shape.  ``data`` may be ``bytes``,
    ``bytearray`` or a ``memoryview`` — no copy is taken.
    """
    n = len(data)
    if n > page_size:
        raise PageError(f"payload of {n} bytes exceeds page size {page_size}")
    crc = zlib.crc32(data)
    if n < page_size:
        crc = zlib.crc32(_zeros(page_size - n), crc)
    return crc


class ChecksumMap:
    """Per-page CRC32 sidecar keyed by physical page id.

    A page with no entry is *expected to be all zeros* — exactly the
    padded-read contract of the page store, so never-written pages
    verify without any bookkeeping and decay on them is still caught.
    """

    def __init__(self, page_size: int):
        self.page_size = page_size
        self._crcs: "dict[int, int]" = {}

    def __len__(self) -> int:
        return len(self._crcs)

    # ------------------------------------------------------------------
    # Recording (write path: intended payloads only)
    # ------------------------------------------------------------------
    def record_page(self, page_id: int, data) -> None:
        """Record the intended content of one page (short payloads are
        zero-extended, matching the padded write-then-read round trip)."""
        self._crcs[page_id] = checksum_page(data, self.page_size)

    def record_run(self, first_page: int, data, n_pages: int) -> None:
        """Record a multi-page bulk write (``write_run_bytes`` shape).

        Pages past ``len(data)`` are recorded as zero pages — the
        device zero-fills them, and an explicit entry keeps a later
        short rewrite of the run from leaving stale expectations.
        """
        page_size = self.page_size
        view = memoryview(data)
        zero = zero_page_crc(page_size)
        for i in range(n_pages):
            chunk = view[i * page_size : (i + 1) * page_size]
            self._crcs[first_page + i] = (
                checksum_page(chunk, page_size) if len(chunk) else zero
            )

    # ------------------------------------------------------------------
    # Lookup / verification (zero-copy: hashes the given view)
    # ------------------------------------------------------------------
    def expected(self, page_id: int) -> int:
        crc = self._crcs.get(page_id)
        return zero_page_crc(self.page_size) if crc is None else crc

    def recorded(self, page_id: int) -> bool:
        return page_id in self._crcs

    def verify(self, page_id: int, view) -> bool:
        return zlib.crc32(view) == self.expected(page_id)


def verify_view(checksums: "ChecksumMap | None", page_id: int, view, source):
    """Hash ``view`` against the sidecar; raise with provenance on mismatch.

    Returns ``view`` unchanged so callers can verify inline on the
    zero-copy path.  ``source`` names the reader (the file) so a
    raised :class:`CorruptionError` pinpoints *where* the corrupt page
    was about to be served, not just which page it was.
    """
    if checksums is not None:
        actual = zlib.crc32(view)
        expected = checksums.expected(page_id)
        if actual == expected:
            return view
    if checksums is None:
        raise PageError(
            f"{source}: verified_reads requires a ChecksumMap on the device "
            "(construct the SimulatedDisk with integrity=True or call "
            "enable_integrity())"
        )
    error = CorruptionError(
        f"{source}: checksum mismatch on page {page_id} "
        f"(expected {expected:#010x}, got {actual:#010x})"
    )
    error.page_id = page_id
    error.expected_crc = expected
    error.actual_crc = actual
    error.source = source
    raise error


def verify_pages(
    checksums: "ChecksumMap | None",
    first_page: int,
    data,
    n_pages: int,
    page_size: int,
    source,
):
    """:func:`verify_view` every page slice of a page-padded stream.

    ``data`` holds ``n_pages`` consecutive physical pages from
    ``first_page`` on; each slice is hashed in place (zero-copy).
    Returns ``data`` unchanged.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    for i in range(n_pages):
        verify_view(
            checksums,
            first_page + i,
            view[i * page_size : (i + 1) * page_size],
            source,
        )
    return data


# ----------------------------------------------------------------------
# Single-bit syndrome repair
# ----------------------------------------------------------------------
def single_bit_syndromes(page_size: int) -> "dict[int, int]":
    """``crc(x') ^ crc(x)`` for every single-bit flip of a page.

    Built once per page size by extending the eight 1-byte error
    messages one zero byte at a time (``zlib.crc32`` resumes from a
    running value, so each step is O(1)); maps syndrome -> bit index in
    the convention ``raw[bit >> 3] ^= 1 << (bit & 7)``.
    """
    table = _SYNDROMES.get(page_size)
    if table is not None:
        return table
    table = {}
    one = b"\x00"
    bit_crcs = [zlib.crc32(bytes([1 << b])) for b in range(8)]
    zeros_crc = zlib.crc32(one)
    # suffix length s: error byte sits at page offset page_size - 1 - s
    for s in range(page_size):
        byte_at = page_size - 1 - s
        for b in range(8):
            table[bit_crcs[b] ^ zeros_crc] = (byte_at << 3) | b
        if s + 1 < page_size:
            bit_crcs = [zlib.crc32(one, c) for c in bit_crcs]
            zeros_crc = zlib.crc32(one, zeros_crc)
    _SYNDROMES[page_size] = table
    return table


def find_flipped_bit(view, expected_crc: int, page_size: int) -> "int | None":
    """Locate the single flipped bit of a full-page view, if there is one.

    Returns the bit index within the page, or ``None`` when the damage
    is not a single-bit flip (multi-bit decay, torn content).
    """
    if len(view) != page_size:
        raise PageError(
            f"single-bit repair needs a full {page_size}-byte page view, "
            f"got {len(view)} bytes"
        )
    syndrome = zlib.crc32(view) ^ expected_crc
    return single_bit_syndromes(page_size).get(syndrome)


# ----------------------------------------------------------------------
# In-place patching (store internals)
# ----------------------------------------------------------------------
def _store_page(disk, page_id: int, data: bytes) -> None:
    """Patch a page directly in the backing store: no stats, no head
    movement, no checksum update — the maintenance-plane twin of
    ``page_view``.  Scrub repair uses it so healing a page never
    perturbs the deterministic I/O accounting the equivalence suites
    pin."""
    page_size = disk.page_size
    if len(data) != page_size:
        raise PageError(f"patch must be a full page ({page_size} bytes)")
    disk._arenas.splice(page_id, data, page_size)


# ----------------------------------------------------------------------
# Scrubber
# ----------------------------------------------------------------------
@dataclass
class ScrubReport:
    """What one sweep (or one bounded step) found and fixed."""

    pages_scanned: int = 0
    corrupt_pages: "list[int]" = field(default_factory=list)
    repaired_pages: "list[int]" = field(default_factory=list)
    quarantined_runs: "list[int]" = field(default_factory=list)
    rebuilt_runs: int = 0
    unrepairable_pages: "list[int]" = field(default_factory=list)
    complete: bool = False

    def merge(self, other: "ScrubReport") -> None:
        self.pages_scanned += other.pages_scanned
        self.corrupt_pages.extend(other.corrupt_pages)
        self.repaired_pages.extend(other.repaired_pages)
        self.quarantined_runs.extend(other.quarantined_runs)
        self.rebuilt_runs += other.rebuilt_runs
        self.unrepairable_pages.extend(other.unrepairable_pages)
        self.complete = other.complete

    def as_dict(self) -> dict:
        return {
            "pages_scanned": self.pages_scanned,
            "corrupt_pages": len(self.corrupt_pages),
            "repaired_pages": len(self.repaired_pages),
            "quarantined_runs": len(self.quarantined_runs),
            "rebuilt_runs": self.rebuilt_runs,
            "unrepairable_pages": len(self.unrepairable_pages),
            "complete": self.complete,
        }


class Scrubber:
    """Background integrity sweep over the live on-disk regions.

    Targets are the pages queries can actually reach: the raw series
    file's live pages and every Coconut run's extent (data pages +
    footer).  WAL pages are excluded by design — frames self-verify
    with their own CRCs and the append path read-back-verifies before
    acking — and dead regions (truncated raw tail, stale pre-recovery
    extents) are unreachable, so a sweep that finds them rotten would
    have nothing sound to restore them *to*.

    ``step()`` scans at most ``pages_per_step`` pages and returns, so a
    caller holding the ingest lock (the online service) never blocks
    serving for more than a bounded slice; a served snapshot's
    read-only ``DiskShard`` is unaffected throughout because scrub reads
    ride the diagnostics plane (``page_view`` — no simulated I/O charge, no
    head movement).  Targets are re-snapshotted
    at the start of each sweep, so runs retired by compaction between
    sweeps simply fall out of scope.

    Repair policy, per corrupt page:

    1. single-bit decay -> algebraic repair in place (syndrome lookup),
       verified against the recorded CRC before patching;
    2. anything worse inside a run extent -> quarantine the run and
       rebuild it from the raw file through the ``CoconutLSM`` recovery
       seam (``_rebuild_run``), falling back to the in-memory mirrors
       when the raw range itself cannot be read back clean;
    3. anything worse in the raw file -> quarantined (listed in
       ``unrepairable``): raw pages are the source of truth, and
       verified reads keep refusing to serve them — loudly, never
       silently.
    """

    def __init__(
        self,
        disk,
        lsm=None,
        raw=None,
        checksums: "ChecksumMap | None" = None,
        pages_per_step: int = 256,
    ):
        if pages_per_step <= 0:
            raise ValueError("pages_per_step must be positive")
        self.disk = disk
        self.lsm = lsm
        self.raw = raw
        self.checksums = (
            checksums if checksums is not None else getattr(disk, "checksums", None)
        )
        if self.checksums is None:
            raise PageError(
                "Scrubber requires a ChecksumMap (enable integrity on the disk)"
            )
        self.pages_per_step = pages_per_step
        self.unrepairable: "set[int]" = set()
        self.total = ScrubReport()
        self.n_sweeps = 0
        self.n_steps = 0
        self._cursor: "tuple[list, int, int] | None" = None

    # ------------------------------------------------------------------
    # Target discovery
    # ------------------------------------------------------------------
    def _raw_file(self):
        if self.raw is not None:
            return self.raw
        lsm = self.lsm
        return getattr(lsm, "raw", None) if lsm is not None else None

    def _targets(self) -> list:
        """``(kind, run, first_physical, n_pages)`` segments to sweep.

        Raw segments come first: run repair rebuilds from raw, so the
        source of truth must be verified (and single-bit-healed) before
        anything is rebuilt on top of it.
        """
        targets: list = []
        raw = self._raw_file()
        if raw is not None and raw.n_series:
            live = raw.live_pages
            for first, n_pages in raw.file._physical_runs(0, live):
                targets.append(("raw", None, first, n_pages))
        lsm = self.lsm
        if lsm is not None:
            for run in lsm._runs:
                file = run.file
                for first, n_pages in file._physical_runs(0, file.n_pages):
                    targets.append(("run", run, first, n_pages))
        return targets

    # ------------------------------------------------------------------
    # Sweeping
    # ------------------------------------------------------------------
    def step(self, max_pages: "int | None" = None) -> ScrubReport:
        """Scan a bounded slice of the current sweep; repair what it hits.

        A new sweep starts automatically when the previous one
        completed.  A corrupt-run rebuild is charged to the step that
        finished scanning that run's segment.
        """
        budget = self.pages_per_step if max_pages is None else max_pages
        if budget <= 0:
            raise ValueError("max_pages must be positive")
        if self._cursor is None:
            self._cursor = (self._targets(), 0, 0)
        targets, ti, offset = self._cursor
        report = ScrubReport()
        self.n_steps += 1
        while budget > 0 and ti < len(targets):
            kind, run, first, n_pages = targets[ti]
            take = min(budget, n_pages - offset)
            corrupt = self._scan_segment(first + offset, take, report)
            if corrupt:
                self._repair(kind, run, corrupt, report)
            budget -= take
            offset += take
            if offset >= n_pages:
                ti, offset = ti + 1, 0
        if ti >= len(targets):
            report.complete = True
            self._cursor = None
            self.n_sweeps += 1
        else:
            self._cursor = (targets, ti, offset)
        self.total.merge(report)
        return report

    def sweep(self, max_pages: "int | None" = None) -> ScrubReport:
        """Run a full sweep (restarting any partial one) to completion."""
        self._cursor = None
        report = ScrubReport()
        while True:
            report.merge(self.step(max_pages))
            if report.complete:
                return report

    def _scan_segment(self, first: int, n_pages: int, report: ScrubReport):
        checksums = self.checksums
        view_of = self.disk.page_view
        corrupt: "list[int]" = []
        for page in range(first, first + n_pages):
            if not checksums.verify(page, view_of(page)):
                corrupt.append(page)
        report.pages_scanned += n_pages
        report.corrupt_pages.extend(corrupt)
        return corrupt

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _patch_single_bit(self, page: int) -> bool:
        view = self.disk.page_view(page)
        expected = self.checksums.expected(page)
        bit = find_flipped_bit(view, expected, self.disk.page_size)
        if bit is None:
            return False
        raw = bytearray(view)
        del view  # release the exported view before the store mutates
        raw[bit >> 3] ^= 1 << (bit & 7)
        if zlib.crc32(raw) != expected:  # pragma: no cover - syndrome table bug
            return False
        _store_page(self.disk, page, bytes(raw))
        return True

    def _repair(self, kind: str, run, corrupt: "list[int]", report: ScrubReport):
        remaining = []
        for page in corrupt:
            if self._patch_single_bit(page):
                report.repaired_pages.append(page)
                self.unrepairable.discard(page)
            else:
                remaining.append(page)
        if kind == "run" and corrupt:
            # Quarantine = the run had corruption this step; repaired
            # in place or rebuilt, it is re-verified before release.
            report.quarantined_runs.append(run.file.physical_page(0))
        if not remaining:
            return
        if kind == "run":
            self._rebuild_run(run, remaining, report)
        else:
            for page in remaining:
                self.unrepairable.add(page)
                report.unrepairable_pages.append(page)

    def _rebuild_run(self, run, pages: "list[int]", report: ScrubReport):
        lsm = self.lsm
        from ..core.wal import run_footer

        payload = lsm._pack_records(run.keys, run.offsets)
        crc = zlib.crc32(payload)
        rebuilt = False
        meta = lsm.run_meta_of(run)
        if meta is not None:
            try:
                lsm._rebuild_run(run.file, meta)
                lsm.n_rebuilt_runs += 1
                rebuilt = True
            except (CorruptionError, PageError):
                # The raw range would not read back clean (or no longer
                # matches): fall through to the in-memory mirrors, the
                # same arrays every query answer is already computed
                # from.
                rebuilt = False
        if not rebuilt:
            run.file.write_stream(payload)
            if run.file.n_pages > run.data_pages:
                run.file.write(run.data_pages, run_footer(len(run.keys), crc))
        report.rebuilt_runs += 1
        # Release from quarantine only if the extent now verifies.
        for first, n_pages in run.file._physical_runs(0, run.file.n_pages):
            for page in range(first, first + n_pages):
                if not self.checksums.verify(page, self.disk.page_view(page)):
                    self.unrepairable.add(page)
                    report.unrepairable_pages.append(page)
                else:
                    self.unrepairable.discard(page)
