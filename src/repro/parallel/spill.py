"""Sharded parallel merging of file-backed (spilled) sorted runs.

The in-memory range-partitioned merge (:mod:`repro.parallel.merge`)
cannot touch *spilled* runs: they live on the simulated disk, and a
:class:`repro.storage.disk.SimulatedDisk` is a single I/O domain — one
head, one set of counters, no concurrency.  This module merges spilled
runs on a worker pool by giving every partition its own I/O domain:

1. splitter keys are sampled from the runs' in-memory key mirrors
   (:func:`repro.parallel.merge.sample_splitters` — the mirrors are the
   sortable summarizations themselves, which the paper's premise puts
   in main memory, mirroring how ``CoconutLSM`` already keeps each
   run's key column resident);
2. every run is cut at the splitters with the shared ``side="left"``
   rule (:func:`repro.parallel.merge.run_cut_positions`), so all
   records of equal key land in one partition and ties keep resolving
   by (run order, position) — the stable-merge invariant;
3. a :class:`repro.storage.disk.ShardedDisk` session fences the parent
   device and hands each partition a :class:`~repro.storage.disk.
   DiskShard`; the worker reads its record slices of every source run
   through read-only :class:`~repro.storage.pager.PagedFile` views
   bound to a *per-shard* :class:`~repro.storage.bufferpool.
   BufferPool`, merges them with the block-wise k-way merge
   (:mod:`repro.storage.merge`), and writes its slice of the output —
   a disjoint extent of pre-allocated pages — through its shard;
4. pages straddling a partition byte boundary belong to no shard; the
   workers return those edge fragments and the coordinator writes the
   assembled boundary pages on the parent after detach, in page order.

The output file's byte stream is therefore *identical* to what the
serial streaming merge would have written — records packed contiguously
from byte zero — and the merged record stream is bit-identical to the
serial stable merge for any splitter sample.

Determinism contract
--------------------
Each shard's access sequence is a pure function of (sources, splitters,
buffer size) — never of pool scheduling — and each shard classifies
against its own head.  Running the same plan inline
(``pool_kind="serial"``) is the **serial replay oracle**: the
reconciled :class:`~repro.storage.cost.DiskStats` of a threaded run
are bit-identical to it for any worker count.  The equivalence suite
(``tests/test_sharded_storage.py``) property-tests both halves: stream
equality against the fully-serial merge, stats equality against the
serial replay.

Partitions run on the repository's one pool
(:mod:`repro.parallel.pool`): threads — the shards live in this
process, and the merge payloads are multi-page NumPy blocks whose
searchsorted/argsort work releases the GIL — or inline with
``pool_kind="serial"``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from ..storage.bufferpool import BufferPool
from ..storage.disk import PageError, ShardedDisk, SimulatedDisk
from ..storage.merge import (
    RunCursor,
    _ChunkEmitter,
    merge_stream,
)
from ..storage.pager import PagedFile
from .heal import HealReport, RetryPolicy, run_self_healing
from .merge import run_cut_positions, sample_splitters
from .pool import check_pool_kind, pool_map

#: Pages cached by each worker's shard-scoped read pool.  Source reads
#: stream forward and never revisit a page, so the pool affects no
#: counter — it exists so every worker's reads go through its own
#: cache domain, never a shared one.
SHARD_POOL_PAGES = 8


@dataclass
class ShardedMergeResult:
    """Outcome of one sharded group merge."""

    file: PagedFile  # merged run, bound to the parent disk
    n_records: int
    n_partitions: int
    splitters: np.ndarray
    keys: np.ndarray | None = None  # merged key column (collect="keys"/"records")
    payloads: np.ndarray | None = None  # merged payloads (collect="records")
    n_heal_attempts: int = 1  # attempts the healing loop spent on this merge


class _ExtentWriter:
    """Stream one partition's output bytes into its shard extent.

    Bytes land page by page: full pages inside the partition's interior
    page range ``[fp, ep)`` are written through the shard; bytes on the
    boundary pages shared with neighboring partitions are returned as
    ``(page, offset, data)`` fragments for the coordinator to assemble
    after the session detaches.
    """

    def __init__(self, device, base_page: int, byte_lo: int, byte_hi: int):
        self.device = device
        self.base_page = base_page
        self.page_size = device.page_size
        self.byte_lo = byte_lo
        self.byte_hi = byte_hi
        self.fp = -(-byte_lo // self.page_size)
        self.ep = max(self.fp, byte_hi // self.page_size)
        self.pos = byte_lo
        self.buf = bytearray()
        self.fragments: list[tuple[int, int, bytes]] = []
        # Integrity sidecar of the shard session (None when disabled):
        # interior pages record the *intended* payload here at write
        # time — above any FaultyDevice wrap, so an in-flight flip can
        # never bless itself — and reconcile into the parent map at
        # detach along with the pages.
        self.checksums = getattr(device, "checksums", None)

    def push(self, data: bytes) -> None:
        if self.buf:
            data = bytes(self.buf) + data
            self.buf.clear()
        view = memoryview(data)
        at, n = 0, len(data)
        page_size = self.page_size
        while at < n:
            page, offset = divmod(self.pos, page_size)
            if self.fp <= page < self.ep:
                # Interior pages always start aligned; hold bytes until
                # a full page is ready, then write it through the shard
                # (the view splices straight into the shard arena).
                if n - at < page_size:
                    break
                self.device.write_page(
                    self.base_page + page, view[at : at + page_size]
                )
                if self.checksums is not None:
                    self.checksums.record_page(
                        self.base_page + page, view[at : at + page_size]
                    )
                at += page_size
                self.pos += page_size
            else:
                take = min(n - at, page_size - offset)
                self.fragments.append((page, offset, bytes(view[at : at + take])))
                at += take
                self.pos += take
        if at < n:
            self.buf += view[at:]

    def close(self) -> None:
        if self.pos != self.byte_hi or self.buf:
            raise PageError(
                f"partition writer stopped at byte {self.pos} of "
                f"[{self.byte_lo}, {self.byte_hi}) with {len(self.buf)} "
                "bytes pending"
            )


def _merge_partition_to_shard(
    shard,
    sources: "list[tuple[PagedFile, int, np.ndarray]]",
    cuts: "list[np.ndarray]",
    p: int,
    rec_dtype: np.dtype,
    buffer_records: int,
    byte_lo: int,
    byte_hi: int,
    out_first: int,
    collect: str | None,
):
    """One partition's work unit: read slices, merge, write the extent.

    Every I/O lands on ``shard`` (reads via a shard-scoped buffer
    pool), so the access sequence — and with it the classification —
    is independent of the other partitions and of pool scheduling.
    """
    key_parts: list[np.ndarray] = []
    payload_parts: list[np.ndarray] = []
    with BufferPool(shard, capacity_pages=SHARD_POOL_PAGES) as pool:
        slices = []
        for (file, _, _), cut in zip(sources, cuts):
            lo, hi = int(cut[p]), int(cut[p + 1])
            if hi > lo:
                slices.append((file.attach(pool), hi - lo, lo))
        writer = _ExtentWriter(shard, out_first, byte_lo, byte_hi)
        for chunk_keys, chunk_payloads in merge_stream(
            slices, rec_dtype, buffer_records
        ):
            block = np.empty(len(chunk_keys), dtype=rec_dtype)
            block["k"] = chunk_keys
            block["v"] = chunk_payloads
            writer.push(block.tobytes())
            if collect:
                key_parts.append(chunk_keys)
                if collect == "records":
                    payload_parts.append(chunk_payloads)
        writer.close()

    def _concat(parts: "list[np.ndarray]", field: str) -> np.ndarray:
        if parts:
            return np.concatenate(parts)
        empty = np.empty(0, dtype=rec_dtype)
        return empty[field].copy()

    keys = _concat(key_parts, "k") if collect else None
    payloads = _concat(payload_parts, "v") if collect == "records" else None
    return writer.fragments, keys, payloads


def _write_boundary_pages(
    disk: SimulatedDisk,
    out_first: int,
    fragments: "list[tuple[int, int, bytes]]",
) -> None:
    """Assemble and write the pages that straddle partition boundaries.

    Fragments are grouped per page and must tile it contiguously from
    offset zero (the last page of the file may end early).  Pages are
    written in ascending order on the parent — a deterministic
    coordinator epilogue, the same for every pool kind.
    """
    by_page: dict[int, list[tuple[int, bytes]]] = {}
    for page, offset, data in fragments:
        by_page.setdefault(page, []).append((offset, data))
    checksums = getattr(disk, "checksums", None)
    for page in sorted(by_page):
        pieces = sorted(by_page[page])
        at = 0
        parts = []
        for offset, data in pieces:
            if offset != at:
                raise PageError(
                    f"boundary page {page} has a gap at byte {at} "
                    f"(next fragment at {offset})"
                )
            parts.append(data)
            at += len(data)
        assembled = b"".join(parts)
        disk.write_page(out_first + page, assembled)
        if checksums is not None:
            checksums.record_page(out_first + page, assembled)


def sharded_spill_merge(
    disk: SimulatedDisk,
    sources: "list[tuple[PagedFile, int, np.ndarray]]",
    rec_dtype: np.dtype,
    n_partitions: int,
    buffer_records: int,
    pool_kind: str = "thread",
    splitters: np.ndarray | None = None,
    collect: str | None = None,
    out_name: str = "sharded-merge",
    wrap_device=None,
    heal_policy: "RetryPolicy | None" = None,
    heal_report: "HealReport | None" = None,
) -> ShardedMergeResult:
    """Merge spilled runs into one new run via per-partition shards.

    Parameters
    ----------
    sources:
        ``(file, n_records, keys)`` per run — the run file on ``disk``,
        its record count, and its in-memory key mirror (used only for
        splitter sampling and cutting; no planning I/O).
    n_partitions:
        Partitions requested; the effective count may be lower when the
        key space yields fewer distinct splitters.  The I/O plan — and
        therefore every reconciled counter — depends only on
        (sources, splitters, buffer_records), never on the pool.
    pool_kind:
        ``"serial"`` executes partitions inline in partition order (the
        serial replay oracle); ``"thread"`` runs them on a thread pool
        sized to the partition count.
    splitters:
        Explicit splitter keys (ascending, deduplicated) override the
        sample — the equivalence property is quantified over them.
    collect:
        ``"keys"`` returns the merged key column (cascade passes need
        it to cut the next pass); ``"records"`` returns keys and
        payloads (LSM compaction mirrors).
    wrap_device:
        Optional ``(shard, partition, attempt) -> device`` fault seam:
        every partition's I/O is routed through its return value.  When
        an attempt raises a device fault the session aborts (parent
        unfenced, output extent untouched) and transients are retried
        per ``heal_policy`` (default :class:`RetryPolicy`) — a
        successful retry re-issues the same plan against the same
        pre-allocated extent, so the result and reconciled stats are
        bit-identical to a fault-free run.  Non-transient faults
        propagate; the caller degrades (e.g. ``CoconutLSM`` falls back
        to its serial compaction).  Attempt counts land on the result's
        ``n_heal_attempts`` and, when given, on ``heal_report``.
    """
    check_pool_kind(pool_kind)
    splitters, cuts = _cut_sources(sources, n_partitions, splitters)
    n_parts = len(splitters) + 1
    itemsize = rec_dtype.itemsize
    page_size = disk.page_size
    # Partition record counts -> output byte ranges in the packed layout.
    part_records = np.sum(
        [np.diff(cut) for cut in cuts], axis=0, dtype=np.int64
    )
    record_starts = np.concatenate([[0], np.cumsum(part_records)])
    total_records = int(record_starts[-1])
    if total_records == 0:
        raise ValueError("sharded_spill_merge requires non-empty sources")
    total_pages = -(-total_records * itemsize // page_size)
    out_first = disk.allocate(total_pages)
    byte_ranges = [
        (int(record_starts[p]) * itemsize, int(record_starts[p + 1]) * itemsize)
        for p in range(n_parts)
    ]
    extents = []
    for byte_lo, byte_hi in byte_ranges:
        fp = -(-byte_lo // page_size)
        ep = max(fp, byte_hi // page_size)
        extents.append((out_first + fp, ep - fp))
    def attempt(attempt_index: int):
        # A fresh session per attempt: a faulting attempt aborts on
        # exit (parent unfenced, extent untouched, no stats), so a
        # retry re-issues the identical plan against a clean slate.
        session = ShardedDisk(
            disk, extents, names=[f"{out_name}-p{p}" for p in range(n_parts)]
        )
        with session as shards:
            devices = [
                shards[p]
                if wrap_device is None
                else wrap_device(shards[p], p, attempt_index)
                for p in range(n_parts)
            ]
            return pool_map(
                lambda p: _merge_partition_to_shard(
                    devices[p], sources, cuts, p, rec_dtype, buffer_records,
                    *byte_ranges[p], out_first, collect,
                ),
                [range(n_parts)],
                n_parts,
                pool_kind,
            )

    local_report = HealReport()
    try:
        results = run_self_healing(
            attempt,
            policy=heal_policy,
            report=local_report,
            label=f"sharded spill merge {out_name!r}",
        )
    finally:
        # Merge even when the fault propagates: the caller's degraded
        # serial compaction still wants the attempts it paid for.
        if heal_report is not None:
            heal_report.merge(local_report)
    fragments = [piece for frags, _, _ in results for piece in frags]
    _write_boundary_pages(disk, out_first, fragments)
    keys = payloads = None
    if collect:
        keys = np.concatenate([k for _, k, _ in results])
    if collect == "records":
        payloads = np.concatenate([v for _, _, v in results])
    file = PagedFile.from_extent(disk, out_first, total_pages, name=out_name)
    return ShardedMergeResult(
        file=file,
        n_records=total_records,
        n_partitions=n_parts,
        splitters=splitters,
        keys=keys,
        payloads=payloads,
        n_heal_attempts=local_report.n_attempts,
    )


#: Chunks buffered per partition stream before backpressure kicks in.
STREAM_QUEUE_CHUNKS = 2


class _PairEmitter:
    """Re-chunk (keys, payloads) pairs to the serial merge's shapes.

    Same contract as :class:`repro.storage.merge._ChunkEmitter` — full
    ``out_records`` chunks, then one partial — but fed with the column
    pairs the merge streams yield, avoiding a structured repack.
    """

    def __init__(self, rec_dtype: np.dtype, out_records: int):
        self.buf = np.empty(max(1, out_records), dtype=rec_dtype)
        self.filled = 0

    def push(self, keys: np.ndarray, payloads: np.ndarray):
        cap = len(self.buf)
        at = 0
        while at < len(keys):
            n = min(len(keys) - at, cap - self.filled)
            self.buf["k"][self.filled : self.filled + n] = keys[at : at + n]
            self.buf["v"][self.filled : self.filled + n] = payloads[at : at + n]
            self.filled += n
            at += n
            if self.filled == cap:
                yield self.buf["k"].copy(), self.buf["v"].copy()
                self.filled = 0

    def flush(self):
        if self.filled:
            yield (
                self.buf["k"][: self.filled].copy(),
                self.buf["v"][: self.filled].copy(),
            )
            self.filled = 0


def _cut_sources(sources, n_partitions, splitters):
    """Shared planning: validate sources, sample splitters, cut runs."""
    if not sources:
        raise ValueError("sharded merge requires at least one source run")
    for file, n_records, keys in sources:
        if len(keys) != n_records:
            raise ValueError(
                f"run {file.name!r}: {n_records} records but key mirror "
                f"of {len(keys)}"
            )
    if splitters is None:
        splitters = sample_splitters(
            [keys for _, _, keys in sources], max(1, n_partitions)
        )
    cuts = [run_cut_positions(keys, splitters) for _, _, keys in sources]
    return splitters, cuts


def _partition_chunks(shard, sources, cuts, p, rec_dtype, buffer_records):
    """Stream one partition's merged chunks through its shard (reads only)."""
    with BufferPool(shard, capacity_pages=SHARD_POOL_PAGES) as pool:
        slices = []
        for (file, _, _), cut in zip(sources, cuts):
            lo, hi = int(cut[p]), int(cut[p + 1])
            if hi > lo:
                slices.append((file.attach(pool), hi - lo, lo))
        yield from merge_stream(slices, rec_dtype, buffer_records)


def sharded_stream_merge(
    disk: SimulatedDisk,
    sources: "list[tuple[PagedFile, int, np.ndarray]]",
    rec_dtype: np.dtype,
    n_partitions: int,
    buffer_records: int,
    pool_kind: str = "thread",
    splitters: np.ndarray | None = None,
    wrap_device=None,
):
    """Merge spilled runs into a *consumer stream*, partitions in parallel.

    The final pass of a merge cascade does not write a run — it feeds
    the bulk loader — so materializing it (write + read back) would
    waste two passes over the data.  This generator instead runs the
    per-partition merges concurrently on read-only shards and yields
    the partitions' chunks in range order, re-chunked to the exact
    shapes the serial merge emits; workers ahead of the consumer park
    on bounded queues (:data:`STREAM_QUEUE_CHUNKS` chunks each), so
    transient memory stays proportional to the partition count.

    Same determinism contract as :func:`sharded_spill_merge` — the
    shards perform reads only, each against its own head, and
    reconciliation on detach is in partition order, so the stats are
    bit-identical between pooled and ``pool_kind="serial"`` (inline)
    execution.

    ``wrap_device`` is the same fault seam as in
    :func:`sharded_spill_merge` (called with ``attempt`` fixed at 0).
    A generator cannot retry on behalf of a consumer that has already
    received chunks, so a device fault propagates after the session
    aborts — the parent is unfenced and the *caller* heals (retries the
    whole stream or degrades to the serial merge).
    """
    check_pool_kind(pool_kind)
    splitters, cuts = _cut_sources(sources, n_partitions, splitters)
    n_parts = len(splitters) + 1
    emitter = _PairEmitter(rec_dtype, buffer_records)
    session = ShardedDisk(
        disk,
        [(0, 0)] * n_parts,
        names=[f"stream-merge-p{p}" for p in range(n_parts)],
        read_only=True,
    )
    with session as shards:
        devices = [
            shards[p] if wrap_device is None else wrap_device(shards[p], p, 0)
            for p in range(n_parts)
        ]
        if pool_kind == "serial" or n_parts == 1:
            for p in range(n_parts):
                for chunk_keys, chunk_payloads in _partition_chunks(
                    devices[p], sources, cuts, p, rec_dtype, buffer_records
                ):
                    yield from emitter.push(chunk_keys, chunk_payloads)
            yield from emitter.flush()
            return
        queues = [queue.Queue(maxsize=STREAM_QUEUE_CHUNKS) for _ in range(n_parts)]

        def feed(p: int) -> None:
            try:
                for chunk in _partition_chunks(
                    devices[p], sources, cuts, p, rec_dtype, buffer_records
                ):
                    queues[p].put(chunk)
                queues[p].put(None)
            except BaseException as error:  # surfaced by the consumer
                queues[p].put(error)

        threads = [
            threading.Thread(target=feed, args=(p,), daemon=True)
            for p in range(n_parts)
        ]
        for thread in threads:
            thread.start()
        try:
            for p in range(n_parts):
                while True:
                    item = queues[p].get()
                    if item is None:
                        break
                    if isinstance(item, BaseException):
                        raise item
                    yield from emitter.push(item[0], item[1])
            yield from emitter.flush()
        finally:
            # Keep draining while joining: a producer parked on a full
            # queue must be released even when the consumer abandons
            # the stream mid-way.
            for p, thread in enumerate(threads):
                while thread.is_alive():
                    try:
                        while True:
                            queues[p].get_nowait()
                    except queue.Empty:
                        pass
                    thread.join(timeout=0.01)


def stream_run_file(
    file: PagedFile,
    n_records: int,
    rec_dtype: np.dtype,
    buffer_records: int,
):
    """Yield a materialized run back as (keys, payloads) chunks.

    Chunk shapes follow the serial merge — full
    ``buffer_records`` chunks, then one partial — so a parallel final
    pass that materialized its output hands downstream consumers the
    exact stream the serial merge would have yielded.
    """
    cursor = RunCursor(file, n_records, rec_dtype, buffer_records)
    emitter = _ChunkEmitter(rec_dtype, buffer_records)
    while cursor.buffered():
        yield from emitter.push(cursor.take_all())
        cursor.refill()
    yield from emitter.flush()
