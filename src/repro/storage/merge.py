"""Block-wise k-way merge over sorted runs.

The merge phase of the external sort (and of LSM compaction) consumes
sorted runs and must produce the *stable* merge: records ordered by
(key, run index, position within run).  :func:`merge_stream` does it a
block at a time:

* each run is read through a :class:`RunCursor` holding one multi-page
  block;
* a small loser tree (:class:`LoserTree`) over the block *tail* keys
  finds the **safe horizon** L — the smallest last-buffered key among
  runs that still have unread data.  Every buffered record with key
  below L is already in memory together with everything that can
  precede it, so the whole set can be emitted now;
* each block contributes its longest safe prefix in one
  ``np.searchsorted`` gallop (ties at L resolve by run index: runs at
  or before the horizon run may include equal keys, later runs must
  wait), and the union of prefixes is ordered with one stable argsort
  — equivalent to merging, since concatenation order is run order.

Galloping only the *winning head's* block against the runner-up head —
the textbook tournament merge — degenerates to one record per round
when keys interleave tightly across runs; galloping every block
against the global horizon keeps the per-round work proportional to a
whole block regardless of interleaving.

Equivalence contract
--------------------
The output stream, its chunk shapes *and* the simulated-I/O trace are
byte-identical to the textbook per-record ``heapq`` merge loop (kept
as the oracle in ``tests/oracles.py``).  The trace is the subtle half: the per-record loop refills a run's buffer at the instant
its block's last record is popped, interleaving refill reads with
output-chunk writes.  :func:`merge_stream` therefore replays refills
at the exact output-stream positions where the per-record loop would
have triggered them (a refill event sorts *before* the chunk write that
contains its record), so the page-access sequence — and with it every
sequential/random classification of :class:`repro.storage.disk.
SimulatedDisk` — is reproduced exactly.  The merge equivalence suite
asserts both halves property-style.

Whole runs already resident in memory merge without cursors:
:func:`merge_presorted` reduces them pairwise with searchsorted
scatters (:func:`merge_pair`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .pager import PagedFile

#: Chunk pair yielded by every merge stream: (keys, payloads).
MergeChunk = "tuple[np.ndarray, np.ndarray]"


class RunCursor:
    """Buffered reader over one sorted run stored as a byte stream.

    Holds one multi-page block at a time: :meth:`take` consumes
    records from it and :meth:`refill` loads the next block once it is
    drained — explicitly, so :func:`merge_stream` can replay each refill
    read at the per-record merge loop's stream position.
    """

    def __init__(
        self,
        file: PagedFile,
        n_records: int,
        rec_dtype: np.dtype,
        buffer_records: int,
    ):
        self.file = file
        self.n_records = n_records
        self.rec_dtype = rec_dtype
        self.buffer_records = max(1, buffer_records)
        self._next_page = 0
        self._records_out = 0
        self._remainder = b""
        self._chunk: np.ndarray | None = None
        self._pos = 0
        self._refill()

    def buffered(self) -> int:
        """Records currently in the buffer and not yet consumed."""
        return 0 if self._chunk is None else len(self._chunk) - self._pos

    def has_pending(self) -> bool:
        """Whether unread records remain beyond the buffered block."""
        return self._records_out < self.n_records

    def block_keys(self) -> np.ndarray:
        """Keys of the un-consumed part of the buffered block."""
        return self._chunk["k"][self._pos :]

    def tail_key(self) -> bytes:
        """Last buffered key — the run's contribution to the horizon."""
        return bytes(self._chunk["k"][-1])

    def take(self, n: int) -> np.ndarray:
        """Consume ``n`` records without refilling (view, not a copy)."""
        view = self._chunk[self._pos : self._pos + n]
        self._pos += n
        return view

    def take_all(self) -> np.ndarray:
        return self.take(self.buffered())

    def refill(self) -> None:
        """Load the next block; only valid once the buffer is drained."""
        self._refill()

    # ------------------------------------------------------------------
    def _refill(self) -> None:
        left = self.n_records - self._records_out
        if left <= 0:
            self._chunk = None
            return
        want = min(self.buffer_records, left)
        itemsize = self.rec_dtype.itemsize
        need_bytes = want * itemsize - len(self._remainder)
        page_size = self.file.disk.page_size
        n_pages = max(0, -(-need_bytes // page_size))
        n_pages = min(n_pages, self.file.n_pages - self._next_page)
        if n_pages > 0:
            fresh = self.file.read_stream(self._next_page, n_pages)
            self._next_page += n_pages
            # Remainder bytes only exist when records straddle the read
            # boundary; a record-aligned stream (the common geometry)
            # consumes the device's zero-copy view directly.
            data = (
                b"".join((self._remainder, fresh))
                if len(self._remainder)
                else fresh
            )
        else:
            data = self._remainder
        n_complete = min(len(data) // itemsize, left)
        if n_complete == 0:
            self._chunk = None
            return
        self._chunk = np.frombuffer(
            data[: n_complete * itemsize], dtype=self.rec_dtype
        )
        self._remainder = data[n_complete * itemsize :]
        self._records_out += n_complete
        self._pos = 0


class LoserTree:
    """Tournament tree over (key, run index) with O(log k) updates.

    Leaves hold the current comparison key of each run (``None`` means
    the run poses no constraint); ``winner`` is the index of the run
    with the smallest (key, index) pair.  Used by :func:`merge_stream`
    to maintain the safe horizon across block refills without an O(k)
    rescan per round.
    """

    def __init__(self, keys: list):
        self.k = max(1, len(keys))
        size = 1
        while size < self.k:
            size <<= 1
        self.size = size
        self.keys = list(keys) + [None] * (size - len(keys))
        # node[1] is the root winner; node[size + i] is leaf i.
        self.node = [0] * size + list(range(size))
        for i in range(size - 1, 0, -1):
            self.node[i] = self._better(self.node[2 * i], self.node[2 * i + 1])

    def _better(self, a: int, b: int) -> int:
        ka, kb = self.keys[a], self.keys[b]
        if kb is None:
            return a
        if ka is None:
            return b
        if ka != kb:
            return a if ka < kb else b
        return a if a < b else b

    @property
    def winner(self) -> int:
        return self.node[1]

    def key(self, i: int) -> bytes | None:
        return self.keys[i]

    def update(self, i: int, key: bytes | None) -> None:
        """Replace run ``i``'s key and replay its path to the root."""
        self.keys[i] = key
        n = (self.size + i) >> 1
        while n >= 1:
            self.node[n] = self._better(self.node[2 * n], self.node[2 * n + 1])
            n >>= 1


class _ChunkEmitter:
    """Accumulate records and yield fixed-size (keys, payloads) chunks.

    Chunk shapes are fixed (full ``out_records`` chunks, then one
    partial) and match the per-record merge loop, because downstream
    writers interleave page writes with the cursors' page reads and the
    equivalence contract covers the full I/O trace.
    """

    def __init__(self, rec_dtype: np.dtype, out_records: int):
        self.buf = np.empty(max(1, out_records), dtype=rec_dtype)
        self.filled = 0

    def push(self, records: np.ndarray) -> Iterator[MergeChunk]:
        cap = len(self.buf)
        at = 0
        while at < len(records):
            n = min(len(records) - at, cap - self.filled)
            self.buf[self.filled : self.filled + n] = records[at : at + n]
            self.filled += n
            at += n
            if self.filled == cap:
                yield self.buf["k"].copy(), self.buf["v"].copy()
                self.filled = 0

    def flush(self) -> Iterator[MergeChunk]:
        if self.filled:
            yield (
                self.buf["k"][: self.filled].copy(),
                self.buf["v"][: self.filled].copy(),
            )
            self.filled = 0


def _open_cursors(
    runs: "list[tuple]", rec_dtype: np.dtype, buffer_records: int
) -> "list[RunCursor]":
    """Cursors over ``(file, count)`` pairs."""
    return [
        RunCursor(file, count, rec_dtype, buffer_records) for file, count in runs
    ]


def merge_stream(
    runs: "list[tuple[PagedFile, int]]",
    rec_dtype: np.dtype,
    buffer_records: int,
) -> Iterator[MergeChunk]:
    """Stable k-way merge of sorted runs, one block per run at a time.

    ``runs`` are ``(file, n_records)`` pairs; yields ``(keys,
    payloads)`` chunks of ``buffer_records`` records (the last one
    partial).  Per round: find the safe horizon L
    (smallest block-tail key among runs with unread data, via the loser
    tree), gallop every block's safe prefix with one ``searchsorted``
    each, order the union with a stable argsort (concatenation order is
    run order, so ties resolve by run index), and emit — replaying each
    refill at the precise output position where the per-record merge
    loop would have issued its read.  Only the horizon run can drain
    its block in a round, so every round makes at least one block of
    progress.
    """
    buffer_records = max(1, buffer_records)
    cursors = _open_cursors(runs, rec_dtype, buffer_records)
    emitter = _ChunkEmitter(rec_dtype, buffer_records)
    tree = LoserTree(
        [c.tail_key() if c.buffered() and c.has_pending() else None for c in cursors]
    )

    def gather(parts: "list[np.ndarray]") -> np.ndarray:
        """Concatenate record slices without per-call field promotion."""
        block = np.empty(sum(len(p) for p in parts), dtype=rec_dtype)
        at = 0
        for part in parts:
            block[at : at + len(part)] = part
            at += len(part)
        return block

    while True:
        active = [i for i, c in enumerate(cursors) if c.buffered()]
        if not active:
            yield from emitter.flush()
            return
        m = tree.winner
        limit = tree.key(m)
        if limit is None:
            # Every remaining record is buffered: one final stable merge.
            block = gather([cursors[i].take_all() for i in active])
            order = np.argsort(block["k"], kind="stable")
            yield from emitter.push(block[order])
            yield from emitter.flush()
            return
        parts: list[np.ndarray] = []
        for i in active:
            if i == m:
                # The horizon run's block ends exactly at L: take it all.
                n_take = cursors[i].buffered()
            else:
                # Runs before the horizon run may emit keys equal to L
                # (all their later records exceed L, and they win the
                # tie on run index); runs after it must hold equal keys
                # back until the horizon run's Ls are exhausted.
                side = "right" if i < m else "left"
                n_take = int(
                    cursors[i].block_keys().searchsorted(limit, side=side)
                )
            if n_take:
                parts.append(cursors[i].take(n_take))
        block = gather(parts)
        order = np.argsort(block["k"], kind="stable")
        merged = block[order]
        # Run m is the only run that can drain its block while holding
        # more data (any other pending run keeps at least its tail),
        # and its block-tail record is the stable maximum of the safe
        # set — so replay its refill read just before that record is
        # placed, exactly where the per-record loop issues it.
        yield from emitter.push(merged[:-1])
        cursors[m].refill()
        tree.update(
            m,
            cursors[m].tail_key()
            if cursors[m].buffered() and cursors[m].has_pending()
            else None,
        )
        yield from emitter.push(merged[-1:])


# ---------------------------------------------------------------------------
# In-memory vectorized merging (whole runs already resident)
# ---------------------------------------------------------------------------
def merge_pair(
    left: "tuple[np.ndarray, np.ndarray]", right: "tuple[np.ndarray, np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Stable vectorized merge of two sorted runs (left wins ties)."""
    k1, p1 = left
    k2, p2 = right
    pos1 = np.arange(len(k1)) + np.searchsorted(k2, k1, side="left")
    pos2 = np.arange(len(k2)) + np.searchsorted(k1, k2, side="right")
    keys = np.empty(len(k1) + len(k2), dtype=k1.dtype)
    payloads = np.empty((len(p1) + len(p2),) + p1.shape[1:], dtype=p1.dtype)
    keys[pos1], keys[pos2] = k1, k2
    payloads[pos1], payloads[pos2] = p1, p2
    return keys, payloads


def merge_presorted(
    runs: "list[tuple[np.ndarray, np.ndarray]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Reduce adjacent sorted runs pairwise until one remains.

    Runs must each be internally (stably) sorted; the result is the
    stable merge in run order — identical to a stable argsort of the
    concatenation, computed with searchsorted scatters instead of a
    comparison sort.
    """
    while len(runs) > 1:
        runs = [
            merge_pair(runs[i], runs[i + 1]) if i + 1 < len(runs) else runs[i]
            for i in range(0, len(runs), 2)
        ]
    return runs[0]
