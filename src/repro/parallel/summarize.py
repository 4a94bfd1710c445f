"""Chunked, multi-worker summarization: series -> PAA -> SAX -> invSAX.

Summarizing a collection is embarrassingly parallel: each chunk of
series maps to invSAX keys independently of every other chunk.  This
module fans chunks out to a pool of workers and returns the results in
input order, so the downstream consumer sees exactly the stream the
serial scan would have produced — byte-identical keys, in the same
sequence, for any chunk size and worker count.

Workers additionally return each chunk's stable sort order, turning
every chunk into a presorted run that
:meth:`repro.storage.ExternalSorter.sort_runs` merges without
re-sorting: the external sort's partition phase is thereby fed by all
cores at once, which is where the bulk-loading speedup comes from.

Worker pools and determinism
----------------------------
Chunks are summarized on the repository's one pool
(:mod:`repro.parallel.pool`): threads — the SAX kernels are NumPy and
release the GIL, and a thread reads its chunk in place — or, with
``kind="serial"``, inline on the calling thread.  The pipeline contains
no randomness and no shared mutable state, so results are identical
for every ``workers`` / ``chunk_size`` / ``kind`` choice — a property
the test suite checks exhaustively.

Choosing ``workers``: ``None`` or ``0`` means "all cores"
(``os.cpu_count()``); ``1`` runs inline with no pool at all (zero
overhead, the serial path).  Chunks should be large enough that the
per-chunk NumPy work dominates the task hand-off (thousands of
series); :data:`DEFAULT_CHUNK_SERIES` is a good default.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor
from typing import Iterable, Iterator

import numpy as np

from ..core.invsax import invsax_keys
from ..summaries.sax import SAXConfig
from .pool import check_pool_kind, make_executor, resolve_workers

#: Default series per chunk: big enough that SAX work dominates the
#: per-task hand-off.
DEFAULT_CHUNK_SERIES = 4096


def summarize_chunk(
    block: np.ndarray, config: SAXConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's invSAX keys plus its stable sort order (a work unit)."""
    keys = invsax_keys(block, config)
    return keys, np.argsort(keys, kind="stable")


class ParallelSummarizer:
    """Order-preserving fan-out of summarization chunks to a pool.

    Usable as a context manager; otherwise call :meth:`close` when
    done so pool threads do not outlive the build.
    """

    def __init__(
        self,
        config: SAXConfig,
        workers: int | None = None,
        chunk_size: int | None = None,
        kind: str = "thread",
    ):
        self.kind = check_pool_kind(kind)
        self.config = config
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size or DEFAULT_CHUNK_SERIES
        if self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self._executor: Executor | None = None
        self._started = False

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> Executor | None:
        if self._started:
            return self._executor
        self._started = True
        self._executor = make_executor(self.workers, self.kind)
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._started = False

    def __enter__(self) -> "ParallelSummarizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def map_blocks(
        self, blocks: Iterable[tuple[int, np.ndarray]]
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(start, block, keys, order)`` in input order.

        ``blocks`` is an iterable of ``(first_index, block)`` pairs as
        produced by :meth:`repro.storage.RawSeriesFile.scan`.  At most
        ``2 * workers`` chunks are in flight, bounding memory while
        keeping every worker busy.
        """
        executor = self._ensure_executor()
        if executor is None:
            for start, block in blocks:
                keys, order = summarize_chunk(block, self.config)
                yield start, block, keys, order
            return
        window = max(2, 2 * self.workers)
        pending: deque = deque()
        iterator = iter(blocks)
        exhausted = False
        while True:
            while not exhausted and len(pending) < window:
                try:
                    start, block = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                future = executor.submit(summarize_chunk, block, self.config)
                pending.append((start, block, future))
            if not pending:
                return
            start, block, future = pending.popleft()
            keys, order = future.result()
            yield start, block, keys, order

    def iter_chunks(
        self, data: np.ndarray
    ) -> Iterator[tuple[int, np.ndarray]]:
        """Split an in-memory batch into ``chunk_size`` blocks."""
        data = np.asarray(data)
        for at in range(0, len(data), self.chunk_size):
            yield at, data[at : at + self.chunk_size]

    def keys(self, data: np.ndarray) -> np.ndarray:
        """invSAX keys of a batch, byte-identical to the serial path."""
        parts = [keys for _, _, keys, _ in self.map_blocks(self.iter_chunks(data))]
        if not parts:
            return np.empty(0, dtype=self.config.key_dtype)
        return np.concatenate(parts)


def summarize_presorted_runs(
    raw,
    config: SAXConfig,
    materialized: bool,
    workers: int | None = None,
    chunk_size: int | None = None,
    kind: str = "thread",
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Scan a raw file into presorted (keys, payloads) chunk runs.

    The scan (and its simulated I/O) happens on the calling thread;
    chunks are summarized and presorted on pool workers; payloads —
    offsets, plus the series themselves for materialized indexes — are
    permuted locally.  Each run is a contiguous input slice in
    stable-sorted order, which is exactly what
    :meth:`repro.storage.ExternalSorter.sort_runs` needs to produce a
    stream bit-identical to the serial sort.
    """
    from ..core.bulk_index import payload_dtype

    pay_dtype = payload_dtype(raw.length, materialized)
    runs: list[tuple[np.ndarray, np.ndarray]] = []
    with ParallelSummarizer(config, workers, chunk_size, kind=kind) as pool:
        blocks = raw.scan(chunk_series=pool.chunk_size)
        for start, block, keys, order in pool.map_blocks(blocks):
            payload = np.zeros(len(block), dtype=pay_dtype)
            payload["off"] = start + order
            if materialized:
                payload["series"] = block[order]
            runs.append((keys[order], payload))
    return runs


def parallel_invsax_keys(
    batch: np.ndarray,
    config: SAXConfig,
    workers: int | None = None,
    chunk_size: int | None = None,
    kind: str = "thread",
) -> np.ndarray:
    """Drop-in parallel equivalent of :func:`repro.core.invsax_keys`."""
    with ParallelSummarizer(config, workers, chunk_size, kind=kind) as pool:
        return pool.keys(batch)
