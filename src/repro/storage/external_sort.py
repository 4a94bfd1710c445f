"""External merge sort in the disk access model.

This is the bulk-loading engine of Coconut (paper Sec. 3.1): the
partition phase sorts memory-sized chunks and spills them as sorted
runs; the merge phase streams all runs through per-run input buffers
and yields records in globally sorted order.  When the input fits in
the memory budget no I/O is performed at all — the case the paper
highlights for non-materialized Coconut variants, whose summarizations
"in general fit in main memory".

Runs merge through :func:`repro.storage.merge.merge_stream`, which
gallops page-sized blocks with NumPy and reproduces the output stream,
chunk shapes and simulated-I/O trace of a per-record heap merge.  When
there are more runs than input buffers fit in memory, groups of runs
merge into longer runs first (a cascade), all on the calling thread.

Keys are fixed-width byte strings (NumPy ``S<k>`` arrays); NumPy sorts
them lexicographically, which for big-endian encoded invSAX words is
exactly z-order.  Payloads are arbitrary fixed-size rows (an int64 file
offset for secondary indexes, a whole float32 series for materialized
ones), so the I/O charged per record reflects what the index actually
moves through the disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .disk import SimulatedDisk
from .merge import merge_stream
from .pager import PagedFile


@dataclass
class SortReport:
    """What the sort did, for construction-cost accounting."""

    n_records: int = 0
    record_bytes: int = 0
    n_runs: int = 1
    spilled: bool = False
    run_pages: int = 0
    merge_passes: int = 0


@dataclass
class _SpillRun:
    """One file-backed sorted run awaiting the merge cascade."""

    file: PagedFile
    n_records: int


def _record_dtype(keys: np.ndarray, payloads: np.ndarray) -> np.dtype:
    if payloads.ndim == 1:
        return np.dtype([("k", keys.dtype), ("v", payloads.dtype)])
    return np.dtype([("k", keys.dtype), ("v", payloads.dtype, payloads.shape[1:])])


class ExternalSorter:
    """Sorts (key, payload) records under a main-memory budget."""

    def __init__(self, disk: SimulatedDisk, memory_bytes: int):
        if memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive, got {memory_bytes}")
        self.disk = disk
        self.memory_bytes = memory_bytes
        self.report = SortReport()

    def sort(
        self, keys: np.ndarray, payloads: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (keys, payloads) chunks in globally sorted key order.

        Ties are broken by input position (stable sort), which the
        bulk loaders rely on for deterministic layouts.
        """
        keys = np.asarray(keys)
        payloads = np.asarray(payloads)
        if len(keys) != len(payloads):
            raise ValueError(
                f"{len(keys)} keys vs {len(payloads)} payloads"
            )
        rec_dtype = _record_dtype(keys, payloads)
        n = len(keys)
        self.report = SortReport(n_records=n, record_bytes=rec_dtype.itemsize)
        if n == 0:
            self.report.n_runs = 0
            return iter(())
        mem_records = max(2, self.memory_bytes // rec_dtype.itemsize)
        if n <= mem_records:
            return self._sort_in_memory(keys, payloads, mem_records)
        return self._sort_spilled(keys, payloads, rec_dtype, mem_records)

    # ------------------------------------------------------------------
    def _sort_in_memory(
        self, keys: np.ndarray, payloads: np.ndarray, chunk: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = np.argsort(keys, kind="stable")
        skeys, spay = keys[order], payloads[order]

        def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            for i in range(0, len(skeys), chunk):
                yield skeys[i : i + chunk], spay[i : i + chunk]

        return chunks()

    # ------------------------------------------------------------------
    @property
    def _fan_in(self) -> int:
        """Maximum runs merged at once: one multi-page buffer per run.

        Real external sorters bound merge fan-in by the number of
        input buffers main memory can hold; exceeding it degrades every
        read to a seek.  When there are more runs, we cascade: merge
        groups of ``fan_in`` runs into longer runs, then repeat.
        """
        return max(2, self.memory_bytes // (self.disk.page_size * 2))

    def _sort_spilled(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        rec_dtype: np.dtype,
        mem_records: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(keys)
        runs: list[_SpillRun] = []
        for start in range(0, n, mem_records):
            stop = min(start + mem_records, n)
            order = np.argsort(keys[start:stop], kind="stable")
            sorted_keys = keys[start:stop][order]
            block = np.empty(stop - start, dtype=rec_dtype)
            block["k"] = sorted_keys
            block["v"] = payloads[start:stop][order]
            run = PagedFile(self.disk, name=f"sort-run-{len(runs)}")
            run.write_stream(block.tobytes())
            runs.append(_SpillRun(run, stop - start))
        self.report.n_runs = len(runs)
        self.report.spilled = True
        self.report.run_pages = sum(run.file.n_pages for run in runs)
        return self._merge_spilled(runs, rec_dtype, mem_records)

    def _merge_spilled(
        self,
        runs: list[_SpillRun],
        rec_dtype: np.dtype,
        mem_records: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # Cascade until one merge pass suffices.
        while len(runs) > self._fan_in:
            self.report.merge_passes += 1
            runs = [
                self._group_merge(
                    runs[start : start + self._fan_in],
                    rec_dtype,
                    mem_records,
                    f"sort-merge-{i}",
                )
                for i, start in enumerate(range(0, len(runs), self._fan_in))
            ]
        self.report.merge_passes += 1
        return self._merge_runs(runs, rec_dtype, mem_records)

    def _group_merge(
        self,
        group: list[_SpillRun],
        rec_dtype: np.dtype,
        mem_records: int,
        name: str,
    ) -> _SpillRun:
        """Stream-merge one cascade group into a new run."""
        merged_file = PagedFile(self.disk, name=name)
        total = sum(run.n_records for run in group)
        out_page = 0
        remainder = b""
        for chunk_keys, chunk_values in self._merge_runs(
            group, rec_dtype, mem_records
        ):
            block = np.empty(len(chunk_keys), dtype=rec_dtype)
            block["k"] = chunk_keys
            block["v"] = chunk_values
            data = remainder + block.tobytes()
            whole = (len(data) // self.disk.page_size) * self.disk.page_size
            if whole:
                merged_file.write_stream(data[:whole], at_page=out_page)
                out_page += whole // self.disk.page_size
            remainder = data[whole:]
        if remainder:
            merged_file.write_stream(remainder, at_page=out_page)
        return _SpillRun(merged_file, total)

    def _merge_runs(
        self,
        runs: list[_SpillRun],
        rec_dtype: np.dtype,
        mem_records: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        buffer_records = max(1, mem_records // (len(runs) + 1))
        return merge_stream(
            [(run.file, run.n_records) for run in runs],
            rec_dtype,
            buffer_records,
        )


def sort_to_arrays(
    sorter: ExternalSorter, keys: np.ndarray, payloads: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a full sort and concatenate the output (convenience helper)."""
    key_parts, pay_parts = [], []
    for k, v in sorter.sort(keys, payloads):
        key_parts.append(k)
        pay_parts.append(v)
    if not key_parts:
        return keys[:0], payloads[:0]
    return np.concatenate(key_parts), np.concatenate(pay_parts)
