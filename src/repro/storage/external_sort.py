"""External merge sort in the disk access model.

This is the bulk-loading engine of Coconut (paper Sec. 3.1): the
partition phase sorts memory-sized chunks and spills them as sorted
runs; the merge phase streams all runs through per-run input buffers
and yields records in globally sorted order.  When the input fits in
the memory budget no I/O is performed at all — the case the paper
highlights for non-materialized Coconut variants, whose summarizations
"in general fit in main memory".

The partition phase can also be fed from outside: ``sort_runs``
accepts chunk runs that were already stably sorted elsewhere — the
parallel summarization pipeline (:mod:`repro.parallel.summarize`)
presorts chunks on pool workers — and merges them into the exact
stream ``sort`` would have produced.

Spilled runs merge through :func:`repro.storage.merge.merge_stream`,
which gallops page-sized blocks with NumPy and reproduces the output
stream, chunk shapes and simulated-I/O trace of a per-record heap
merge.  Runs that fit the budget merge in memory on the calling thread
(:func:`repro.storage.merge.merge_presorted`) at any worker count.

``merge_workers > 1`` parallelizes the *spilled* cascade
(:mod:`repro.parallel.spill`): each cascade group's key space is
range-partitioned, every partition merges its record slices of the
group's run files through a private :class:`repro.storage.disk.
DiskShard` and writes a disjoint extent of the output run; the final
pass streams its partition merges concurrently through read-only
shards straight to the consumer.  The merged record stream stays
bit-identical to the serial merge for any worker count and splitter
sample; the simulated I/O of the sharded plan is bit-identical to its
serial replay (``pool_kind="serial"``), though not to the
single-domain serial plan — partitioned domains classify their seeks
independently, the price of merging on many devices at once.

Keys are fixed-width byte strings (NumPy ``S<k>`` arrays); NumPy sorts
them lexicographically, which for big-endian encoded invSAX words is
exactly z-order.  Payloads are arbitrary fixed-size rows (an int64 file
offset for secondary indexes, a whole float32 series for materialized
ones), so the I/O charged per record reflects what the index actually
moves through the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .disk import SimulatedDisk
from .merge import merge_presorted, merge_stream
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
    """One file-backed sorted run awaiting the merge cascade.

    ``keys`` is the run's in-memory key mirror, retained only when the
    sharded parallel cascade needs it for splitter sampling and exact
    record-level cuts (the sortable summarizations are what "in general
    fit in main memory"); the serial cascade carries ``None``.
    """

    file: PagedFile
    n_records: int
    keys: np.ndarray | None = None


def _record_dtype(keys: np.ndarray, payloads: np.ndarray) -> np.dtype:
    if payloads.ndim == 1:
        return np.dtype([("k", keys.dtype), ("v", payloads.dtype)])
    return np.dtype([("k", keys.dtype), ("v", payloads.dtype, payloads.shape[1:])])


class ExternalSorter:
    """Sorts (key, payload) records under a main-memory budget.

    ``merge_workers > 1`` parallelizes the file-backed spilled cascade
    by key-range partitioning on per-partition disk shards
    (:mod:`repro.parallel.spill`), on the repository's one pool
    (:mod:`repro.parallel.pool`): threads, or with
    ``pool_kind="serial"`` the same partition plan inline — the serial
    replay.  Resident runs always merge on the calling thread.
    ``merge_workers`` follows the one convention: ``None`` / ``0`` mean
    all cores.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        merge_workers: int | None = 1,
        pool_kind: str = "thread",
    ):
        # Lazy import: repro.parallel pulls in the index layer.
        from ..parallel.pool import check_pool_kind, resolve_workers

        if memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive, got {memory_bytes}")
        self.disk = disk
        self.memory_bytes = memory_bytes
        self.merge_workers = resolve_workers(merge_workers)
        self.pool_kind = check_pool_kind(pool_kind)
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

    @property
    def _parallel_spill(self) -> bool:
        """Whether the spilled cascade runs on per-partition shards.

        ``pool_kind="serial"`` keeps the sharded plan but executes it
        inline — the serial replay oracle with bit-identical counters.
        """
        return self.merge_workers > 1

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
            runs.append(self._spill_run(run, sorted_keys))
        self.report.n_runs = len(runs)
        self.report.spilled = True
        self.report.run_pages = sum(run.file.n_pages for run in runs)
        return self._merge_spilled(runs, rec_dtype, mem_records)

    def _spill_run(self, file: PagedFile, sorted_keys: np.ndarray) -> _SpillRun:
        """Wrap a freshly written run, with its key mirror when sharded."""
        if not self._parallel_spill:
            return _SpillRun(file, len(sorted_keys))
        return _SpillRun(file, len(sorted_keys), keys=sorted_keys)

    def _merge_spilled(
        self,
        runs: list[_SpillRun],
        rec_dtype: np.dtype,
        mem_records: int,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        parallel = self._parallel_spill
        # Cascade until one merge pass suffices.  The grouping — and
        # with it the SortReport — is the same for the serial and the
        # sharded cascade.
        while len(runs) > self._fan_in:
            self.report.merge_passes += 1
            next_runs: list[_SpillRun] = []
            for start in range(0, len(runs), self._fan_in):
                group = runs[start : start + self._fan_in]
                name = f"sort-merge-{len(next_runs)}"
                if parallel:
                    next_runs.append(
                        self._sharded_group_merge(
                            group, rec_dtype, mem_records, name
                        )
                    )
                else:
                    next_runs.append(
                        self._serial_group_merge(
                            group, rec_dtype, mem_records, name
                        )
                    )
            runs = next_runs
        self.report.merge_passes += 1
        if parallel and len(runs) > 1:
            # Parallel final pass: the per-partition merges stream
            # concurrently through read-only shards straight to the
            # consumer (no materialization), re-chunked to the exact
            # shapes the serial merge would have yielded.
            from ..parallel.spill import sharded_stream_merge

            buffer_records = max(1, mem_records // (len(runs) + 1))
            return sharded_stream_merge(
                self.disk,
                [(run.file, run.n_records, run.keys) for run in runs],
                rec_dtype,
                n_partitions=self.merge_workers,
                buffer_records=buffer_records,
                pool_kind=self.pool_kind,
            )
        return self._merge_runs(runs, rec_dtype, mem_records)

    def _serial_group_merge(
        self,
        group: list[_SpillRun],
        rec_dtype: np.dtype,
        mem_records: int,
        name: str,
    ) -> _SpillRun:
        """Stream-merge one cascade group into a new run (one domain)."""
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

    def _sharded_group_merge(
        self,
        group: list[_SpillRun],
        rec_dtype: np.dtype,
        mem_records: int,
        name: str,
    ) -> _SpillRun:
        """Merge one cascade group on per-partition disk shards.

        The merged key mirror rides along for the next pass's cuts.
        """
        from ..parallel.spill import sharded_spill_merge

        # Each partition streams with the serial merge's buffer
        # geometry (one buffer per source run plus the output buffer);
        # aggregate transient memory is n_partitions times the serial
        # merge's buffers — the standard space-time trade of parallel
        # merging.  The I/O *plan* therefore depends on the worker
        # count only through the splitters.
        buffer_records = max(1, mem_records // (len(group) + 1))
        result = sharded_spill_merge(
            self.disk,
            [(run.file, run.n_records, run.keys) for run in group],
            rec_dtype,
            n_partitions=self.merge_workers,
            buffer_records=buffer_records,
            pool_kind=self.pool_kind,
            out_name=name,
        )
        return _SpillRun(result.file, result.n_records, result.keys)

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

    # ------------------------------------------------------------------
    def sort_runs(
        self, runs: list[tuple[np.ndarray, np.ndarray]]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Merge pre-sorted runs into one globally sorted stream.

        ``runs`` are (keys, payloads) pairs, each internally sorted with
        a *stable* sort, whose concatenation in list order corresponds
        to the original input order.  Under those conditions the merged
        output — ties resolve in run order, then in within-run order —
        is bit-identical to :meth:`sort` on the unsorted concatenation.
        This is the entry point of the parallel bulk-loading pipeline:
        pool workers presort chunks, and the partition phase here is
        reduced to writing the runs out (or merging them in memory).
        """
        runs = [(np.asarray(k), np.asarray(p)) for k, p in runs]
        for k, p in runs:
            if len(k) != len(p):
                raise ValueError(f"{len(k)} keys vs {len(p)} payloads in run")
        runs = [run for run in runs if len(run[0])]
        if not runs:
            self.report = SortReport(n_runs=0)
            return iter(())
        rec_dtype = _record_dtype(*runs[0])
        n = sum(len(k) for k, _ in runs)
        self.report = SortReport(
            n_records=n, record_bytes=rec_dtype.itemsize, n_runs=len(runs)
        )
        mem_records = max(2, self.memory_bytes // rec_dtype.itemsize)
        if n <= mem_records:
            keys, payloads = merge_presorted(runs)

            def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
                for i in range(0, n, mem_records):
                    yield keys[i : i + mem_records], payloads[i : i + mem_records]

            return chunks()
        self.report.spilled = True
        files: list[_SpillRun] = []
        for keys, payloads in runs:
            block = np.empty(len(keys), dtype=rec_dtype)
            block["k"] = keys
            block["v"] = payloads
            run = PagedFile(self.disk, name=f"sort-run-{len(files)}")
            run.write_stream(block.tobytes())
            files.append(self._spill_run(run, keys))
        self.report.run_pages = sum(run.file.n_pages for run in files)
        return self._merge_spilled(files, rec_dtype, mem_records)


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
