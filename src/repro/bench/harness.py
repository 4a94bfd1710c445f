"""Experiment harness: the indexes under test and the operational sweeps.

``INDEX_FACTORIES`` builds every index the paper compares at the scaled
benchmark shape (``tests/test_paper_figures.py`` sweeps them for the
paper's Figs. 8-10), and :func:`make_environment` gives an experiment
cell a fresh disk, raw file and index.  The ``run_*_sweep`` functions drive
the operational scripts under ``benchmarks/`` (fault hooks, integrity
scrub, online service): every cell asserts its equivalence contract
before it reports a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..core.coconut_tree import CoconutTree
from ..core.coconut_trie import CoconutTrie
from ..indexes.ads import ADSIndex
from ..indexes.base import SeriesIndex
from ..indexes.dstree import DSTree
from ..indexes.isax2 import ISAX2Index
from ..indexes.rtree import RTreeIndex
from ..indexes.serial import SerialScan
from ..indexes.vertical import VerticalIndex
from ..storage.disk import SimulatedDisk
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig
from .workloads import DatasetSpec

#: Page size used by all experiments (bytes).
PAGE_SIZE = 8192

#: Default leaf capacity (records); the paper used 2000 at full scale.
LEAF_SIZE = 100


def default_config(length: int) -> SAXConfig:
    """The summarization shape used by all benchmark experiments.

    The library default is the paper's 16 segments x 256 cardinality.
    Benchmarks run at ~10^4 series instead of the paper's ~10^8, so we
    scale the word length down to 8 segments: the iSAX root fans out on
    one bit per segment (2^w children), and keeping w = 16 at small N
    would give every series its own root child, exaggerating the
    sparse-leaf effect far beyond the paper's reported ~10% fill.
    """
    word_length = 8 if length >= 16 else 4
    return SAXConfig(
        series_length=length, word_length=word_length, cardinality=256
    )


IndexFactory = Callable[[SimulatedDisk, int, int], SeriesIndex]


def _factories() -> dict[str, IndexFactory]:
    def ctree(disk, memory, length):
        return CoconutTree(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ctree_full(disk, memory, length):
        return CoconutTree(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def ctrie(disk, memory, length):
        return CoconutTrie(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ctrie_full(disk, memory, length):
        return CoconutTrie(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def ads_plus(disk, memory, length):
        return ADSIndex(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def ads_full(disk, memory, length):
        return ADSIndex(
            disk,
            memory,
            config=default_config(length),
            leaf_size=LEAF_SIZE,
            plus=False,
        )

    def isax2(disk, memory, length):
        return ISAX2Index(
            disk, memory, config=default_config(length), leaf_size=LEAF_SIZE
        )

    def rtree(disk, memory, length):
        return RTreeIndex(
            disk, memory, n_dimensions=8, leaf_size=LEAF_SIZE,
            materialized=True,
        )

    def rtree_plus(disk, memory, length):
        return RTreeIndex(
            disk, memory, n_dimensions=8, leaf_size=LEAF_SIZE,
            materialized=False,
        )

    def dstree(disk, memory, length):
        return DSTree(disk, memory, leaf_size=LEAF_SIZE)

    def vertical(disk, memory, length):
        return VerticalIndex(disk, memory)

    def serial(disk, memory, length):
        return SerialScan(disk, memory)

    return {
        "CTree": ctree,
        "CTreeFull": ctree_full,
        "CTrie": ctrie,
        "CTrieFull": ctrie_full,
        "ADS+": ads_plus,
        "ADSFull": ads_full,
        "iSAX2.0": isax2,
        "R-tree": rtree,
        "R-tree+": rtree_plus,
        "DSTree": dstree,
        "Vertical": vertical,
        "Serial": serial,
    }


INDEX_FACTORIES = _factories()


@dataclass
class Environment:
    """A fresh disk + raw file + index, isolated per experiment cell."""

    disk: SimulatedDisk
    raw: RawSeriesFile
    index: SeriesIndex


@lru_cache(maxsize=8)
def _dataset(spec: DatasetSpec) -> np.ndarray:
    """``spec.generate()``, kept for the most recent specs: a sweep builds
    many cells over one dataset, and generating it again costs as much
    as a build.  Read-only, since every environment shares it."""
    data = spec.generate()
    data.flags.writeable = False
    return data


def make_environment(
    index_key: str, spec: DatasetSpec, memory_bytes: int
) -> Environment:
    """Write the dataset to a fresh raw file, construct the index."""
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    raw = RawSeriesFile.create(disk, _dataset(spec))
    disk.reset_stats()  # ingest of the raw file is not index cost
    index = INDEX_FACTORIES[index_key](disk, memory_bytes, spec.length)
    return Environment(disk=disk, raw=raw, index=index)


def _drive_fault_fetch_pass(
    n_series: int,
    length: int,
    fetch_fraction: float,
    seed: int,
    hooked: bool,
    page_size: int = PAGE_SIZE,
) -> dict:
    """One timed headline gather, bare or through a disabled fault hook.

    ``hooked=True`` routes every read through ``FaultyDevice(disk,
    plan=None)`` — the pure-forwarding wrapper a production deployment
    would leave in place — so the sweep can price the disabled
    injection seam on the exact skip-sequential fetch path the query
    engines use.
    """
    import time

    from ..storage.faults import FaultyDevice

    disk = SimulatedDisk(page_size=page_size)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_series, length)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    n_fetch = max(1, int(n_series * fetch_fraction))
    idxs = np.sort(rng.choice(n_series, size=n_fetch, replace=False))
    view = raw.view(FaultyDevice(disk, plan=None)) if hooked else raw
    disk.reset_stats()
    disk.park_head()
    t0 = time.perf_counter()
    fetched = view.get_many(idxs)
    wall = time.perf_counter() - t0
    return {
        "fetched": fetched,
        "wall_s": wall,
        "stats": disk.stats,
        "head": disk.head_position,
    }


def _drive_recovery_smoke(seed: int) -> dict:
    """One injected-crash + recovery cycle; asserts the oracle contract.

    A small durable LSM takes batches through a seeded fault schedule
    until something fires (or the workload ends), recovers from the
    device, and must answer exactly like a fault-free index rebuilt
    from the acknowledged rows.
    """
    import time

    from ..core.lsm import CoconutLSM
    from ..storage.faults import (
        CorruptionError,
        FaultError,
        FaultPlan,
        FaultyDevice,
    )

    length = 64
    config = SAXConfig(series_length=length, word_length=8, cardinality=16)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((150, length)).astype(np.float32)
    extra = rng.standard_normal((150, length)).astype(np.float32)
    queries = rng.standard_normal((3, length))

    def fresh(device_plan):
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile(disk, length)
        raw.append_batch(base)
        device = disk if device_plan is None else FaultyDevice(disk, device_plan)
        return disk, raw, device

    plan = FaultPlan(
        seed=seed, p_transient_write=0.02, p_torn_write=0.01,
        p_bitflip_write=0.02, p_crash_write=0.01, max_faults=4,
    )
    disk, raw, device = fresh(plan)
    faults = 0
    t0 = time.perf_counter()
    try:
        ix = CoconutLSM(device, 1 << 10, config, durability="wal")
        ix.build(raw)
        for lo in range(0, len(extra), 25):
            ix.insert_batch(extra[lo : lo + 25])
    except FaultError:
        pass
    faults = device.faults_injected
    try:
        recovered = CoconutLSM.recover(disk, raw)
    except CorruptionError:
        raw.truncate(len(base))
        recovered = CoconutLSM(disk, 1 << 10, config, durability="wal", wal_id=2)
        recovered.build(raw)
    wall = time.perf_counter() - t0
    # Oracle: fault-free replay of exactly the acknowledged rows.
    disk2, raw2, _ = fresh(None)
    oracle = CoconutLSM(disk2, 1 << 10, config, durability="wal")
    oracle.build(raw2)
    acked = extra[: raw.n_series - len(base)]
    for lo in range(0, len(acked), 25):
        oracle.insert_batch(acked[lo : lo + 25])
    identical = True
    for q in queries:
        a, b = recovered.exact_search(q), oracle.exact_search(q)
        identical = identical and (
            a.answer_idx == b.answer_idx and a.distance == b.distance
        )
    if not identical:
        raise AssertionError(f"recovery divergence at seed {seed}")
    return {
        "faults": faults,
        "acked_rows": int(raw.n_series),
        "rebuilt_runs": recovered.n_rebuilt_runs,
        "wall_s": wall,
        "identical": identical,
    }


def run_fault_overhead_sweep(
    n_series_list: list[int],
    length: int = 128,
    fetch_fraction: float = 0.3,
    seed: int = 7,
    repeats: int = 5,
    recovery_seeds: int = 4,
) -> list[dict]:
    """Price the disabled fault hook; smoke-test injected recovery.

    ``overhead`` cells run the headline skip-sequential gather twice —
    bare device vs ``FaultyDevice(plan=None)`` — and assert fetched
    records, classified :class:`DiskStats` and head positions
    bit-identical before reporting the wall-clock ratio (best of
    ``repeats``; informational, no bound).
    ``recovery`` cells run seeded crash/recover cycles and assert the
    recovered index answers exactly like the acknowledged-rows oracle.
    """
    rows = []
    cores = _os_cores()
    for n_series in n_series_list:
        bare = min(
            (
                _drive_fault_fetch_pass(
                    n_series, length, fetch_fraction, seed, False
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        hooked = min(
            (
                _drive_fault_fetch_pass(
                    n_series, length, fetch_fraction, seed, True
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        identical = bool(np.array_equal(bare["fetched"], hooked["fetched"]))
        io_identical = (
            bare["stats"] == hooked["stats"] and bare["head"] == hooked["head"]
        )
        if not identical or not io_identical:
            raise AssertionError(
                f"disabled fault hook changed the fetch at {n_series} "
                f"series: identical={identical}, "
                f"io_identical={io_identical}"
            )
        rows.append(
            {
                "workload": "overhead",
                "n_series": n_series,
                "cores": cores,
                "bare_s": bare["wall_s"],
                "hooked_s": hooked["wall_s"],
                "overhead": (
                    hooked["wall_s"] / bare["wall_s"]
                    if bare["wall_s"]
                    else 1.0
                ),
                "identical": identical,
                "io_identical": io_identical,
            }
        )
    for smoke_seed in range(recovery_seeds):
        smoke = _drive_recovery_smoke(seed + smoke_seed)
        rows.append(
            {
                "workload": "recovery",
                "n_series": smoke["acked_rows"],
                "cores": cores,
                "bare_s": 0.0,
                "hooked_s": smoke["wall_s"],
                "overhead": 1.0,
                "identical": smoke["identical"],
                "io_identical": True,
                "faults": smoke["faults"],
                "rebuilt_runs": smoke["rebuilt_runs"],
            }
        )
    return rows


def _drive_verified_fetch_pass(
    n_series: int,
    length: int,
    fetch_fraction: float,
    seed: int,
    verified: bool,
    page_size: int = PAGE_SIZE,
) -> dict:
    """One timed headline gather, unverified or with verified reads.

    Both passes run on an integrity-enabled disk (the sidecar is
    recorded either way); ``verified=True`` additionally hashes every
    page view against the sidecar on the way up — the cost the
    ``verified_reads`` deployment mode pays on the exact
    skip-sequential fetch path the query engines use.
    """
    import time

    disk = SimulatedDisk(page_size=page_size, integrity=True)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_series, length)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    raw.verified_reads = verified
    n_fetch = max(1, int(n_series * fetch_fraction))
    idxs = np.sort(rng.choice(n_series, size=n_fetch, replace=False))
    disk.reset_stats()
    disk.park_head()
    t0 = time.perf_counter()
    fetched = raw.get_many(idxs)
    wall = time.perf_counter() - t0
    return {
        "fetched": fetched,
        "wall_s": wall,
        "stats": disk.stats,
        "head": disk.head_position,
    }


def _drive_scrub_cell(seed: int) -> dict:
    """One seeded decay + sweep cycle; asserts detected == injected.

    Builds a small durable index on an integrity disk, injects seeded
    at-rest bit decay on pages the sweep covers (single-bit on raw —
    the algebraically repairable case — alternating single/multi-bit
    on run pages to force quarantine + rebuild), then sweeps and
    *asserts* the oracle contract: the sweep finds exactly the
    injected pages, repairs them all, and post-repair answers equal
    the pre-decay answers.
    """
    import time

    from ..core.lsm import CoconutLSM
    from ..storage.integrity import Scrubber, decay_bit

    length = 64
    config = SAXConfig(series_length=length, word_length=8, cardinality=16)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((150, length)).astype(np.float32)
    extra = rng.standard_normal((150, length)).astype(np.float32)
    queries = rng.standard_normal((3, length))

    disk = SimulatedDisk(page_size=2048, integrity=True)
    raw = RawSeriesFile(disk, length)
    raw.append_batch(base)
    ix = CoconutLSM(disk, 1 << 10, config, durability="wal")
    ix.build(raw)
    for lo in range(0, len(extra), 25):
        ix.insert_batch(extra[lo : lo + 25])
    expect = [
        (r.answer_idx, r.distance) for r in (ix.exact_search(q) for q in queries)
    ]
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    targets = [
        (kind, first + i)
        for kind, _, first, n_pages in scrubber._targets()
        for i in range(n_pages)
    ]
    picks = rng.choice(len(targets), size=min(10, len(targets)), replace=False)
    injected = set()
    for pick in picks:
        kind, page = targets[int(pick)]
        n_bits = 3 if kind == "run" and int(pick) % 2 else 1
        for bit in rng.choice(2048 * 8, size=n_bits, replace=False):
            decay_bit(disk, page, int(bit))
        injected.add(page)
    t0 = time.perf_counter()
    report = scrubber.sweep()
    wall = time.perf_counter() - t0
    detected = set(report.corrupt_pages)
    if detected != injected:
        raise AssertionError(
            f"scrub detection violation at seed {seed}: injected "
            f"{sorted(injected)}, detected {sorted(detected)}"
        )
    if scrubber.unrepairable:
        raise AssertionError(
            f"scrub left {sorted(scrubber.unrepairable)} unrepaired at "
            f"seed {seed}"
        )
    after = [
        (r.answer_idx, r.distance) for r in (ix.exact_search(q) for q in queries)
    ]
    if after != expect:
        raise AssertionError(f"post-repair answers moved at seed {seed}")
    return {
        "pages_scanned": report.pages_scanned,
        "injected": len(injected),
        "detected": len(detected),
        "repaired": len(report.repaired_pages),
        "rebuilt_runs": report.rebuilt_runs,
        "wall_s": wall,
        "identical": after == expect,
    }


def run_scrub_sweep(
    n_series_list: list[int],
    length: int = 128,
    fetch_fraction: float = 0.3,
    seed: int = 7,
    repeats: int = 5,
    scrub_seeds: int = 4,
) -> list[dict]:
    """Price verified reads; smoke-test seeded scrub + repair.

    ``overhead`` cells run the headline skip-sequential gather twice —
    unverified vs ``verified_reads=True``, both on an
    integrity-recorded disk — and assert fetched records, classified
    :class:`DiskStats` and head positions bit-identical before
    reporting the wall-clock ratio (best of ``repeats``;
    informational, no bound).  ``scrub`` cells run seeded decay + sweep cycles;
    each asserts detected == injected, full repair and unmoved
    answers, and reports the sweep's page scan rate.
    """
    rows = []
    cores = _os_cores()
    for n_series in n_series_list:
        plain = min(
            (
                _drive_verified_fetch_pass(
                    n_series, length, fetch_fraction, seed, False
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        verified = min(
            (
                _drive_verified_fetch_pass(
                    n_series, length, fetch_fraction, seed, True
                )
                for _ in range(repeats)
            ),
            key=lambda run: run["wall_s"],
        )
        identical = bool(
            np.array_equal(plain["fetched"], verified["fetched"])
        )
        io_identical = (
            plain["stats"] == verified["stats"]
            and plain["head"] == verified["head"]
        )
        if not identical or not io_identical:
            raise AssertionError(
                f"verified reads changed the fetch at {n_series} "
                f"series: identical={identical}, "
                f"io_identical={io_identical}"
            )
        rows.append(
            {
                "workload": "overhead",
                "n_series": n_series,
                "cores": cores,
                "plain_s": plain["wall_s"],
                "verified_s": verified["wall_s"],
                "overhead": (
                    verified["wall_s"] / plain["wall_s"]
                    if plain["wall_s"]
                    else 1.0
                ),
                "identical": identical,
                "io_identical": io_identical,
            }
        )
    for scrub_seed in range(scrub_seeds):
        cell = _drive_scrub_cell(seed + scrub_seed)
        rows.append(
            {
                "workload": "scrub",
                "n_series": cell["pages_scanned"],
                "cores": cores,
                "plain_s": 0.0,
                "verified_s": cell["wall_s"],
                "overhead": 1.0,
                "identical": cell["identical"],
                "io_identical": True,
                "injected": cell["injected"],
                "detected": cell["detected"],
                "repaired": cell["repaired"],
                "rebuilt_runs": cell["rebuilt_runs"],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Online service: mixed read/write throughput with tail latency
# ----------------------------------------------------------------------
def run_serve_sweep(
    spec: DatasetSpec,
    n_queries: int = 64,
    workers_list: "list[int] | None" = None,
    batch_rows: int = 200,
    n_batches: int = 10,
    k: int = 3,
    approx_fraction: float = 0.3,
    timeout_s: "float | None" = None,
    seed: int = 7,
) -> list[dict]:
    """Sustained mixed ingest + query traffic through the service.

    Each cell boots a :class:`~repro.service.CoconutService` over the
    base dataset, starts the serve-on-arrival server thread, and runs a
    feeder thread ingesting ``n_batches`` batches of ``batch_rows``
    while the client submits ``n_queries`` queries (an
    ``approx_fraction`` mix of approximate 1-NN among exact k-NN).
    Reported per cell: sustained ingest and query throughput, the
    p50/p95/p99 end-to-end query latency from the service's own
    :class:`~repro.service.stats.ServiceStats` surface, and every
    robustness counter (shed, degraded, session conflicts).

    Every cell is also *checked*: each served exact ticket is verified
    bit-identical to a fault-free oracle index built over exactly the
    first ``snapshot_series`` rows the ticket reports, each served
    approximate ticket must name an in-watermark row, and the ticket
    accounting must conserve (``submitted == served + shed +
    rejected``).  A violation raises rather than reporting a number.
    """
    import threading
    import time as _time

    from ..core.lsm import CoconutLSM
    from ..service import CoconutService, ServiceConfig

    if workers_list is None:
        workers_list = [1, 2]
    config = default_config(spec.length)
    base = spec.generate()
    rng = np.random.default_rng(seed)
    stream = rng.standard_normal(
        (n_batches * batch_rows, spec.length)
    ).astype(np.float32)
    all_rows = np.vstack([base, stream])
    queries = spec.queries(n_queries).astype(np.float64)
    # Small enough that the ingest stream forces real flushes and
    # background compactions under the concurrent query traffic.
    memory = max(1 << 14, spec.raw_bytes // 64)
    oracles: dict[int, CoconutLSM] = {}

    def oracle_at(watermark: int) -> CoconutLSM:
        if watermark not in oracles:
            odisk = SimulatedDisk(page_size=PAGE_SIZE)
            oraw = RawSeriesFile(odisk, spec.length)
            oraw.append_batch(all_rows[:watermark])
            index = CoconutLSM(odisk, memory, config)
            index.build(oraw)
            oracles[watermark] = index
        return oracles[watermark]

    rows = []
    cores = _os_cores()
    for workers in workers_list:
        disk = SimulatedDisk(page_size=PAGE_SIZE)
        raw = RawSeriesFile(disk, spec.length)
        raw.append_batch(base)
        service = CoconutService(
            disk,
            raw,
            memory,
            sax_config=config,
            config=ServiceConfig(
                query_workers=workers,
                queue_capacity=max(64, n_queries),
                default_timeout_s=timeout_s,
            ),
        )
        service.bootstrap()
        service.start()
        feeder_error: list[Exception] = []

        def feed():
            try:
                for i in range(n_batches):
                    lo = i * batch_rows
                    service.ingest(
                        stream[lo : lo + batch_rows],
                        expected_first=len(base) + lo,
                    )
            except Exception as error:  # pragma: no cover - surfaced below
                feeder_error.append(error)

        t0 = _time.perf_counter()
        feeder = threading.Thread(target=feed)
        feeder.start()
        tickets = []
        mode_draws = rng.random(n_queries)
        for qi in range(n_queries):
            query = queries[qi]
            if mode_draws[qi] < approx_fraction:
                tickets.append(
                    (query, service.submit(query, mode="approximate"))
                )
            else:
                tickets.append((query, service.submit(query, k=k)))
        feeder.join()
        for _, ticket in tickets:
            ticket.wait(timeout=60.0)
        wall_s = _time.perf_counter() - t0
        service.stop(drain=True)
        if feeder_error:
            raise feeder_error[0]
        stats = service.stats_snapshot()
        terminal = (
            stats["served"]
            + sum(stats["shed"].values())
            + sum(stats["rejected"].values())
        )
        if stats["submitted"] != terminal:
            raise AssertionError(
                f"ticket accounting leak: submitted={stats['submitted']} "
                f"!= served+shed+rejected={terminal}"
            )
        n_exact = 0
        for query, ticket in tickets:
            if ticket.status != "served":
                continue
            watermark = ticket.snapshot_series
            if ticket.mode == "exact":
                n_exact += 1
                expected = oracle_at(watermark).exact_knn(query, ticket.k)
                if list(ticket.knn_ids) != list(expected.answer_ids) or (
                    ticket.knn_distances != list(expected.distances)
                ):
                    raise AssertionError(
                        f"served answer diverged from the oracle at "
                        f"watermark {watermark}: {ticket.knn_ids} vs "
                        f"{list(expected.answer_ids)}"
                    )
            else:
                (idx,) = ticket.knn_ids
                if not 0 <= idx < watermark:
                    raise AssertionError(
                        f"approximate answer {idx} outside snapshot "
                        f"watermark {watermark}"
                    )
        latency = stats["query_latency_s"]
        rows.append(
            {
                "workers": workers,
                "cores": cores,
                "n_series": int(raw.n_series),
                "n_queries": n_queries,
                "k": k,
                "wall_s": wall_s,
                "ingest_rows_per_s": (
                    stats["ingest_rows"] / wall_s if wall_s else 0.0
                ),
                "queries_per_s": stats["served"] / wall_s if wall_s else 0.0,
                "p50_ms": latency["p50"] * 1e3,
                "p95_ms": latency["p95"] * 1e3,
                "p99_ms": latency["p99"] * 1e3,
                "submitted": stats["submitted"],
                "served": stats["served"],
                "shed": sum(stats["shed"].values()),
                "rejected": sum(stats["rejected"].values()),
                "degraded_batches": stats["degraded_batches"],
                "session_conflicts": stats["session_conflicts"],
                "flushes": stats["lsm"]["flushes"],
                "merges": stats["lsm"]["merges"],
                "exact_verified": n_exact,
                "identical": True,  # a divergence raises above
            }
        )
    return rows


def _os_cores() -> int:
    import os

    return os.cpu_count() or 1
