"""The pipeline every workload runs: set-up, then rounds of build -> query -> serve.

:func:`run_workload` drives only the public API (``RawSeriesFile``,
``CoconutTree``, ``CoconutTrie``, ``CoconutService``, ``QueryBatch``),
checks every answer against a numpy brute-force scan and returns every
metric.  A workload (``workloads.py``) is a dataset plus the sizes of
the three stages; every workload runs all three, so every end-to-end
metric is measured on every workload.

Timing rules
------------
* Set-up (dataset, queries, brute-force oracle, raw file, the queried
  index and its first query, a service bootstrap) is repeated
  ``SETUP_REPS`` times and reported as ``setup_s``; nothing in it
  counts towards another metric.
* The measured part is a sequence of *rounds*.  One round is one build
  pass (three trees on fresh disks), one query pass (approximate,
  exact, one batch) and one service instance (Phase A closed-loop
  ingest, Phase B open-loop queries against a paced feeder, and in the
  first two rounds Phase C, a restart).  Rounds repeat until
  ``--seconds`` is used, at least ``MIN_ROUNDS`` times, so each metric's
  samples are spread over the whole run: a noisy second spoils one
  sample of each metric rather than every sample of one.
* The sandbox this runs on alternates, in blocks of seconds, between a
  fast state and one in which interpreter-heavy code takes ~1.5x and
  numpy-heavy code ~1.3x as long (README, "Steadiness").  Two defences:
  every timed section is bracketed by :func:`calibrate` and scaled to
  the reference machine speed, and a timing metric is the *lower
  quartile* over the rounds (per operation for latencies, before p50 /
  p90 are taken over the operations).
* Count metrics must be bit-identical between rounds (the determinism
  guard).
* With tracing requested, round 1 runs traced and every other round
  untraced, so one run yields the spans, the tracing overhead and a
  check that tracing changes no count.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import (
    CoconutService,
    CoconutTree,
    CoconutTrie,
    QueryBatch,
    RawSeriesFile,
    SAXConfig,
    ServiceConfig,
    SimulatedDisk,
    make_dataset,
    query_workload,
)
from repro.service import AdmissionError, ServiceUnavailable

from . import layers as L
from .loadgen import run_mixed_phase
from .trace import END, NAME, OP, PARENT, PAYLOAD, START, Tracer
from .workloads import BATCH_ROWS, FEEDER_BATCHES_PER_S, Workload

PAGE_SIZE = 8192
LEAF_SIZE = 100
WORD_LENGTH = 16
CARDINALITY = 256
#: memory_bytes as a share of the raw bytes: the program's own cache.
SPILL_MEMORY = 0.05
#: A materialized record is 24 B longer than its raw row, so "fits"
#: needs more than 100 %: at 200 % the sort is one in-memory run.
FITS_MEMORY = 2.0
BATCH_K = 10
SERVE_K = 3
MEMTABLE_RECORDS = 2048
SIZE_RATIO = 4
SCRUB_EVERY_BATCHES = 8
APPROX_EVERY = 5  # every fifth served ticket is approximate
SETUP_REPS = 3
MIN_ROUNDS = 2
MAX_ROUNDS = 24
TRACED_ROUND = 1
REL_TOL = 1e-6
#: What calibrate() takes on the sandbox the sizes were chosen on, in
#: its fast state; timings are reported at this machine speed.
REFERENCE_S = 0.0215
#: Timing metrics are this percentile over the rounds (see README:
#: the sandbox alternates between a fast and a ~1.4x slower state).
LOW_QUARTILE = 25

SETTINGS = {
    "disk": f"SimulatedDisk(page_size={PAGE_SIZE}, store='arena')",
    "sax": f"{WORD_LENGTH} segments x {CARDINALITY}",
    "leaf_size": LEAF_SIZE,
    "workers": 1,
    "spill_memory_fraction": SPILL_MEMORY,
    "fits_memory_fraction": FITS_MEMORY,
    "batch": f"k={BATCH_K}, exact",
    "service": (
        f"verified_reads=True, scrub_every_batches={SCRUB_EVERY_BATCHES}, "
        f"query_workers=1, WAL on, memtable={MEMTABLE_RECORDS} records, "
        f"size_ratio={SIZE_RATIO}, ingest batches of {BATCH_ROWS} rows"
    ),
    "mixed": (
        f"open loop, every {APPROX_EVERY}th ticket approximate, the rest "
        f"exact k={SERVE_K}; feeder paced at {FEEDER_BATCHES_PER_S} batches/s"
    ),
    "timing": (
        f"scaled to calibrate() = {REFERENCE_S} s; percentile {LOW_QUARTILE} "
        f"over the rounds"
    ),
}

#: Counts that later changes may rest claims on: they must repeat
#: exactly between the rounds of one run.
GUARDED = (
    "space_amp",
    "lsm_space_amp",
    "write_amp",
    "build_io_ms",
    "query_io_ms",
    "ingest_io_ms",
    "approx_dist_ratio",
    "core.sims.visited_per_query",
    "core.lsm.flushes",
    "core.lsm.merges",
)


class DeterminismError(AssertionError):
    """A count that must repeat exactly differed between two rounds."""


# ----------------------------------------------------------------------
# Bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Operations attempted and failed; every check is one operation."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, ok, note: str, *args) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note % args)


class _NoTracer:
    """Stands in for the tracer on untraced rounds (no wrappers, no spans)."""

    _null = nullcontext()

    def op(self, _kind, _index=0):
        return self._null

    def span(self, _name):
        return self._null

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


NO_TRACER = _NoTracer()


def calibrate() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes right now.

    It touches none of the repo's code, so a change to the repo cannot
    move it; the machine's speed of the moment does.
    """
    t0 = time.perf_counter()
    total = 0
    table = {}
    for i in range(30_000):
        total += i * i % 7
        table[i & 1023] = total
    for _ in range(6):
        (_CAL_MATRIX @ _CAL_MATRIX).sum()
        np.sort(_CAL_VECTOR)
        (_CAL_VECTOR * 1.0001 + 0.5).sum()
    return time.perf_counter() - t0


_CAL_MATRIX = np.random.default_rng(0).standard_normal((256, 256))
_CAL_VECTOR = np.random.default_rng(1).standard_normal(1 << 18)


def _speed_scale(before_s: float, after_s: float) -> float:
    """What turns a time measured between two calibrations into the time
    it would have been at the reference machine speed."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)


def _low_per_op(rows) -> np.ndarray:
    """Per operation (column), the lower quartile over the rounds (rows)."""
    return np.percentile(np.asarray(rows), LOW_QUARTILE, axis=0)


def _io_counts(stats) -> tuple:
    """(sequential pages, random pages, bytes written) of a ``DiskStats``."""
    return (
        stats.sequential_reads + stats.sequential_writes,
        stats.random_reads + stats.random_writes,
        stats.bytes_written,
    )


class Samples(dict):
    """name -> one value (or one list of per-operation values) per round."""

    def add(self, name: str, value) -> None:
        self.setdefault(name, []).append(value)

    def low(self, name: str) -> float:
        """Lower quartile over the rounds: the time at the machine's fast state."""
        return _percentile(self[name], LOW_QUARTILE)

    def low_per_op(self, name: str) -> np.ndarray:
        """Per operation, the lower quartile of its latency over the rounds."""
        return _low_per_op(self[name])


@dataclass
class Round:
    """What one round threads through its three passes."""

    index: int
    tracer: object  # the Tracer on the traced round, else NO_TRACER
    timed_s: float = 0.0  # main-thread wall of the timed sections, as measured
    paired_s: float = 0.0  # speed-normalised; the part every round repeats
    calibrations: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.calibrations.append(calibrate())

    def timed(self, wall_s: float, paired: bool = True) -> float:
        """Account a timed section that just ended; returns its speed scale,
        from the calibrations taken just before and just after the section."""
        before = self.calibrations[-1]
        self.calibrations.append(calibrate())
        scale = _speed_scale(before, self.calibrations[-1])
        self.timed_s += wall_s
        if paired:
            self.paired_s += wall_s * scale
        return scale


@dataclass
class Context:
    workload: Workload
    checks: Checks = field(default_factory=Checks)
    samples: Samples = field(default_factory=Samples)


def _rounds(seconds: float, clock=time.perf_counter):
    """Yield round indices until another average round would overrun ``seconds``."""
    start = clock()
    for index in range(MAX_ROUNDS):
        yield index
        done = index + 1
        elapsed = clock() - start
        if done >= MIN_ROUNDS and elapsed + elapsed / done > seconds:
            return


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _sax(length: int) -> SAXConfig:
    return SAXConfig(
        series_length=length, word_length=WORD_LENGTH, cardinality=CARDINALITY
    )


def _fresh_disk() -> SimulatedDisk:
    return SimulatedDisk(page_size=PAGE_SIZE, store="arena")


# ----------------------------------------------------------------------
# Brute-force oracle (float64)
# ----------------------------------------------------------------------
def distance_matrix(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Euclidean distances, (n_queries, n_rows), float64 throughout."""
    queries = np.asarray(queries, dtype=np.float64)
    out = np.empty((len(queries), len(data)), dtype=np.float64)
    q_norm = np.einsum("ij,ij->i", queries, queries)
    for lo in range(0, len(data), 16384):
        block = np.asarray(data[lo : lo + 16384], dtype=np.float64)
        squared = (
            q_norm[:, None]
            + np.einsum("ij,ij->i", block, block)[None, :]
            - 2.0 * (queries @ block.T)
        )
        np.maximum(squared, 0.0, out=squared)
        out[:, lo : lo + len(block)] = np.sqrt(squared)
    return out


def knn_distances(queries: np.ndarray, data: np.ndarray, k: int) -> np.ndarray:
    """The k smallest distances per query, ascending."""
    distances = distance_matrix(queries, data)
    k = min(k, distances.shape[1])
    return np.sort(np.partition(distances, k - 1, axis=1)[:, :k], axis=1)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _all_close(got, want) -> bool:
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


def _direct(query: np.ndarray, row: np.ndarray) -> float:
    diff = np.asarray(row, dtype=np.float64) - query
    return float(np.sqrt(np.dot(diff, diff)))


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    data: np.ndarray  # float32, every row any stage uses
    approx_q: np.ndarray  # the first n_exact of these are the exact queries
    batch_q: np.ndarray
    serve_q: np.ndarray
    build_knn: np.ndarray  # (3, BATCH_K): the build probes over data[:n_build]
    query_knn: np.ndarray  # (n_exact + batch_queries, BATCH_K) over data[:n_query]
    serve_dist: np.ndarray  # (n_serve_q, serve_rows) full distance matrix
    tree: CoconutTree
    tree_disk: SimulatedDisk
    first_query_s: float


def _new_service(workload: Workload, data: np.ndarray):
    """A bootstrapped service over the first ``serve_base`` rows."""
    config = _sax(workload.length)
    disk = _fresh_disk()
    raw = RawSeriesFile.create(disk, data[: workload.serve_base])
    service = CoconutService(
        disk,
        raw,
        memory_bytes=MEMTABLE_RECORDS * 2 * (config.key_bytes + 8),
        sax_config=config,
        config=ServiceConfig(
            verified_reads=True,
            scrub_every_batches=SCRUB_EVERY_BATCHES,
            query_workers=1,
        ),
        size_ratio=SIZE_RATIO,
        # One clock for tickets, load generator and tracer, so that
        # due times, submit times and span ends are comparable.
        clock=time.perf_counter,
    )
    service.bootstrap()
    return disk, raw, service


def set_up(workload: Workload, seed: int) -> Inputs:
    w = workload
    data = make_dataset(w.dataset, w.total_rows, length=w.length, seed=seed)
    n_serve_q = max(w.restart_queries, w.n_mixed_requests)
    queries = query_workload(
        w.dataset, w.n_approx + w.batch_queries + n_serve_q, length=w.length, seed=seed
    ).astype(np.float64)
    approx_q = queries[: w.n_approx]
    batch_q = queries[w.n_approx : w.n_approx + w.batch_queries]
    serve_q = queries[w.n_approx + w.batch_queries :]
    build_knn = knn_distances(approx_q[:3], data[: w.n_build], BATCH_K)
    query_knn = knn_distances(
        np.vstack([approx_q[: w.n_exact], batch_q]), data[: w.n_query], BATCH_K
    )
    serve_dist = distance_matrix(serve_q, data[: w.serve_rows])
    disk = _fresh_disk()
    raw = RawSeriesFile.create(disk, data[: w.n_query])
    tree = CoconutTree(
        disk,
        max(1, int(w.n_query * w.length * 4 * SPILL_MEMORY)),
        config=_sax(w.length),
        leaf_size=LEAF_SIZE,
    )
    tree.build(raw)
    t0 = time.perf_counter()
    tree.exact_search(approx_q[0])  # loads the summary column, once per index
    first_query_s = time.perf_counter() - t0
    # A service bootstrap belongs to set-up too: work a later change
    # moves into the constructor or bootstrap() must show in setup_s.
    _new_service(w, data)[2].stop()
    return Inputs(
        data, approx_q, batch_q, serve_q, build_knn, query_knn, serve_dist,
        tree, disk, first_query_s,
    )


# ----------------------------------------------------------------------
# Build pass
# ----------------------------------------------------------------------
BUILD_CELLS = [
    # (operation kind, metric, materialized, memory fraction)
    (L.BUILD_TREE, "build_tree_s", False, SPILL_MEMORY),
    (L.BUILD_SPILL, "build_full_spill_s", True, SPILL_MEMORY),
    (L.BUILD_FITS, "build_full_fits_s", True, FITS_MEMORY),
]


def build_pass(ctx: Context, inputs: Inputs, rnd: Round) -> None:
    w, samples, tracer = ctx.workload, ctx.samples, rnd.tracer
    data = inputs.data[: w.n_build]
    config = _sax(w.length)
    io_ms = 0.0
    io = np.zeros(3, dtype=np.int64)
    for kind, metric, materialized, fraction in BUILD_CELLS:
        disk = _fresh_disk()
        raw = RawSeriesFile.create(disk, data)
        tree = CoconutTree(
            disk,
            max(1, int(data.nbytes * fraction)),
            config=config,
            leaf_size=LEAF_SIZE,
            materialized=materialized,
        )
        with tracer.op(kind):
            t0 = time.perf_counter()
            report = tree.build(raw)
            wall = time.perf_counter() - t0
        samples.add(metric, wall * rnd.timed(wall))
        io_ms += report.simulated_io_ms
        io += _io_counts(report.io)
        records = round(report.n_leaves * report.avg_leaf_fill * LEAF_SIZE)
        ctx.checks.expect(
            report.n_series == len(data) and records == len(data),
            "%s: built %d records over %d series, expected %d",
            kind, records, report.n_series, len(data),
        )
        if kind == L.BUILD_TREE:
            samples.add("space_amp", report.index_bytes / data.nbytes)
            samples.add("core.coconut_tree.n_leaves", report.n_leaves)
            samples.add("core.coconut_tree.leaf_fill", report.avg_leaf_fill)
        elif kind == L.BUILD_SPILL:
            samples.add("storage.external_sort.n_runs", report.extra["sort_runs"])
        if materialized:
            # A materialized tree answers from its own leaves, so a few
            # exact queries check what the build stored there.
            for j in range(len(inputs.build_knn)):
                result = tree.exact_search(inputs.approx_q[j])
                ctx.checks.expect(
                    _close(result.distance, inputs.build_knn[j, 0]),
                    "%s: probe %d distance %r != brute force %r",
                    kind, j, result.distance, inputs.build_knn[j, 0],
                )
    samples.add("build_io_ms", io_ms)
    samples.add("build_disk", tuple(int(n) for n in io))
    if tracer is not NO_TRACER:
        # The prefix-split trie is built for its layer metrics only.
        disk = _fresh_disk()
        raw = RawSeriesFile.create(disk, data)
        trie = CoconutTrie(
            disk,
            max(1, int(data.nbytes * SPILL_MEMORY)),
            config=config,
            leaf_size=LEAF_SIZE,
        )
        with tracer.op(L.BUILD_TRIE):
            t0 = time.perf_counter()
            report = trie.build(raw)
            rnd.timed(time.perf_counter() - t0, paired=False)
        samples.add("core.coconut_trie.leaf_fill", report.avg_leaf_fill)
        samples.add("core.coconut_trie.n_leaves", report.n_leaves)


# ----------------------------------------------------------------------
# Query pass
# ----------------------------------------------------------------------
def query_pass(ctx: Context, inputs: Inputs, rnd: Round) -> None:
    w, samples, checks, tracer = ctx.workload, ctx.samples, ctx.checks, rnd.tracer
    tree, disk = inputs.tree, inputs.tree_disk
    # The same untimed query before every pass puts the device head
    # (sequential vs random classification) in the same state each time.
    tree.exact_search(inputs.approx_q[0])
    snapshot = disk.snapshot()

    lat, approx = [], []
    t_loop = time.perf_counter()
    for i, query in enumerate(inputs.approx_q):
        with tracer.op(L.APPROX, i):
            t0 = time.perf_counter()
            result = tree.approximate_search(query)
            lat.append(time.perf_counter() - t0)
        approx.append(result)
    scale = rnd.timed(time.perf_counter() - t_loop)
    samples.add("approx_s", np.asarray(lat) * scale)

    lat, exact = [], []
    before_exact = disk.snapshot()
    t_loop = time.perf_counter()
    for i, query in enumerate(inputs.approx_q[: w.n_exact]):
        with tracer.op(L.EXACT, i):
            t0 = time.perf_counter()
            result = tree.exact_search(query)
            lat.append(time.perf_counter() - t0)
        exact.append(result)
    scale = rnd.timed(time.perf_counter() - t_loop)
    exact_io = disk.stats_since(before_exact)
    samples.add("exact_s", np.asarray(lat) * scale)

    with tracer.op(L.BATCH):
        t0 = time.perf_counter()
        report = tree.query_batch(QueryBatch(inputs.batch_q, k=BATCH_K, mode="exact"))
        batch_s = time.perf_counter() - t0
    batch_scale = rnd.timed(batch_s)
    stats = disk.stats_since(snapshot)

    for i, result in enumerate(approx):
        idx = result.answer_idx
        ok = 0 <= idx < w.n_query and _close(
            result.distance, _direct(inputs.approx_q[i], inputs.data[idx])
        )
        if ok and i < w.n_exact:
            nearest = inputs.query_knn[i, 0]
            ok = result.distance >= nearest - REL_TOL * max(nearest, 1.0)
        checks.expect(
            ok, "approx %d: row %d at %r is not a valid answer", i, idx, result.distance
        )
    for i, result in enumerate(exact):
        checks.expect(
            _close(result.distance, inputs.query_knn[i, 0]),
            "exact %d: distance %r != brute force %r",
            i, result.distance, inputs.query_knn[i, 0],
        )
    for i, got in enumerate(report.knn_distances):
        checks.expect(
            _all_close(got, inputs.query_knn[w.n_exact + i]),
            "batch query %d: %d-NN distances differ from brute force", i, BATCH_K,
        )

    samples.add("batch_s", batch_s * batch_scale)
    samples.add(
        "approx_dist_ratio",
        float(
            np.mean(
                [approx[i].distance / inputs.query_knn[i, 0] for i in range(w.n_exact)]
            )
        ),
    )
    samples.add("query_io_ms", disk.cost_model.io_ms(stats))
    samples.add("query_disk", _io_counts(stats))
    samples.add(
        "core.sims.visited_per_query", float(np.mean([r.visited_records for r in exact]))
    )
    samples.add("core.sims.pruned_frac", float(np.mean([r.pruned_fraction for r in exact])))
    samples.add(
        "core.coconut_tree.approx_leaves_read",
        float(np.mean([r.visited_leaves for r in approx])),
    )
    samples.add("storage.disk.pages_read_per_exact", exact_io.total_reads / w.n_exact)
    samples.add(
        "storage.disk.rand_read_frac", exact_io.random_reads / max(1, exact_io.total_reads)
    )
    if report.plan is not None:
        samples.add(
            "parallel.sched.predicted_ms",
            report.plan.est_scan_ms + report.plan.est_refine_ms,
        )
    if tracer is not NO_TRACER:
        # The same batch on two workers: ROADMAP's unvalidated parallel row.
        t0 = time.perf_counter()
        tree.query_batch(
            QueryBatch(inputs.batch_q, k=BATCH_K, mode="exact"), query_workers=2
        )
        samples.add(
            "parallel.query.workers2_qps",
            len(inputs.batch_q) / (time.perf_counter() - t0),
        )


# ----------------------------------------------------------------------
# Serve pass: one service instance per round
# ----------------------------------------------------------------------
def _check_ticket(ctx: Context, inputs: Inputs, query_index: int, ticket) -> None:
    if ticket.status != "served":
        ctx.checks.expect(
            False, "ticket %d: %s (%s)", query_index, ticket.status, ticket.shed_reason
        )
        return
    watermark = ticket.snapshot_series
    row = inputs.serve_dist[query_index, :watermark]
    if ticket.mode == "exact":
        k = min(ticket.k, watermark)
        ok = _all_close(ticket.knn_distances, np.sort(np.partition(row, k - 1)[:k]))
    else:
        nearest = row.min()
        ok = (
            len(ticket.knn_ids) == 1
            and 0 <= ticket.knn_ids[0] < watermark
            and _close(ticket.knn_distances[0], row[ticket.knn_ids[0]])
            and ticket.knn_distances[0] >= nearest - REL_TOL * max(nearest, 1.0)
        )
    ctx.checks.expect(
        ok,
        "ticket %d (%s) differs from brute force over the first %d rows",
        query_index, ticket.mode, watermark,
    )


def _ingest_phase(ctx: Context, inputs: Inputs, rnd: Round, disk, raw, service) -> None:
    """Phase A: closed-loop ingest, one feeder, no queries."""
    w, samples, tracer = ctx.workload, ctx.samples, rnd.tracer
    snapshot = disk.snapshot()
    calls = []
    t_phase = time.perf_counter()
    for i in range(w.ingest_batches):
        lo = w.serve_base + i * BATCH_ROWS
        with tracer.op(L.INGEST, i):
            t0 = time.perf_counter()
            try:
                receipt = service.ingest(
                    inputs.data[lo : lo + BATCH_ROWS], expected_first=lo
                )
                ok = receipt.first_index == lo and not receipt.deduplicated
            except ServiceUnavailable:
                ok = False
            calls.append(time.perf_counter() - t0)
        ctx.checks.expect(ok, "ingest batch %d was not acknowledged", i)
    wall = time.perf_counter() - t_phase
    scale = rnd.timed(wall)
    stats = disk.stats_since(snapshot)
    lsm = service.stats_snapshot()["lsm"]
    rows = w.ingest_batches * BATCH_ROWS
    samples.add("ingest_s", wall * scale)
    samples.add("ingest_call_s", np.asarray(calls) * scale)
    samples.add("write_amp", stats.bytes_written / (rows * w.length * 4))
    samples.add(
        "lsm_space_amp",
        (disk.pages_allocated * PAGE_SIZE - raw.size_bytes)
        / (raw.n_series * w.length * 4),
    )
    samples.add("ingest_io_ms", disk.cost_model.io_ms(stats))
    samples.add("ingest_disk", _io_counts(stats))
    samples.add("core.lsm.flushes", lsm["flushes"])
    samples.add("core.lsm.merges", lsm["merges"])
    samples.add("core.lsm.runs_final", lsm["runs"])
    samples.add(
        "storage.integrity.scrub_pages",
        service.stats_snapshot()["scrub"]["pages_scanned"],
    )


def _mixed_phase(ctx: Context, inputs: Inputs, rnd: Round, service) -> None:
    """Phase B: open-loop queries against a paced feeder on the same instance."""
    w, samples = ctx.workload, ctx.samples
    first_row = w.serve_base + w.ingest_batches * BATCH_ROWS
    t0 = time.perf_counter()
    phase = run_mixed_phase(
        service,
        queries=inputs.serve_q[: w.n_mixed_requests],
        stream=inputs.data[first_row : first_row + w.n_mixed_batches * BATCH_ROWS],
        first_row=first_row,
        batch_rows=BATCH_ROWS,
        rate_qps=w.mixed_rate_qps,
        feeder_batches_per_s=FEEDER_BATCHES_PER_S,
        approx_every=APPROX_EVERY,
        k=SERVE_K,
        tracer=rnd.tracer,
    )
    scale = rnd.timed(time.perf_counter() - t0, paired=False)
    exact_ms = []
    for i, (ticket, due_s) in enumerate(zip(phase.tickets, phase.due_s)):
        if ticket is None:
            ctx.checks.expect(False, "ticket %d rejected at admission", i)
            continue
        _check_ticket(ctx, inputs, i, ticket)
        if ticket.status == "served" and ticket.mode == "exact":
            # Latency runs from the instant the request was *due*, so a
            # stall also charges the requests it delayed.
            exact_ms.append(
                (ticket.submitted_s + ticket.latency_s - due_s) * 1e3 * scale
            )
    for i, ok in enumerate(phase.feeder_acks):
        ctx.checks.expect(ok, "mixed-phase ingest batch %d was not acknowledged", i)
    stats = service.stats_snapshot()
    shed = sum(stats["shed"].values())
    rejected = sum(stats["rejected"].values())
    ctx.checks.expect(
        stats["submitted"] + rejected == len(phase.tickets)
        and stats["submitted"] == stats["served"] + shed,
        "ticket accounting leak: offered %d, submitted %d, served %d, shed %d, "
        "rejected %d",
        len(phase.tickets), stats["submitted"], stats["served"], shed, rejected,
    )
    samples.add("serve_exact_ms", exact_ms)
    samples.add("service.admission.depth_max", phase.depth_max)
    samples.add("service.service.degraded_batches", stats["degraded_batches"])
    samples.add("service.service.session_conflicts", stats["session_conflicts"])
    samples.add("service.service.shed", shed)
    samples.add("service.service.rejected", rejected)
    samples.add("loadgen.late_max_ms", phase.late_max_s * 1e3)
    samples.add("loadgen.feeder_late_max_ms", phase.feeder_late_max_s * 1e3)


def _restart_phase(ctx: Context, inputs: Inputs, rnd: Round, raw, service) -> None:
    """Phase C: restart, then every acknowledged row and 20 answers must hold."""
    w = ctx.workload
    with rnd.tracer.op(L.RESTART):
        t0 = time.perf_counter()
        service.restart()
        wall = time.perf_counter() - t0
    ctx.samples.add("service.service.restart_s", wall * rnd.timed(wall, paired=False))
    expected = w.serve_rows
    present = raw.n_series == expected
    for lo in range(0, expected if present else 0, 8192):
        hi = min(expected, lo + 8192)
        present = present and np.array_equal(
            raw.get_many(np.arange(lo, hi)), inputs.data[lo:hi]
        )
    ctx.checks.expect(
        present,
        "after restart the raw file does not hold the %d acknowledged rows",
        expected,
    )
    for i in range(w.restart_queries):
        try:
            ticket = service.query(inputs.serve_q[i], mode="exact", k=SERVE_K)
        except AdmissionError as error:
            ctx.checks.expect(False, "restart query %d rejected: %s", i, error.reason)
            continue
        _check_ticket(ctx, inputs, i, ticket)


def serve_pass(ctx: Context, inputs: Inputs, rnd: Round) -> None:
    disk, raw, service = _new_service(ctx.workload, inputs.data)
    _ingest_phase(ctx, inputs, rnd, disk, raw, service)
    service.start()
    try:
        _mixed_phase(ctx, inputs, rnd, service)
        if rnd.index <= TRACED_ROUND:
            _restart_phase(ctx, inputs, rnd, raw, service)
    finally:
        service.stop()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _guard(samples: Samples) -> None:
    for name in GUARDED:
        values = samples[name]
        if any(value != values[0] for value in values[1:]):
            raise DeterminismError(
                f"{name} must repeat exactly between the rounds of one run "
                f"(the traced round included), got {values}"
            )


def _end_to_end(w: Workload, samples: Samples, setup_s: list) -> dict:
    # A query's latency is its lower quartile over the rounds; p50 and
    # p90 are then taken over the queries.
    approx_ms = samples.low_per_op("approx_s") * 1e3
    exact_ms = samples.low_per_op("exact_s") * 1e3
    # A ticket that failed is missing from its round: keep the common prefix.
    tickets = min(len(r) for r in samples["serve_exact_ms"])
    serve_ms = _low_per_op([r[:tickets] for r in samples["serve_exact_ms"]])
    return {
        "setup_s": _percentile(setup_s, LOW_QUARTILE),
        "build_tree_s": samples.low("build_tree_s"),
        "build_full_spill_s": samples.low("build_full_spill_s"),
        "build_full_fits_s": samples.low("build_full_fits_s"),
        "space_amp": samples["space_amp"][0],
        "lsm_space_amp": samples["lsm_space_amp"][0],
        "model_io_s": (
            samples["build_io_ms"][0]
            + samples["query_io_ms"][0]
            + samples["ingest_io_ms"][0]
        )
        / 1e3,
        "approx_p50_ms": _percentile(approx_ms, 50),
        "approx_dist_ratio": samples["approx_dist_ratio"][0],
        "exact_p50_ms": _percentile(exact_ms, 50),
        "exact_p90_ms": _percentile(exact_ms, 90),
        "batch_exact_qps": w.batch_queries / samples.low("batch_s"),
        "ingest_rows_per_s": w.ingest_batches * BATCH_ROWS / samples.low("ingest_s"),
        "write_amp": samples["write_amp"][0],
        "serve_p50_ms": _percentile(serve_ms, 50),
        "serve_p90_ms": _percentile(serve_ms, 90),
    }


def _count_layers(
    samples: Samples, inputs: Inputs, checks: Checks, rounds: list
) -> dict:
    layer = {}
    for name in (
        "storage.external_sort.n_runs",
        "core.coconut_tree.n_leaves",
        "core.coconut_tree.leaf_fill",
        "core.coconut_trie.n_leaves",
        "core.coconut_trie.leaf_fill",
        "core.coconut_tree.approx_leaves_read",
        "core.sims.pruned_frac",
        "core.sims.visited_per_query",
        "storage.disk.pages_read_per_exact",
        "storage.disk.rand_read_frac",
        "parallel.sched.predicted_ms",
        "parallel.query.workers2_qps",
        "core.lsm.flushes",
        "core.lsm.merges",
        "core.lsm.runs_final",
        "storage.integrity.scrub_pages",
    ):
        layer[name] = samples.get(name, [0])[0]
    layer["parallel.batch.measured_ms"] = samples.low("batch_s") * 1e3
    layer["service.service.restart_s"] = samples.low("service.service.restart_s")
    for name in (
        "service.admission.depth_max",
        "service.service.degraded_batches",
        "service.service.session_conflicts",
        "service.service.shed",
        "service.service.rejected",
        "loadgen.late_max_ms",
        "loadgen.feeder_late_max_ms",
    ):
        layer[name] = max(samples[name])
    per_call = samples.low_per_op("ingest_call_s") * 1e3
    layer["service.service.ingest_call_p50_ms"] = _percentile(per_call, 50)
    layer["service.service.ingest_call_max_ms"] = float(per_call.max())
    layer["serve.exact_tickets"] = len(samples["serve_exact_ms"][0])
    layer["core.coconut_tree.first_query_s"] = inputs.first_query_s
    for i, key in enumerate(("seq_pages", "rand_pages", "bytes_written")):
        layer[f"storage.disk.{key}"] = sum(
            samples[stage][0][i] for stage in ("build_disk", "query_disk", "ingest_disk")
        )
    layer["process.peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    layer["failed_share"] = checks.failed / checks.attempted
    layer["bench.rounds"] = len(rounds)
    # How fast the machine was, against the reference the times are scaled to.
    layer["bench.machine_speed"] = REFERENCE_S / float(
        np.median([c for r in rounds for c in r.calibrations])
    )
    return layer


def _span_layers(workload: Workload, tracer: Tracer, rounds: list) -> dict:
    """Per-layer metrics of the traced round, from its spans."""
    layer = {}
    own = tracer.self_times()
    spans = tracer.finished()
    totals: dict = {}
    n_spans: dict = {}
    for span in spans:
        key = (span[NAME], span[OP][0])
        totals[key] = totals.get(key, 0.0) + own[id(span)]
        n_spans[key] = n_spans.get(key, 0) + 1
    for metric in L.SPAN_METRICS:
        value = sum(totals.get((metric.span, kind), 0.0) for kind in metric.ops)
        if metric.per is not None:
            divisor = n_spans.get((L.OP_SPAN[metric.per], metric.per), 0)
            value = value / divisor if divisor else 0.0
        layer[metric.name] = value
    # Bytes attributed by ancestor: what compaction and the WAL wrote in Phase A.
    user_bytes = workload.ingest_batches * BATCH_ROWS * workload.length * 4
    layer["core.lsm.compaction_bytes"] = sum(
        span[PAYLOAD]
        for span in tracer.under("storage.pager.write", "core.lsm.compact")
        if span[OP][0] == L.INGEST
    )
    layer["core.wal.bytes_per_user_byte"] = (
        sum(
            -(-span[PAYLOAD] // PAGE_SIZE) * PAGE_SIZE  # a frame fills whole pages
            for span in tracer.under("storage.pager.write", "core.wal.append")
            if span[OP][0] == L.INGEST
        )
        / user_bytes
    )
    # Admission: how long tickets waited before a serving batch took them.
    waits, sizes = [], []
    for span in spans:
        if span[NAME] == "service.admission.collect" and span[PAYLOAD]:
            sizes.append(len(span[PAYLOAD]))
            waits.extend((span[END] - submitted) * 1e3 for submitted in span[PAYLOAD])
    layer["service.admission.queue_wait_p50_ms"] = _percentile(waits, 50) if waits else 0.0
    layer["service.admission.queue_wait_p90_ms"] = _percentile(waits, 90) if waits else 0.0
    layer["service.admission.batch_size_mean"] = float(np.mean(sizes)) if sizes else 0.0
    # Validity of the traced round itself.
    traced = rounds[TRACED_ROUND]
    untraced = [r.paired_s for r in rounds if r.index != TRACED_ROUND]
    covered = sum(
        span[END] - span[START]
        for span in spans
        if span[PARENT] is None and span[OP][0] in L.DRIVER_OPS
    )
    layer["trace.traced_wall_s"] = traced.timed_s
    layer["unattributed_s"] = traced.timed_s - covered
    layer["unattributed_frac"] = (traced.timed_s - covered) / traced.timed_s
    # With unattributed_s, these self times must add up to the traced wall.
    layer["trace.attributed_self_s"] = sum(
        own[id(span)] for span in spans if span[OP][0] in L.DRIVER_OPS
    )
    layer["trace.overhead_frac"] = traced.paired_s / statistics.median(untraced) - 1.0
    layer["trace.spans"] = len(spans)
    layer["trace.missing_targets"] = len(tracer.missing)
    return layer


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the whole pipeline once; returns metrics and the check totals."""
    tracer = Tracer(L.TARGETS) if trace else None
    ctx = Context(workload)
    setup_s = []
    inputs = None
    before = calibrate()
    for _ in range(SETUP_REPS):
        inputs = None  # free the previous repetition before the next one
        t0 = time.perf_counter()
        inputs = set_up(workload, seed)
        wall = time.perf_counter() - t0
        after = calibrate()
        setup_s.append(wall * _speed_scale(before, after))
        before = after
    rounds = []
    for index in _rounds(seconds):
        traced = tracer is not None and index == TRACED_ROUND
        rnd = Round(index, tracer if traced else NO_TRACER)
        with rnd.tracer:
            build_pass(ctx, inputs, rnd)
            query_pass(ctx, inputs, rnd)
            serve_pass(ctx, inputs, rnd)
        rounds.append(rnd)
    _guard(ctx.samples)
    layer = {}
    if tracer is not None:
        layer = _count_layers(ctx.samples, inputs, ctx.checks, rounds)
        layer.update(_span_layers(workload, tracer, rounds))
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": bool(trace),
        "correct": ctx.checks.failed == 0,
        "attempted": ctx.checks.attempted,
        "failed": ctx.checks.failed,
        "notes": ctx.checks.notes,
        "rounds": len(rounds),
        "e2e": _end_to_end(workload, ctx.samples, setup_s),
        "layer": layer,
        "tracer": tracer,
    }
