"""The online index service: admission, deadlines, snapshots, degradation.

Unit-level contracts of :class:`repro.service.CoconutService`
(``docs/service.md``):

* **bounded admission** — a full queue rejects with ``queue_full``; a
  dead-on-arrival deadline rejects with ``deadline_expired``; malformed
  requests raise ``ValueError`` before touching admission accounting;
* **deadline shedding** — a ticket whose deadline passes while queued
  is shed with the reason reported (driven by a manual clock, so the
  schedule is deterministic);
* **exactness** — served answers are bit-identical to the LSM's own
  engines over the snapshot watermark the ticket reports;
* **snapshot isolation** — a snapshot taken before further ingest
  (flushes, compactions) keeps answering bit-identically afterwards;
* **graceful degradation** — serve-path faults retry or fall back to
  the serial pass on the snapshot's pre-attached read-only shard, and
  are counted;
* **crash latch** — an ingest crash rejects further ingest with
  ``device_crashed`` while queries keep serving the last good
  snapshot; ``restart()`` recovers and resumes, with every
  acknowledged row intact and no duplicates;
* **accounting conservation** — ``submitted == served + shed +
  rejected`` at every quiescent point; nothing is silently dropped.
"""

import numpy as np
import pytest

from fault_injection import FaultPlan, FaultyDevice
from repro.core.lsm import CoconutLSM
from repro.service import (
    REJECT_CRASHED,
    REJECT_DEADLINE,
    REJECT_QUEUE_FULL,
    REJECT_SHUTDOWN,
    AdmissionError,
    CoconutService,
    ServiceConfig,
    ServiceUnavailable,
    serve_snapshot_batch,
)
from repro.indexes.base import QueryBatch
from repro.storage import DiskShard, SimulatedDisk
from repro.storage.seriesfile import RawSeriesFile
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)
MEM = 1 << 10
PAGE = 2048

_rng = np.random.default_rng(4242)
BASE = _rng.standard_normal((150, LENGTH)).astype(np.float32)
EXTRA = _rng.standard_normal((200, LENGTH)).astype(np.float32)
QUERIES = _rng.standard_normal((4, LENGTH))


class ManualClock:
    """Deterministic injected clock for deadline schedules."""

    def __init__(self):
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


def make_service(config=None, device=None, clock=None, n_base=len(BASE)):
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE[:n_base])
    kwargs = {}
    if clock is not None:
        kwargs["clock"] = clock
    svc = CoconutService(
        disk,
        raw,
        MEM,
        sax_config=CONFIG,
        config=config,
        device=device,
        **kwargs,
    )
    svc.bootstrap()
    return disk, raw, svc


def expected_answers(lsm, k=3):
    """(exact ids+distances, approximate id) per query, on the LSM's engines."""
    out = []
    for q in QUERIES:
        exact = lsm.exact_knn(q, k)
        approx = lsm.approximate_search(q)
        out.append((list(exact.answer_ids), list(exact.distances), approx.answer_idx))
    return out


def assert_serves_expected(svc, expected, k=3, watermark=None):
    # In the crashed state the raw file may hold unacknowledged rows
    # beyond the last good snapshot (recovery truncates them away), so
    # crash tests pass the acked watermark explicitly.
    if watermark is None:
        watermark = svc.raw.n_series
    for q, (ids, dists, approx_idx) in zip(QUERIES, expected):
        ticket = svc.query(q, mode="exact", k=k)
        assert ticket.status == "served"
        assert list(ticket.knn_ids) == ids
        assert ticket.knn_distances == dists
        assert ticket.snapshot_series == watermark
        t2 = svc.query(q, mode="approximate")
        assert t2.status == "served"
        assert t2.knn_ids == [approx_idx]


def assert_conservation(svc):
    s = svc.stats_snapshot()
    terminal = s["served"] + sum(s["shed"].values()) + sum(s["rejected"].values())
    assert s["submitted"] == terminal + s["queue_depth"]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_queue_full_rejects_with_reason():
    _, _, svc = make_service(ServiceConfig(queue_capacity=2))
    svc.submit(QUERIES[0])
    svc.submit(QUERIES[1])
    with pytest.raises(AdmissionError) as err:
        svc.submit(QUERIES[2])
    assert err.value.reason == REJECT_QUEUE_FULL
    # The queued tickets still serve once the pump runs.
    assert svc.serve_pending() >= 1
    assert_conservation(svc)
    assert svc.stats_snapshot()["rejected"] == {REJECT_QUEUE_FULL: 1}


def test_dead_on_arrival_deadline_rejects():
    clock = ManualClock()
    _, _, svc = make_service(clock=clock)
    with pytest.raises(AdmissionError) as err:
        svc.submit(QUERIES[0], timeout_s=0.0)
    assert err.value.reason == REJECT_DEADLINE
    assert_conservation(svc)


def test_malformed_requests_raise_before_accounting():
    _, _, svc = make_service()
    with pytest.raises(ValueError):
        svc.submit(QUERIES[0], mode="fuzzy")
    with pytest.raises(ValueError):
        svc.submit(QUERIES[0], k=0)
    with pytest.raises(ValueError):
        svc.submit(QUERIES[0], mode="approximate", k=2)
    assert svc.stats_snapshot()["submitted"] == 0


def test_wrong_length_or_non_finite_query_is_refused_and_the_server_lives():
    """A malformed query used to reach ``np.stack`` on the server
    thread, outside its ``try``: the thread died, the ticket stayed
    ``queued`` and every later ticket hung."""
    _, _, svc = make_service()
    svc.start()
    try:
        before = svc.stats_snapshot()
        poisoned = QUERIES[0].copy()
        poisoned[3] = np.nan
        for bad in (np.zeros(10), np.zeros(LENGTH + 1), poisoned, -poisoned * np.inf):
            for mode in ("exact", "approximate"):
                with pytest.raises(ValueError):
                    svc.submit(bad, mode=mode)
        after = svc.stats_snapshot()
        for counter in ("submitted", "served", "shed", "rejected", "queue_depth"):
            assert after[counter] == before[counter]
        ticket = svc.submit(QUERIES[1], k=2)
        assert ticket.wait(timeout=30.0)
        assert svc._thread.is_alive()
        assert ticket.status == "served"
        oracle = svc._lsm.exact_knn(QUERIES[1], 2)
        assert list(ticket.knn_ids) == list(oracle.answer_ids)
    finally:
        svc.stop()
    assert_conservation(svc)


def test_non_integer_k_is_refused_and_the_server_lives():
    """``k=2.5`` used to be admitted and kill the serving thread in
    ``np.partition``: every later ticket stayed ``queued`` forever."""
    _, _, svc = make_service()
    svc.start()
    try:
        for bad in (2.5, 3.0):
            with pytest.raises(ValueError):
                svc.submit(QUERIES[0], k=bad)
        assert svc.stats_snapshot()["submitted"] == 0
        ticket = svc.submit(QUERIES[1], k=3)
        assert ticket.wait(timeout=30.0)
        assert svc._thread.is_alive()
        assert ticket.status == "served"
        oracle = svc._lsm.exact_knn(QUERIES[1], 3)
        assert list(ticket.knn_ids) == list(oracle.answer_ids)
    finally:
        svc.stop()
    assert_conservation(svc)


@pytest.mark.parametrize("workers", [2.5, "2", True])
def test_non_integer_query_workers_is_refused_by_the_config(workers):
    """``query_workers=2.5`` used to be accepted and raise on the serving
    thread at the first batch, killing it with the tickets still queued."""
    with pytest.raises(ValueError, match="workers"):
        ServiceConfig(query_workers=workers)


@pytest.mark.parametrize(
    "field, least",
    [
        ("max_batch_queries", 1),
        ("queue_capacity", 1),
        ("latency_capacity", 1),
        ("scrub_pages_per_step", 1),
        ("scrub_every_batches", 0),
    ],
)
def test_config_numbers_are_checked_by_the_config(field, least):
    """``max_batch_queries=0`` used to leave an inline ticket ``queued``
    forever: bad numbers are refused before a service exists."""
    assert getattr(ServiceConfig(**{field: np.int64(least)}), field) == least
    for bad in (least - 1, -3, least + 0.5, str(least + 1), True, False):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: bad})


@pytest.mark.parametrize(
    "field, bad",
    [
        ("default_timeout_s", float("nan")),
        ("default_timeout_s", True),
        ("default_timeout_s", 0.0),
        ("default_timeout_s", -1.0),
        ("default_timeout_s", "5"),
        ("deadline_margin_s", -1.0),
        ("deadline_margin_s", float("nan")),
        ("deadline_margin_s", False),
        ("deadline_margin_s", None),
        ("verified_reads", "no"),
        ("verified_reads", 1),
        ("verified_reads", None),
    ],
)
def test_config_deadlines_and_flags_are_checked_by_the_config(field, bad):
    """A NaN timeout or margin used to be accepted, and a NaN deadline
    never sheds; ``verified_reads="no"`` armed verification."""
    with pytest.raises(ValueError, match=field):
        ServiceConfig(**{field: bad})


@pytest.mark.parametrize(
    "field, good",
    [
        ("default_timeout_s", None),
        ("default_timeout_s", 0.25),
        ("default_timeout_s", np.float64(2)),
        ("default_timeout_s", 3),
        ("deadline_margin_s", 0),
        ("deadline_margin_s", np.float32(0.5)),
        ("verified_reads", True),
    ],
)
def test_config_accepts_good_deadlines_and_flags(field, good):
    assert getattr(ServiceConfig(**{field: good}), field) == good


@pytest.mark.parametrize("timeout", [float("nan"), True, "1.0", [1.0]])
def test_bad_submit_timeout_is_refused_before_accounting(timeout):
    """``submit(timeout_s=nan)`` used to be admitted and served with a
    NaN deadline that never sheds."""
    clock = ManualClock()
    _, _, svc = make_service(clock=clock)
    with pytest.raises(ValueError, match="timeout_s"):
        svc.submit(QUERIES[0], timeout_s=timeout)
    stats = svc.stats_snapshot()
    assert stats["submitted"] == 0 and stats["rejected"] == {}
    assert svc.queue.depth == 0
    # A real timeout still works, and an infinite one never sheds.
    ticket = svc.submit(QUERIES[0], timeout_s=float("inf"))
    clock.advance(1e9)
    svc.serve_pending()
    assert ticket.status == "served"
    assert_conservation(svc)


def test_a_degraded_batch_counts_once_whatever_its_size():
    """``degraded_batches`` counts batches: one batch of three tickets
    whose every attempt hits a permanent fault reads 1, not 3."""
    _, _, svc = make_service()
    svc.wrap_serve_device = lambda shard, attempt: FaultyDevice(
        shard, FaultPlan(seed=1, bad_pages=((0, 10**9),))
    )
    tickets = [svc.submit(q, k=2) for q in QUERIES[:3]]
    assert svc.serve_pending() == 1
    stats = svc.stats_snapshot()
    assert stats["batches"] == 1
    assert stats["degraded_batches"] == 1
    for q, ticket in zip(QUERIES, tickets):
        assert ticket.status == "served" and ticket.degraded
        oracle = svc._lsm.exact_knn(q, 2)
        assert list(ticket.knn_ids) == list(oracle.answer_ids)
        assert ticket.knn_distances == list(oracle.distances)
    assert_conservation(svc)


def test_deadline_expired_in_queue_is_shed():
    clock = ManualClock()
    _, _, svc = make_service(clock=clock)
    doomed = svc.submit(QUERIES[0], timeout_s=5.0)
    safe = svc.submit(QUERIES[1])  # no deadline
    clock.advance(10.0)
    svc.serve_pending()
    assert doomed.status == "shed"
    assert doomed.shed_reason == REJECT_DEADLINE
    assert safe.status == "served"
    assert svc.stats_snapshot()["shed"] == {REJECT_DEADLINE: 1}
    assert_conservation(svc)


def test_stop_without_drain_sheds_with_reason_reported():
    _, _, svc = make_service()
    tickets = [svc.submit(q) for q in QUERIES]
    svc.stop(drain=False)
    for ticket in tickets:
        assert ticket.status == "shed"
        assert ticket.shed_reason == REJECT_SHUTDOWN
    with pytest.raises(AdmissionError) as err:
        svc.submit(QUERIES[0])
    assert err.value.reason == REJECT_SHUTDOWN
    with pytest.raises(ServiceUnavailable):
        svc.ingest(EXTRA[:10])
    assert_conservation(svc)


# ----------------------------------------------------------------------
# Exactness and snapshot isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_served_answers_match_the_lsm_engines(workers):
    _, _, svc = make_service(ServiceConfig(query_workers=workers))
    for lo in range(0, 100, 25):
        svc.ingest(EXTRA[lo : lo + 25])
    assert_serves_expected(svc, expected_answers(svc._lsm))
    assert_conservation(svc)


def test_snapshot_survives_later_flushes_and_compactions():
    _, raw, svc = make_service()
    snapshot = svc.current_snapshot()
    watermark = snapshot.n_series
    before = expected_answers(svc._lsm)
    # Enough ingest to flush and compact several times (MEM is tiny).
    for lo in range(0, len(EXTRA), 25):
        svc.ingest(EXTRA[lo : lo + 25])
    assert svc._lsm.n_flushes > 0
    assert raw.n_series == len(BASE) + len(EXTRA)
    # The old snapshot still answers exactly over its own watermark.
    assert snapshot.n_series == watermark
    for q, (ids, dists, approx_idx) in zip(QUERIES, before):
        batch = QueryBatch(queries=q[None, :], k=3, mode="exact")
        got_ids, got_dists, degraded = serve_snapshot_batch(snapshot, batch)
        assert not degraded
        assert list(got_ids[0]) == ids
        assert got_dists[0] == dists
    # And the service's current snapshot moved to the new watermark.
    assert svc.current_snapshot().n_series == raw.n_series


def _lex_knn(rows, query, k):
    """Brute-force k-NN under the heap's ``(distance, id)`` order."""
    distances = np.sqrt(
        np.sum((rows.astype(np.float64) - query[None, :]) ** 2, axis=1)
    )
    order = np.argsort(distances, kind="stable")[:k]
    return order.tolist(), distances[order].tolist()


def _brute_force(rows, query, k):
    return _lex_knn(rows, query, k)[0]


def test_summary_column_is_converted_once_per_snapshot(monkeypatch):
    """Batches served from one snapshot share one cell index, and every
    immutable key piece — a run or a memtable batch — is converted once
    across snapshots: a snapshot taken after ingest (memtable appends,
    flushes, compactions) converts only the pieces no earlier state
    did, and nothing is kept for pieces no state references."""
    import gc

    import repro.core.summary_column as column_module

    converted = []  # every key piece handed to the conversion
    convert = column_module.deinterleave_keys

    def spy(keys, config):
        converted.append(keys)
        return convert(keys, config)

    monkeypatch.setattr(column_module, "deinterleave_keys", spy)
    indexed = []  # ... and one cell index per snapshot, built by its first scan

    class CountedIndex(column_module.CellIndex):
        __slots__ = ()

        @classmethod
        def of(cls, words, config):
            indexed.append(len(words))
            return super().of(words, config)

    monkeypatch.setattr(column_module, "CellIndex", CountedIndex)
    _, raw, svc = make_service()
    rows = np.concatenate([BASE, EXTRA])
    served = []  # the key pieces of every snapshot served from

    def serve_two_batches():
        for query in QUERIES[:2]:
            ticket = svc.query(query, mode="exact", k=3)
            assert ticket.status == "served"
            assert ticket.snapshot_series == raw.n_series
            assert list(ticket.knn_ids) == _brute_force(
                rows[: ticket.snapshot_series], query, 3
            )
        snapshot = svc.current_snapshot()
        served.append([run.keys for run in snapshot._runs] + snapshot._mem_keys)

    serve_two_batches()
    assert [len(keys) for keys in converted] == indexed == [len(BASE)]
    flushes, merges = svc._lsm.n_flushes, svc._lsm.n_merges
    for lo in range(0, len(EXTRA), 25):
        svc.ingest(EXTRA[lo : lo + 25])
        serve_two_batches()
    assert svc._lsm.n_flushes > flushes and svc._lsm.n_merges > merges
    assert len(served) == 1 + len(range(0, len(EXTRA), 25))
    # Every piece any snapshot held was converted, and exactly once (the
    # list keeps each converted piece alive, so ids are distinct).
    pieces = {id(piece): piece for held in served for piece in held}
    assert sorted(map(id, converted)) == sorted(pieces)
    assert sum(map(len, converted)) < sum(len(p) for held in served for p in held)
    # One cell index per snapshot, over all of its rows.
    assert indexed == [sum(map(len, held)) for held in served]
    assert indexed[-1] == len(BASE) + len(EXTRA)
    # Only the pieces a live state still holds keep their words.
    converted.clear()
    served.clear()
    pieces.clear()
    gc.collect()
    live = svc.current_snapshot()
    assert len(svc._lsm._piece_words._entries) == len(live._runs) + len(live._mem_keys)


@pytest.mark.parametrize("memtable_rows", [0, 5])
def test_served_heaps_are_seeded_with_every_probe_distance(memtable_rows):
    """A served heap, primed and never seeded, == seeding with the
    probe's best == brute force, for any ``k`` around the probe's size —
    duplicate series (distance ties) included."""
    from repro.parallel.batch import batched_exact_knn
    from repro.service.snapshot import _answer_on

    _, raw, svc = make_service()
    lsm = svc._lsm
    # Duplicates of indexed rows tie with them at every distance; one
    # batch of exactly the buffer capacity flushes, leaving no memtable.
    svc.ingest(BASE[: lsm._buffer_capacity])
    if memtable_rows:
        svc.ingest(BASE[:memtable_rows])
    assert lsm._mem_records == memtable_rows and lsm.n_runs >= 2
    rows = np.concatenate(
        [BASE, BASE[: lsm._buffer_capacity], BASE[:memtable_rows]]
    )
    snapshot = svc.current_snapshot()
    view = snapshot.frozen_view()
    # A query sitting on a duplicated series: the k nearest tie in pairs.
    queries = np.concatenate([QUERIES, BASE[3:4].astype(np.float64)])
    probes = view._approximate_batch(queries)
    probe_size = view._seed(queries[0]).visited_records
    assert probe_size > 3
    words, fetch = view._prepare_sims(snapshot.shard)
    for k in (1, 3, probe_size, probe_size + 1, len(rows) + 1):
        batch = QueryBatch(queries=queries, k=k, mode="exact")
        ids, distances = _answer_on(view, batch, snapshot.shard)
        single = batched_exact_knn(
            queries,
            k,
            words,
            view.config,
            fetch,
            [[(probe.distance, probe.answer_idx)] for probe in probes],
        )
        for qi, query in enumerate(queries):
            want_ids, want_distances = _lex_knn(rows, query, k)
            assert ids[qi] == want_ids == list(single[qi].answer_ids)
            assert distances[qi] == want_distances == list(single[qi].distances)
        # The service's own path serves the same answers.
        ticket = svc.query(queries[-1], mode="exact", k=k)
        assert list(ticket.knn_ids) == _lex_knn(rows, queries[-1], k)[0]


def test_probe_hand_over_is_per_query_on_pool_workers():
    """Each result is its own query's probe — answer, distance and the
    records it refined — when the batch is asked for at
    ``query_workers = 2`` (inert: every batch runs the one shared-probe
    pass)."""
    _, _, svc = make_service(ServiceConfig(query_workers=2))
    svc.ingest(EXTRA[:60])
    view = svc.current_snapshot().frozen_view()
    queries = np.concatenate([QUERIES, EXTRA[:8].astype(np.float64)])
    batch = QueryBatch(queries=queries, k=1, mode="approximate")
    report = view.query_batch(batch, query_workers=2)
    for query, result in zip(queries, report.results):
        probe = view._seed(query)
        assert (result.answer_idx, result.distance, result.visited_records) == (
            probe.answer_idx,
            probe.distance,
            probe.visited_records,
        )
    # And the two-worker service answers exact tickets like brute force.
    rows = np.concatenate([BASE, EXTRA[:60]])
    ticket = svc.query(QUERIES[0], mode="exact", k=3)
    assert list(ticket.knn_ids) == _lex_knn(rows, QUERIES[0], 3)[0]


def test_ticket_reports_the_watermark_it_is_exact_over():
    _, raw, svc = make_service()
    ticket = svc.submit(QUERIES[0], k=2)
    svc.ingest(EXTRA[:25])  # arrives before the pump runs
    svc.serve_pending()
    # Served against the freshest snapshot at serve time — and says so.
    assert ticket.snapshot_series == raw.n_series
    oracle = svc._lsm.exact_knn(QUERIES[0], 2)
    assert list(ticket.knn_ids) == list(oracle.answer_ids)


# ----------------------------------------------------------------------
# Serving at any worker count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2, 0, -1])
def test_serving_never_conflicts_at_any_worker_count(workers):
    """Nothing fences the parent disk, so no batch degrades for want of
    a reader; the export keeps its ``session_conflicts`` key at 0.
    ``0`` / ``-1`` mean all cores, as at every other entry point."""
    _, _, svc = make_service(ServiceConfig(query_workers=workers))
    assert_serves_expected(svc, expected_answers(svc._lsm))
    stats = svc.stats_snapshot()
    assert stats["session_conflicts"] == 0
    assert stats["degraded_batches"] == 0
    assert_conservation(svc)


@pytest.mark.parametrize("workers", [1, 2, 0, -1])
def test_serving_proceeds_beside_another_read_only_shard(workers):
    """Read-only shards coexist: ones held open on the disk by another
    reader neither block nor perturb the service's own, and keep their
    counters to themselves."""
    disk, _, svc = make_service(ServiceConfig(query_workers=workers))
    expected = expected_answers(svc._lsm)
    a, b = DiskShard(disk, name="a"), DiskShard(disk, name="b")
    a.read_page(0)
    assert_serves_expected(svc, expected)
    assert a.stats.total_ios == 1 and b.stats.total_ios == 0
    stats = svc.stats_snapshot()
    assert stats["session_conflicts"] == 0
    assert stats["degraded_batches"] == 0
    assert_conservation(svc)


# ----------------------------------------------------------------------
# Ingest faults: in-place recovery, crash latch, restart
# ----------------------------------------------------------------------
def test_transient_ingest_fault_recovers_in_place_and_acks_once():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    dev = FaultyDevice(disk, None)
    svc = CoconutService(disk, raw, MEM, sax_config=CONFIG, device=dev)
    svc.bootstrap()
    # Arm after bootstrap: the very next journal write faults once.
    dev.plan = FaultPlan(seed=1, p_transient_write=1.0, max_faults=1)
    receipt = svc.ingest(EXTRA[:25])
    assert receipt.recovered
    assert receipt.n_attempts == 2
    assert receipt.n_rows == 25
    assert raw.n_series == len(BASE) + 25  # exactly once — no duplicates
    assert svc.state == "ready"
    assert svc.stats_snapshot()["ingest_retries"] == 1
    # The service keeps working normally afterwards.
    svc.ingest(EXTRA[25:50])
    assert raw.n_series == len(BASE) + 50
    assert_serves_expected(svc, expected_answers(svc._lsm))


def test_crash_latch_keeps_serving_then_restart_recovers():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    dev = FaultyDevice(disk, None)
    svc = CoconutService(disk, raw, MEM, sax_config=CONFIG, device=dev)
    svc.bootstrap()
    svc.ingest(EXTRA[:25])
    expected = expected_answers(svc._lsm)
    acked = raw.n_series
    dev.halt()  # pull the plug
    with pytest.raises(ServiceUnavailable) as err:
        svc.ingest(EXTRA[25:50])
    assert err.value.reason == REJECT_CRASHED
    assert svc.state == "crashed"
    # Queries keep serving the last good snapshot through the crash —
    # the read path owns its device handle.  The faulted batch's rows
    # sit unacknowledged past the snapshot watermark until recovery
    # truncates them.
    assert_serves_expected(svc, expected, watermark=acked)
    with pytest.raises(ServiceUnavailable):
        svc.ingest(EXTRA[25:50])
    svc.restart()
    assert svc.state == "ready"
    assert raw.n_series == acked  # every acknowledged row survived
    svc.ingest(EXTRA[25:50])
    assert raw.n_series == acked + 25
    assert_serves_expected(svc, expected_answers(svc._lsm))
    stats = svc.stats_snapshot()
    assert stats["crashes"] == 1
    assert stats["restarts"] == 1
    assert stats["ingest_rejected"] == 2
    assert_conservation(svc)


def test_recovered_index_matches_acknowledged_oracle():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    dev = FaultyDevice(disk, None)
    svc = CoconutService(disk, raw, MEM, sax_config=CONFIG, device=dev)
    svc.bootstrap()
    for lo in range(0, 75, 25):
        svc.ingest(EXTRA[lo : lo + 25])
    dev.halt()
    with pytest.raises(ServiceUnavailable):
        svc.ingest(EXTRA[75:100])
    svc.restart()
    # Fault-free oracle over exactly the acknowledged rows.
    odisk = SimulatedDisk(page_size=PAGE)
    oraw = RawSeriesFile(odisk, LENGTH)
    oraw.append_batch(BASE)
    oraw.append_batch(EXTRA[:75])
    oracle = CoconutLSM(odisk, MEM, CONFIG)
    oracle.build(oraw)
    for q in QUERIES:
        ticket = svc.query(q, mode="exact", k=3)
        exact = oracle.exact_knn(q, 3)
        assert list(ticket.knn_ids) == list(exact.answer_ids)
        assert ticket.knn_distances == list(exact.distances)


def test_client_stream_offset_makes_retries_exactly_once():
    _, raw, svc = make_service()
    base = raw.n_series
    receipt = svc.ingest(EXTRA[:25], expected_first=base)
    assert not receipt.deduplicated
    assert raw.n_series == base + 25
    # A client that never heard the ack (crash ate it) re-sends the
    # same batch at the same stream offset: deduplicated, not appended.
    again = svc.ingest(EXTRA[:25], expected_first=base)
    assert again.deduplicated
    assert again.first_index == base
    assert raw.n_series == base + 25
    # An offset past the watermark is a client-side gap: loud failure.
    with pytest.raises(ValueError):
        svc.ingest(EXTRA[25:50], expected_first=base + 100)


def test_zero_row_ingest_does_not_wedge_later_ingests():
    """One empty ingest used to queue an empty memtable entry: six of
    the next ten 20-row ingests raised ``IndexError`` at the flush,
    although all 200 rows had reached the raw file."""
    _, raw, svc = make_service()
    base, lsn = raw.n_series, svc._lsm._wal.next_lsn
    receipt = svc.ingest(np.empty((0, LENGTH), dtype=np.float32))
    assert (receipt.first_index, receipt.n_rows) == (base, 0)
    assert raw.n_series == base and svc._lsm._wal.next_lsn == lsn
    for lo in range(0, 200, 20):
        assert svc.ingest(EXTRA[lo : lo + 20]).n_rows == 20
    assert raw.n_series == base + 200 and svc._lsm.n_flushes > 0
    assert_serves_expected(svc, expected_answers(svc._lsm))


def test_non_finite_ingest_is_refused_and_the_service_stays_ready():
    """A NaN row used to be indexed and served as an answer at distance
    ``nan``; now it is refused before any page is written."""
    disk, raw, svc = make_service()
    base, lsn = raw.n_series, svc._lsm._wal.next_lsn
    for poison in (np.nan, np.inf, -np.inf):
        bad = EXTRA[:20].copy()
        bad[5, 9] = poison
        before = disk.snapshot()
        with pytest.raises(ValueError, match="NaN or infinite"):
            svc.ingest(bad)
        assert disk.snapshot() == before
    assert svc.state == "ready"
    assert raw.n_series == base and svc._lsm._wal.next_lsn == lsn
    svc.ingest(EXTRA[:20])
    assert raw.n_series == base + 20
    assert_serves_expected(svc, expected_answers(svc._lsm))


# ----------------------------------------------------------------------
# Health surface
# ----------------------------------------------------------------------
def test_stats_snapshot_shape_and_latency_percentiles():
    _, _, svc = make_service()
    for q in QUERIES:
        svc.query(q, k=2)
    stats = svc.stats_snapshot()
    assert stats["served"] == len(QUERIES)
    assert stats["batches"] >= 1
    lat = stats["query_latency_s"]
    assert lat["samples"] == len(QUERIES)
    assert 0.0 <= lat["p50"] <= lat["p95"] <= lat["p99"]
    assert stats["lsm"]["state_version"] == svc._lsm.state_version
    assert stats["heal"]["attempts"] >= stats["heal"]["calls"] > 0
    assert_conservation(svc)
