"""Chaos property tests for the online index service.

Seeded schedules interleave ingest, queries, crashes and restarts over
a fault-injecting journal device, then check the service's three
operational invariants (``docs/service.md``) against brute-force
oracles:

* **durability** — after the final recovery, the raw file holds
  exactly a prefix of the ingest stream, whole batches only, and every
  batch the service *acknowledged* is inside that prefix, byte-for-byte
  (an ack can never be lost, a faulted retry can never duplicate);
* **exactness** — every served exact ticket is bit-identical to a
  fault-free oracle index built over precisely the first
  ``snapshot_series`` rows — the watermark the ticket itself reports;
  every served approximate ticket names an in-watermark row at its
  true distance;
* **conservation** — ``submitted == served + shed + rejected`` once
  quiescent, with a reason on every shed and rejected request: nothing
  is ever silently dropped.

The threaded variant runs the same checks with the server thread's
serve-on-arrival loop serving while a feeder thread ingests concurrently —
snapshots taken under the ingest lock mean every reported watermark is
a batch boundary.
"""

import threading

import numpy as np
import pytest

from fault_injection import FaultPlan, FaultyDevice
from repro.core.lsm import CoconutLSM
from repro.service import (
    CoconutService,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.storage import FaultError, SimulatedDisk
from repro.storage.seriesfile import RawSeriesFile
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)
MEM = 1 << 10
PAGE = 2048
BATCH_ROWS = 20
N_BATCHES = 10

_rng = np.random.default_rng(777)
BASE = _rng.standard_normal((120, LENGTH)).astype(np.float32)
STREAM = _rng.standard_normal((N_BATCHES * BATCH_ROWS, LENGTH)).astype(np.float32)
ALL_ROWS = np.vstack([BASE, STREAM])
QUERIES = _rng.standard_normal((5, LENGTH))

_oracles: "dict[int, CoconutLSM]" = {}


def oracle_at(watermark: int) -> CoconutLSM:
    """Fault-free index over exactly the first ``watermark`` rows."""
    if watermark not in _oracles:
        disk = SimulatedDisk(page_size=PAGE)
        raw = RawSeriesFile(disk, LENGTH)
        raw.append_batch(ALL_ROWS[:watermark])
        ix = CoconutLSM(disk, MEM, CONFIG)
        ix.build(raw)
        _oracles[watermark] = ix
    return _oracles[watermark]


def verify_ticket(query, ticket):
    """One served ticket against the brute-force oracle at its watermark."""
    assert ticket.status == "served"
    watermark = ticket.snapshot_series
    assert watermark is not None and watermark >= len(BASE)
    assert (watermark - len(BASE)) % BATCH_ROWS == 0
    if ticket.mode == "exact":
        exact = oracle_at(watermark).exact_knn(query, ticket.k)
        assert list(ticket.knn_ids) == list(exact.answer_ids)
        assert ticket.knn_distances == list(exact.distances)
    else:
        (idx,) = ticket.knn_ids
        assert 0 <= idx < watermark
        true_dist = float(
            np.sqrt(np.sum((query - ALL_ROWS[idx].astype(np.float64)) ** 2))
        )
        assert np.isclose(ticket.knn_distances[0], true_dist)


def verify_durability(svc, acked):
    """The raw file is a whole-batch stream prefix containing every ack."""
    raw = svc.raw
    n = raw.n_series
    assert n >= len(BASE)
    assert (n - len(BASE)) % BATCH_ROWS == 0
    for first, n_rows in acked:
        assert first + n_rows <= n
    stored = raw.get_many(np.arange(n, dtype=np.int64))
    assert np.array_equal(stored, ALL_ROWS[:n])


def verify_conservation(svc, tickets):
    stats = svc.stats_snapshot()
    terminal = (
        stats["served"]
        + sum(stats["shed"].values())
        + sum(stats["rejected"].values())
    )
    assert stats["submitted"] == terminal
    assert stats["queue_depth"] == 0
    for _, ticket in tickets:
        assert ticket.status in ("served", "shed")
        if ticket.status == "shed":
            assert ticket.shed_reason is not None


def fresh_service(config=None):
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    dev = FaultyDevice(disk, None)
    svc = CoconutService(
        disk, raw, MEM, sax_config=CONFIG, config=config, device=dev
    )
    svc.bootstrap()
    return dev, svc


# ----------------------------------------------------------------------
# Inline seeded chaos schedules
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_chaos_schedule_preserves_acks_and_answers(seed):
    rng = np.random.default_rng(seed)
    dev, svc = fresh_service(ServiceConfig(query_workers=1))
    # Arm faults only after bootstrap; raw appends hit the bare disk,
    # so the plan fires on WAL, flush and compaction traffic.
    dev.plan = FaultPlan(
        seed=seed,
        p_transient_write=0.04,
        p_transient_read=0.02,
        p_torn_write=0.02,
        p_crash_write=0.02,
        max_faults=8,
    )
    acked: "list[tuple[int, int]]" = []
    tickets: "list[tuple[np.ndarray, object]]" = []
    next_batch = 0
    for _ in range(60):
        op = rng.random()
        if op < 0.40 and next_batch < N_BATCHES:
            lo = next_batch * BATCH_ROWS
            try:
                # The client's stream offset makes the retry loop
                # exactly-once: a batch whose ack a crash ate (durable,
                # never heard) deduplicates instead of appending twice.
                receipt = svc.ingest(
                    STREAM[lo : lo + BATCH_ROWS],
                    expected_first=len(BASE) + lo,
                )
            except ServiceUnavailable:
                continue  # crashed or retries exhausted; retried later
            assert receipt.first_index == len(BASE) + lo
            acked.append((receipt.first_index, receipt.n_rows))
            next_batch += 1
        elif op < 0.75:
            q = QUERIES[rng.integers(len(QUERIES))]
            if rng.random() < 0.7:
                ticket = svc.submit(q, mode="exact", k=3)
            else:
                ticket = svc.submit(q, mode="approximate")
            tickets.append((q, ticket))
        elif op < 0.85:
            svc.serve_pending()
        elif op < 0.93 and svc.state == "crashed":
            try:
                svc.restart()
            except FaultError:
                pass  # recovery itself faulted; still crashed, try later
        elif svc.state == "ready" and rng.random() < 0.5:
            dev.halt()  # pull the plug at an arbitrary quiescent point
    # Quiesce: faults off, recover if needed, drain the queue.
    dev.plan = None
    dev.reopen()
    if svc.state == "crashed":
        svc.restart()
    svc.serve_pending()
    verify_conservation(svc, tickets)
    verify_durability(svc, acked)
    for q, ticket in tickets:
        if ticket.status == "served":
            verify_ticket(q, ticket)
    # The service is fully functional after the storm: finish the
    # stream and answer once more against the complete oracle.
    while next_batch < N_BATCHES:
        lo = next_batch * BATCH_ROWS
        receipt = svc.ingest(
            STREAM[lo : lo + BATCH_ROWS], expected_first=len(BASE) + lo
        )
        acked.append((receipt.first_index, receipt.n_rows))
        next_batch += 1
    assert svc.raw.n_series == len(ALL_ROWS)
    final = svc.query(QUERIES[0], mode="exact", k=3)
    verify_ticket(QUERIES[0], final)


# ----------------------------------------------------------------------
# Silent bit flips: the integrity plane keeps every answer exact
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_chaos_with_bitflips_never_serves_corrupt(seed):
    """Seeded schedules fire *silent* write flips on every page file
    the service touches — raw rides the faulty device here, so flips
    land on the source of truth itself.  With verified reads + the
    background scrubber armed, every served answer must still match
    the fault-free oracle: corrupt pages raise and heal (counted in
    the scrub stats), they are never served.
    """
    rng = np.random.default_rng(seed)
    disk = SimulatedDisk(page_size=PAGE)
    dev = FaultyDevice(disk, None)
    raw = RawSeriesFile(dev, LENGTH)  # raw appends go through the flips
    raw.append_batch(BASE)
    svc = CoconutService(
        disk,
        raw,
        MEM,
        sax_config=CONFIG,
        config=ServiceConfig(
            query_workers=1,
            verified_reads=True,
            scrub_every_batches=2,
            scrub_pages_per_step=64,
        ),
        device=dev,
    )
    svc.bootstrap()
    dev.plan = FaultPlan(seed=seed, p_bitflip_write=0.04, max_faults=6)
    tickets: "list[tuple[np.ndarray, object]]" = []
    acked: "list[tuple[int, int]]" = []
    next_batch = 0
    for _ in range(60):
        op = rng.random()
        if op < 0.40 and next_batch < N_BATCHES:
            lo = next_batch * BATCH_ROWS
            try:
                receipt = svc.ingest(
                    STREAM[lo : lo + BATCH_ROWS],
                    expected_first=len(BASE) + lo,
                )
            except ServiceUnavailable:
                continue
            acked.append((receipt.first_index, receipt.n_rows))
            next_batch += 1
        elif op < 0.80:
            q = QUERIES[rng.integers(len(QUERIES))]
            mode = "exact" if rng.random() < 0.7 else "approximate"
            k = 3 if mode == "exact" else 1
            tickets.append((q, svc.submit(q, mode=mode, k=k)))
        elif op < 0.92:
            svc.serve_pending()
        elif svc.state == "crashed":
            # A flip on a WAL page failed the read-back ack barrier and
            # latched the crash; recovery scrub-heals the raw file.
            try:
                svc.restart()
            except FaultError:
                pass
    # Quiesce: flips off, recover if needed, repair everything, drain.
    dev.plan = None
    dev.reopen()
    if svc.state == "crashed":
        svc.restart()
    svc.scrub_now()
    svc.serve_pending()
    verify_conservation(svc, tickets)
    verify_durability(svc, acked)
    # The headline property: nothing served was ever corrupt.
    for q, ticket in tickets:
        if ticket.status == "served":
            verify_ticket(q, ticket)
    stats = svc.stats_snapshot()
    scrub = stats["scrub"]
    assert scrub["sweeps"] >= 1
    assert scrub["unrepairable_pages"] == 0  # single-bit flips all heal
    assert scrub["last_sweep_watermark"] == svc.raw.n_series
    assert svc._scrubber.unrepairable == set()
    # Post-storm the service is fully healthy: a verified final answer.
    final = svc.query(QUERIES[0], mode="exact", k=3)
    verify_ticket(QUERIES[0], final)


# ----------------------------------------------------------------------
# Threaded: server loop + concurrent feeder
# ----------------------------------------------------------------------
def test_threaded_ingest_and_serving_stay_exact():
    dev, svc = fresh_service(
        ServiceConfig(
            query_workers=2,
            max_batch_queries=8,
            queue_capacity=128,
        )
    )
    dev.plan = FaultPlan(seed=3, p_transient_write=0.01, max_faults=4)
    svc.start()
    feeder_error: "list[Exception]" = []

    def feed():
        try:
            for i in range(N_BATCHES):
                lo = i * BATCH_ROWS
                while True:
                    try:
                        svc.ingest(
                            STREAM[lo : lo + BATCH_ROWS],
                            expected_first=len(BASE) + lo,
                        )
                        break
                    except ServiceUnavailable as err:
                        if err.reason == "ingest_retries_exhausted":
                            continue
                        raise
        except Exception as err:  # pragma: no cover - surfaced below
            feeder_error.append(err)

    feeder = threading.Thread(target=feed)
    feeder.start()
    tickets = []
    rng = np.random.default_rng(11)
    for i in range(40):
        q = QUERIES[rng.integers(len(QUERIES))]
        if rng.random() < 0.7:
            ticket = svc.submit(q, mode="exact", k=3)
        else:
            ticket = svc.submit(q, mode="approximate")
        tickets.append((q, ticket))
    feeder.join()
    assert not feeder_error, feeder_error
    for _, ticket in tickets:
        assert ticket.wait(timeout=30.0)
    svc.stop(drain=True)
    verify_conservation(svc, tickets)
    verify_durability(svc, [(len(BASE), N_BATCHES * BATCH_ROWS)])
    served = 0
    for q, ticket in tickets:
        if ticket.status == "served":
            verify_ticket(q, ticket)
            served += 1
    assert served == len(tickets)  # no deadlines were set: all served
