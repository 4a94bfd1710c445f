"""Serve on arrival: the server thread's ``AdmissionQueue.collect``.

``collect`` blocks only while the queue is empty.  Once a ticket is
queued it returns at once with every ticket already waiting, at most
``max_batch`` in arrival order — batching comes from what queued while
the previous batch was served (group commit), never from a timer.
Every test here is deterministic: the condition's ``wait`` is replaced
by a stub that stands in for the passage of time.
"""

import threading

import numpy as np

from repro.service import AdmissionQueue, CoconutService, QueryTicket
from repro.storage import SimulatedDisk
from repro.storage.seriesfile import RawSeriesFile
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)

_rng = np.random.default_rng(31)
BASE = _rng.standard_normal((150, LENGTH)).astype(np.float32)
QUERIES = _rng.standard_normal((40, LENGTH))


def ticket(i: int) -> QueryTicket:
    return QueryTicket(QUERIES[i], "exact", 1, submitted_s=float(i), deadline_s=None)


def no_wait(timeout=None):
    raise AssertionError("collect waited although tickets were queued")


def test_collect_never_waits_when_tickets_are_queued(monkeypatch):
    queue = AdmissionQueue(capacity=16)
    queued = [ticket(i) for i in range(7)]
    for t in queued:
        queue.admit(t)
    monkeypatch.setattr(queue._not_empty, "wait", no_wait)
    stop = threading.Event()
    assert queue.collect(3, stop) == queued[:3]
    assert queue.collect(3, stop) == queued[3:6]
    assert queue.collect(3, stop) == queued[6:]
    assert queue.depth == 0


def test_collect_returns_the_first_arrival_without_waiting_for_company(
    monkeypatch,
):
    """A ticket that arrives while ``collect`` blocks is returned alone:
    the stub wait is called once, by the empty queue, and never again."""
    queue = AdmissionQueue(capacity=16)
    arrival = ticket(0)
    calls = []

    def arrive(timeout=None):
        calls.append(timeout)
        # The real wait releases the lock so ``admit`` can append.
        queue._items.append(arrival)

    monkeypatch.setattr(queue._not_empty, "wait", arrive)
    assert queue.collect(16, threading.Event(), poll_s=0.5) == [arrival]
    assert calls == [0.5]


def test_collect_blocks_on_an_empty_queue_until_stopped(monkeypatch):
    queue = AdmissionQueue(capacity=4)
    stop = threading.Event()
    calls = []

    def tick(timeout=None):
        calls.append(timeout)
        if len(calls) == 3:
            stop.set()

    monkeypatch.setattr(queue._not_empty, "wait", tick)
    assert queue.collect(4, stop, poll_s=0.01) == []
    assert calls == [0.01, 0.01, 0.01]


def test_stopped_collect_still_returns_queued_tickets(monkeypatch):
    """``stop(drain=True)`` relies on this: a set stop event ends the
    loop only once the queue is empty."""
    queue = AdmissionQueue(capacity=4)
    queued = [ticket(i) for i in range(2)]
    for t in queued:
        queue.admit(t)
    monkeypatch.setattr(queue._not_empty, "wait", no_wait)
    stop = threading.Event()
    stop.set()
    assert queue.collect(4, stop) == queued
    assert queue.collect(4, stop) == []


def test_a_burst_queued_before_start_is_served_in_full_batches():
    """40 tickets queued before ``start()`` become batches of 16, 16
    and 8, each answered exactly."""
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    svc = CoconutService(disk, raw, 1 << 10, sax_config=CONFIG)
    svc.bootstrap()
    tickets = [svc.submit(q, k=3) for q in QUERIES]
    svc.start()
    try:
        for t in tickets:
            assert t.wait(timeout=60.0)
    finally:
        svc.stop()
    stats = svc.stats_snapshot()
    assert stats["batches"] == 3
    assert stats["served"] == len(QUERIES)
    for q, t in zip(QUERIES, tickets):
        assert t.status == "served"
        oracle = svc._lsm.exact_knn(q, 3)
        assert list(t.knn_ids) == list(oracle.answer_ids)
        assert t.knn_distances == list(oracle.distances)
