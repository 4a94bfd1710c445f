"""Load generator for the mixed phase: one open-loop client, one paced feeder.

Open loop: request ``i`` is *due* at ``start + i / rate`` whether or not
earlier requests have completed, as independent users would send them.
Latency is counted from the due time, not from the moment the request
was actually submitted, so a stall is charged to every request it
delayed; ``late_max_s`` reports how far behind its schedule the
generator itself ran (if that is not small the numbers describe the
generator, not the service).

The process has three threads while this runs: the client (the calling
thread), the feeder, and the service's own server thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service import AdmissionError, ServiceUnavailable

from . import layers as L

#: How long the client waits for a ticket after the schedule has ended.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class MixedPhase:
    tickets: list  # one per scheduled request; None when rejected at the door
    due_s: list
    late_max_s: float = 0.0
    depth_max: int = 0
    feeder_acks: list = field(default_factory=list)
    feeder_late_max_s: float = 0.0


def _sleep_until(due_s: float, clock) -> None:
    remaining = due_s - clock()
    if remaining > 0:
        time.sleep(remaining)


def run_mixed_phase(
    service,
    queries: np.ndarray,
    stream: np.ndarray,
    first_row: int,
    batch_rows: int,
    rate_qps: float,
    feeder_batches_per_s: float,
    approx_every: int,
    k: int,
    tracer,
    clock=time.perf_counter,
) -> MixedPhase:
    """Offer every query of ``queries`` on schedule to a started ``service``
    while a feeder ingests ``stream``; returns tickets and their due times."""
    n_batches = len(stream) // batch_rows
    phase = MixedPhase(tickets=[], due_s=[])
    feeder_error: list[Exception] = []
    start = clock() + 0.02

    def feed() -> None:
        try:
            for j in range(n_batches):
                due = start + j / feeder_batches_per_s
                _sleep_until(due, clock)
                phase.feeder_late_max_s = max(phase.feeder_late_max_s, clock() - due)
                lo = j * batch_rows
                with tracer.op(L.MIXED_INGEST, j):
                    try:
                        service.ingest(
                            stream[lo : lo + batch_rows], expected_first=first_row + lo
                        )
                        phase.feeder_acks.append(True)
                    except ServiceUnavailable:
                        phase.feeder_acks.append(False)
        except Exception as error:  # raised again on the client thread below
            feeder_error.append(error)

    feeder = threading.Thread(target=feed, name="bench-feeder")
    feeder.start()
    try:
        for i, query in enumerate(queries):
            due = start + i / rate_qps
            with tracer.op(L.MIXED_SUBMIT, i):
                with tracer.span("loadgen.wait"):
                    _sleep_until(due, clock)
                phase.late_max_s = max(phase.late_max_s, clock() - due)
                try:
                    if i % approx_every == approx_every - 1:
                        ticket = service.submit(query, mode="approximate")
                    else:
                        ticket = service.submit(query, mode="exact", k=k)
                except AdmissionError:
                    ticket = None
            phase.depth_max = max(phase.depth_max, service.queue.depth)
            phase.tickets.append(ticket)
            phase.due_s.append(due)
        with tracer.op(L.MIXED_SUBMIT, len(queries)), tracer.span("loadgen.drain"):
            feeder.join()
            for ticket in phase.tickets:
                if ticket is not None:
                    ticket.wait(DRAIN_TIMEOUT_S)
    finally:
        feeder.join()
    if feeder_error:
        raise feeder_error[0]
    return phase
