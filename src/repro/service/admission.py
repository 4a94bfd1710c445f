"""Bounded admission control for the online index service.

Every query enters :class:`CoconutService` through one
:class:`AdmissionQueue`.  The queue is the service's only buffer and it
is *bounded*: when it is full, new requests are rejected immediately
with :data:`REJECT_QUEUE_FULL` — backpressure surfaces at the edge
instead of hiding in an unbounded list that converts overload into
latency and memory growth.

A request is a :class:`QueryTicket`.  Tickets move through exactly one
of three terminal states, and every one of them is *reported* — a
ticket is never silently dropped:

* ``"served"`` — answered against a snapshot; carries the answers, the
  snapshot watermark they are exact over, and the end-to-end latency;
* ``"shed"`` — admitted but dropped before completion (deadline
  expired while queued, service shutdown, device fault with no
  fallback); carries the reason;
* ``"rejected"`` — never admitted (queue full, service crashed or
  stopped, dead-on-arrival deadline); :meth:`AdmissionQueue.admit`
  raises :class:`AdmissionError` so the caller learns synchronously.

Deadlines are absolute clock readings (the service's injected
monotonic clock), so inline test schedules can drive them with a
manual clock and assert shedding deterministically.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

__all__ = [
    "REJECT_QUEUE_FULL",
    "REJECT_DEADLINE",
    "REJECT_SHUTDOWN",
    "REJECT_CRASHED",
    "SHED_DEVICE_FAULT",
    "AdmissionError",
    "QueryTicket",
    "AdmissionQueue",
]

#: The bounded queue is at capacity; retry later or slow down.
REJECT_QUEUE_FULL = "queue_full"
#: The request's deadline passed (at admission or while queued).
REJECT_DEADLINE = "deadline_expired"
#: The service is stopping (or stopped) and drains no new work.
REJECT_SHUTDOWN = "shutting_down"
#: The storage device is crash-latched; call ``restart()`` first.
REJECT_CRASHED = "device_crashed"
#: Serving faulted and every fallback faulted too (shed, not rejected).
SHED_DEVICE_FAULT = "device_fault"


class AdmissionError(RuntimeError):
    """A request was rejected at the door, with a machine-readable reason."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class QueryTicket:
    """One admitted (or rejected) query request and its outcome.

    The submitting thread holds the ticket; the serving side completes
    it exactly once via :meth:`_serve` or :meth:`_shed` and sets the
    event that :meth:`wait` blocks on.  Answers are exact over the
    snapshot watermark ``snapshot_series`` — the first ``snapshot_series``
    rows of the raw file as of admission to a serving batch.
    """

    __slots__ = (
        "query", "mode", "k", "submitted_s", "deadline_s",
        "status", "shed_reason", "knn_ids", "knn_distances",
        "snapshot_series", "latency_s", "degraded", "_done",
    )

    def __init__(
        self,
        query: np.ndarray,
        mode: str,
        k: int,
        submitted_s: float,
        deadline_s: "float | None",
    ):
        self.query = query
        self.mode = mode
        self.k = k
        self.submitted_s = submitted_s
        self.deadline_s = deadline_s
        self.status = "queued"
        self.shed_reason: "str | None" = None
        self.knn_ids: "list[int] | None" = None
        self.knn_distances: "list[float] | None" = None
        self.snapshot_series: "int | None" = None
        self.latency_s: "float | None" = None
        self.degraded = False
        self._done = threading.Event()

    # -- completion (serving side) --------------------------------------
    def _serve(
        self,
        ids: "list[int]",
        distances: "list[float]",
        snapshot_series: int,
        now_s: float,
        degraded: bool = False,
    ) -> None:
        self.knn_ids = ids
        self.knn_distances = distances
        self.snapshot_series = snapshot_series
        self.latency_s = now_s - self.submitted_s
        self.degraded = degraded
        self.status = "served"
        self._done.set()

    def _shed(self, reason: str, now_s: float) -> None:
        self.shed_reason = reason
        self.latency_s = now_s - self.submitted_s
        self.status = "shed"
        self._done.set()

    # -- consumption (submitting side) ----------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until the ticket is served or shed; True when done."""
        return self._done.wait(timeout)

    def expired(self, now_s: float, margin_s: float = 0.0) -> bool:
        return self.deadline_s is not None and self.deadline_s - margin_s <= now_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryTicket(mode={self.mode!r}, k={self.k}, "
            f"status={self.status!r}, shed={self.shed_reason!r})"
        )


class AdmissionQueue:
    """The service's single bounded FIFO of admitted tickets.

    ``admit`` either enqueues or raises :class:`AdmissionError` — there
    is no blocking producer path, so a flooded service pushes back in
    O(1) instead of stacking waiters.  ``collect`` is the server
    thread's consumer: it blocks for the first ticket, then returns it
    with every ticket already waiting, at most ``max_batch`` in arrival
    order — whatever queued while the previous batch was served forms
    the next one (group commit), so no ticket waits on a timer.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: "deque[QueryTicket]" = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def admit(self, ticket: QueryTicket) -> None:
        with self._not_empty:
            if len(self._items) >= self.capacity:
                raise AdmissionError(
                    REJECT_QUEUE_FULL,
                    f"admission queue full ({self.capacity} tickets)",
                )
            self._items.append(ticket)
            self._not_empty.notify()

    def drain(self, max_batch: "int | None" = None) -> "list[QueryTicket]":
        """Pop up to ``max_batch`` tickets without waiting (inline mode)."""
        with self._lock:
            n = len(self._items) if max_batch is None else min(
                max_batch, len(self._items)
            )
            return [self._items.popleft() for _ in range(n)]

    def collect(
        self,
        max_batch: int,
        stop_event: threading.Event,
        poll_s: float = 0.02,
    ) -> "list[QueryTicket]":
        """Block for the first ticket, then pop what is already queued.

        Returns an empty list when ``stop_event`` is set and nothing is
        queued (the loop's exit signal).  Deadlines are enforced when
        the batch is served, not here.
        """
        with self._not_empty:
            while not self._items:
                if stop_event.is_set():
                    return []
                self._not_empty.wait(poll_s)
            n = min(max_batch, len(self._items))
            return [self._items.popleft() for _ in range(n)]
