"""The online index service: crash-safe ingest + query serving.

:class:`CoconutService` composes the repo's pieces into a server:

* **Ingest** streams ``insert_batch`` calls through a WAL-durable
  :class:`~repro.core.lsm.CoconutLSM` on the journal device (possibly a
  :class:`~repro.storage.faults.FaultyDevice`); flushes and compactions
  run inside the ingest call that fills the memtable.  A faulted insert is *recovered in place* — reopen the device, replay
  the manifest, truncate the raw file to the acknowledged watermark —
  before any retry, so a retried batch can never duplicate rows: either
  the faulted attempt's WAL frame verified (the rows survived; the
  retry is skipped and the batch acknowledged) or it did not (the rows
  were truncated away; the retry starts clean).

* **Queries** enter through a bounded
  :class:`~repro.service.admission.AdmissionQueue` with per-request
  deadlines, are served as soon as the server thread is free — together
  with every ticket already queued, as one shared-SIMS batch per
  ``(mode, k)`` group on the server thread — against
  :class:`~repro.service.snapshot.ServiceSnapshot` state, reading
  straight off the snapshot's read-only
  :class:`~repro.storage.disk.DiskShard`: readers never observe
  a half-flushed run, and answers are exact over the snapshot's raw
  watermark, which every served ticket reports.  A new snapshot
  converts only the key pieces no earlier state converted (in practice
  the newest memtable batch or run).

* **Integrity**: with ``verified_reads`` every page a served batch
  reads — record pages and probed run windows — is hashed against the
  checksum sidecar before use; a flipped page raises
  :class:`~repro.storage.faults.CorruptionError`, and the service
  scrubs, repairs and answers again on the repaired state.

* **Degradation** is graceful and counted: transient serve faults
  retry on fresh wrappers, other faults fall back to the same serial
  pass on the snapshot's read-only shard.  When the
  journal device crash-latches, ingest rejects with
  :data:`~repro.service.admission.REJECT_CRASHED` until ``restart()``,
  while queries keep serving the last good snapshot — reads own their
  device handle and do not route through the ingest journal.

Two serving modes share all of the above: ``serve_pending()`` pumps the
queue inline (deterministic tests drive it with a manual clock), and
``start()``/``stop()`` run the serve-on-arrival loop on a server
thread (the benchmark's mixed read/write traffic).
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.lsm import CoconutLSM
from ..summaries.sax import SAXConfig
from ..indexes.base import BuildReport, QueryBatch, check_k
from ..parallel.heal import RetryPolicy
from ..parallel.sched import resolve_workers
from ..storage.disk import PageError, SimulatedDisk
from ..storage.faults import (
    CorruptionError,
    DeviceCrash,
    FaultError,
    TransientIOError,
)
from ..storage.integrity import Scrubber, ScrubReport
from ..storage.seriesfile import RawSeriesFile
from .admission import (
    REJECT_CRASHED,
    REJECT_DEADLINE,
    REJECT_SHUTDOWN,
    SHED_DEVICE_FAULT,
    AdmissionError,
    AdmissionQueue,
    QueryTicket,
)
from .snapshot import ServiceSnapshot, serve_snapshot_batch
from .stats import ServiceStats

__all__ = [
    "ServiceConfig",
    "ServiceUnavailable",
    "IngestReceipt",
    "CoconutService",
]

_UNSET = object()

#: ``ServiceConfig`` integer fields and the least value each accepts.
_CONFIG_MINIMUMS = (
    ("queue_capacity", 1),
    ("max_batch_queries", 1),
    ("latency_capacity", 1),
    ("scrub_pages_per_step", 1),
    ("scrub_every_batches", 0),
)


def _is_seconds(value) -> bool:
    """A real number of seconds: not a bool, not NaN."""
    return (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and not math.isnan(value)
    )


class ServiceUnavailable(RuntimeError):
    """The service cannot take this request; ``reason`` says why."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class ServiceConfig:
    """Admission, batching, serving and healing knobs in one place."""

    #: Bounded admission queue capacity; full -> reject ``queue_full``.
    queue_capacity: int = 64
    #: Most queries coalesced into one serving batch.
    max_batch_queries: int = 16
    #: Default per-request deadline (None = no deadline).
    default_timeout_s: "float | None" = None
    #: Shed a ticket this close to (or past) its deadline at serve time.
    deadline_margin_s: float = 0.0
    #: Accepted and checked like every ``query_workers``, and inert:
    #: every batch is served on the server thread.
    query_workers: "int | None" = 1
    #: Retry/backoff for ingest recovery and served-batch healing.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    latency_capacity: int = 4096
    #: Hash every serve-path page against the disk's checksum sidecar
    #: (:mod:`repro.storage.integrity`); a corrupt page raises — and
    #: heals via scrub + serial retry — instead of being served.
    verified_reads: bool = False
    #: Background scrub cadence: one bounded :meth:`Scrubber.step`
    #: under the ingest lock after every N acknowledged ingest batches
    #: (0 disables background scrubbing; ``scrub_now()`` still works
    #: whenever integrity is armed).
    scrub_every_batches: int = 0
    #: Page budget per background scrub step — the longest serving can
    #: wait on the ingest lock for the sake of a sweep.
    scrub_pages_per_step: int = 256

    def __post_init__(self):
        # Refuse bad numbers here, not on the server thread.
        resolve_workers(self.query_workers)
        # A NaN deadline never sheds, and a default <= 0 would reject
        # every request on arrival.
        timeout = self.default_timeout_s
        if timeout is not None and not (_is_seconds(timeout) and timeout > 0):
            raise ValueError(
                f"default_timeout_s must be None or seconds > 0, got {timeout!r}"
            )
        margin = self.deadline_margin_s
        if not (_is_seconds(margin) and margin >= 0):
            raise ValueError(f"deadline_margin_s must be seconds >= 0, got {margin!r}")
        if not isinstance(self.verified_reads, bool):
            raise ValueError(
                f"verified_reads must be True or False, got {self.verified_reads!r}"
            )
        for name, least in _CONFIG_MINIMUMS:
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Integral)
                or value < least
            ):
                raise ValueError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )


@dataclass
class IngestReceipt:
    """Acknowledgement of one durable ingest batch."""

    first_index: int  # raw-file index of the batch's first row
    n_rows: int
    n_attempts: int = 1
    recovered: bool = False  # an in-place recovery ran before the ack
    deduplicated: bool = False  # the batch was already durable (lost ack)


class CoconutService:
    """Crash-safe concurrent ingest + query serving over one LSM.

    ``disk`` is the underlying :class:`SimulatedDisk`; ``device`` (the
    journal device the LSM writes through) defaults to it and may be a
    fault-injecting wrapper.  ``raw`` is the shared raw series file —
    the durable source of truth — conventionally on the bare disk, as
    in the recovery suite.  Call :meth:`bootstrap` once to bulk-load
    the WAL-backed LSM over the raw file's current rows before serving.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        raw: RawSeriesFile,
        memory_bytes: int,
        sax_config: "SAXConfig | None" = None,
        config: "ServiceConfig | None" = None,
        device=None,
        size_ratio: int = 4,
        wal_id: int = 1,
        clock=time.monotonic,
        wrap_serve_device=None,
    ):
        self.disk = disk
        self.device = device if device is not None else disk
        self.raw = raw
        self.memory_bytes = memory_bytes
        self.config = config or ServiceConfig()
        self.clock = clock
        self.wrap_serve_device = wrap_serve_device
        # Integrity must be armed before the LSM exists: the sidecar
        # blesses everything already on disk (the pre-loaded raw rows),
        # and every write from here on records through the consumers —
        # a map created any later would hold zero-page expectations for
        # pages the WAL or a flush already wrote.
        self._scrubber: "Scrubber | None" = None
        self._batches_since_scrub = 0
        if self.integrity_armed:
            if getattr(disk, "checksums", None) is None:
                disk.enable_integrity()
            if self.config.verified_reads:
                raw.verified_reads = True
        self.stats = ServiceStats(self.config.latency_capacity)
        self.queue = AdmissionQueue(self.config.queue_capacity)
        self._ingest_lock = threading.Lock()
        self._serve_lock = threading.Lock()
        self._state = "ready"  # "ready" | "crashed" | "stopped"
        self._snapshot: "ServiceSnapshot | None" = None
        self._snapshot_src: "CoconutLSM | None" = None
        self._stop_event = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._lsm = CoconutLSM(
            self.device,
            memory_bytes,
            config=sax_config,
            size_ratio=size_ratio,
            durability="wal",
            wal_id=wal_id,
        )
        self._wire_lsm()

    def _wire_lsm(self) -> None:
        if self.integrity_armed:
            # Rebind the scrubber whenever the LSM is replaced
            # (recovery): its run targets and rebuild seam must point
            # at the live index.
            self._scrubber = Scrubber(
                self.disk,
                lsm=self._lsm,
                raw=self.raw,
                pages_per_step=self.config.scrub_pages_per_step,
            )

    @property
    def integrity_armed(self) -> bool:
        """Whether the integrity plane (sidecar + scrubber) is active."""
        return (
            self.config.verified_reads or self.config.scrub_every_batches > 0
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self) -> BuildReport:
        """Bulk-load the WAL-backed LSM over the raw file's rows."""
        with self._ingest_lock:
            report = self._lsm.build(self.raw)
            self._refresh_snapshot_locked()
        return report

    def start(self) -> None:
        """Run the serve-on-arrival loop on a server thread."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        if self._state == "stopped":
            raise RuntimeError("service is stopped")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._serve_loop, name="coconut-serve", daemon=True
        )
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop serving; new submissions reject with ``shutting_down``.

        ``drain=True`` lets queued tickets finish (the server thread
        keeps collecting until the queue is empty); ``drain=False``
        sheds them — with the reason reported on each ticket, never
        silently.
        """
        self._state = "stopped"
        if not drain:
            self._shed_queued(REJECT_SHUTDOWN)
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        # Anything still queued (inline mode, or a late racing admit):
        # shed with the reason reported on the ticket.
        self._shed_queued(REJECT_SHUTDOWN)

    def restart(self) -> None:
        """Power-cycle after a crash: reopen, recover, resume ingest.

        Every acknowledged insert survives: recovery truncates the raw
        file back to the acknowledged watermark and rebuilds runs and
        memtable from the manifest + raw rows (see ``docs/robustness.md``).
        """
        if self._state == "stopped":
            raise RuntimeError("service is stopped")
        with self._ingest_lock:
            self._recover_locked()
            self._state = "ready"
            self.stats.on_restart()

    @property
    def state(self) -> str:
        return self._state

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(
        self, data: np.ndarray, expected_first: "int | None" = None
    ) -> IngestReceipt:
        """Durably insert a batch; returns only after the WAL ack.

        Transient faults recover in place and retry per the configured
        :class:`RetryPolicy`; a crash (or exhausted retries) raises
        :class:`ServiceUnavailable` and latches the ``crashed`` state —
        queries keep serving the last good snapshot, ingest resumes
        after :meth:`restart`.

        ``expected_first`` is the client's stream offset — the raw-file
        index it expects this batch to land at.  It is what turns the
        at-least-once retry loop into exactly-once: when a crash eats
        the *acknowledgement* of a batch whose WAL frame had already
        verified (the batch is durable, the client just never heard),
        the post-restart retry arrives with an ``expected_first`` below
        the recovered watermark and is deduplicated instead of appended
        twice.  An offset past the watermark is a client-side gap and
        raises ``ValueError``.
        """
        data = np.asarray(data, dtype=np.float32)
        if self._state != "ready":
            self.stats.on_ingest_rejected()
            raise ServiceUnavailable(
                REJECT_CRASHED if self._state == "crashed" else REJECT_SHUTDOWN,
                f"service is {self._state}; ingest unavailable",
            )
        t0 = self.clock()
        policy = self.config.retry
        with self._ingest_lock:
            before = self.raw.n_series
            if expected_first is not None and expected_first != before:
                if expected_first > before:
                    raise ValueError(
                        f"ingest gap: client offset {expected_first} is past "
                        f"the durable watermark {before}"
                    )
                # Whole batches are atomic under recovery truncation, so
                # a re-sent batch is either entirely durable or not at all.
                if expected_first + len(data) > before:
                    raise ValueError(
                        f"ingest overlap: batch [{expected_first}, "
                        f"{expected_first + len(data)}) straddles the "
                        f"durable watermark {before}"
                    )
                return IngestReceipt(
                    first_index=expected_first,
                    n_rows=len(data),
                    n_attempts=0,
                    deduplicated=True,
                )
            recovered = False
            attempts = 0
            last: "Exception | None" = None
            for index in range(policy.retries + 1):
                attempts += 1
                try:
                    self._lsm.insert_batch(data)
                except TransientIOError as error:
                    last = error
                    self.stats.on_ingest_retry()
                    recovered = True
                    try:
                        self._recover_locked()
                    except FaultError as fatal:
                        self._enter_crashed_locked()
                        raise ServiceUnavailable(
                            REJECT_CRASHED, f"recovery failed: {fatal}"
                        ) from fatal
                    if self.raw.n_series > before:
                        # The faulted attempt's WAL frame had verified
                        # before the fault hit (e.g. during the flush):
                        # the batch is durable, so acknowledge it rather
                        # than re-inserting a duplicate.
                        break
                    if index < policy.retries:
                        time.sleep(policy.delay(index))
                    continue
                except FaultError as error:
                    self._enter_crashed_locked()
                    raise ServiceUnavailable(
                        REJECT_CRASHED, f"ingest fault: {error}"
                    ) from error
                break
            else:
                # Transient retries exhausted; state was recovered to the
                # acknowledged watermark, so the service stays available
                # and only this batch is refused.
                self.stats.on_ingest_rejected()
                raise ServiceUnavailable(
                    "ingest_retries_exhausted",
                    f"ingest failed after {policy.retries + 1} attempts: {last}",
                )
            self._refresh_snapshot_locked()
            self._maybe_scrub_locked()
        self.stats.on_ingest(len(data), self.clock() - t0)
        return IngestReceipt(
            first_index=before,
            n_rows=len(data),
            n_attempts=attempts,
            recovered=recovered,
        )

    # ------------------------------------------------------------------
    # Scrubbing
    # ------------------------------------------------------------------
    def scrub_now(self) -> ScrubReport:
        """Run one full integrity sweep now; repairs land in stats."""
        if self._scrubber is None:
            raise PageError(
                "scrubbing requires integrity (set verified_reads or "
                "scrub_every_batches on ServiceConfig)"
            )
        with self._ingest_lock:
            return self._scrub_locked(full=True)

    def _maybe_scrub_locked(self) -> None:
        every = self.config.scrub_every_batches
        if self._scrubber is None or every <= 0:
            return
        self._batches_since_scrub += 1
        if self._batches_since_scrub < every:
            return
        self._batches_since_scrub = 0
        self._scrub_locked(full=False)

    def _scrub_locked(self, full: bool) -> ScrubReport:
        """One bounded step (or a whole sweep) under the ingest lock.

        Served snapshots are never stalled: scrub reads ride
        the diagnostics plane, and holding the ingest lock only keeps
        flushes and compactions from moving the targets mid-scan.
        """
        scrubber = self._scrubber
        report = scrubber.sweep() if full else scrubber.step()
        self.stats.on_scrub(
            report, self.raw.n_series, len(scrubber.unrepairable)
        )
        if (
            report.repaired_pages or report.rebuilt_runs
        ) and self._state == "ready":
            # Serve the repaired content from the next batch on.  In
            # the crashed state the last good snapshot stays as-is (a
            # broken index must never be re-snapshotted); its shard
            # reads the repaired pages in place regardless.
            self._refresh_snapshot_locked()
        return report

    def _enter_crashed_locked(self) -> None:
        self._state = "crashed"
        self.stats.on_ingest_rejected()
        self.stats.on_crash()

    def _recover_locked(self) -> None:
        """Reopen the device and recover the LSM (under the ingest lock).

        Recovery itself reads through the journal device, so it heals
        the same way ingest does: reopen + retry on transient or crash
        faults, up to the policy's attempt budget.
        """
        policy = self.config.retry
        last: "FaultError | None" = None
        for index in range(policy.retries + 1):
            if hasattr(self.device, "reopen"):
                self.device.reopen()
            try:
                self._lsm = CoconutLSM.recover(self.device, self.raw)
                break
            except (TransientIOError, DeviceCrash) as error:
                last = error
                if index < policy.retries:
                    time.sleep(policy.delay(index))
            except CorruptionError as error:
                if self._scrubber is None:
                    raise
                last = error
                # A verified raw read refused flipped bytes mid-replay,
                # which would otherwise fail recovery on every attempt.
                # Replay truncates the raw file *before* reading it, so
                # a raw-only sweep now covers exactly the acknowledged
                # rows: heal what it can (single-bit decay) and retry.
                pre = Scrubber(
                    self.disk,
                    raw=self.raw,
                    pages_per_step=self.config.scrub_pages_per_step,
                )
                report = pre.sweep()
                self.stats.on_scrub(
                    report, self.raw.n_series, len(pre.unrepairable)
                )
        else:
            raise last
        self._wire_lsm()
        self.stats.on_recovery()
        if self._scrubber is not None:
            # Recovery rewrote runs and truncated raw; re-verify the
            # whole live surface so the sweep watermark is honest.
            self._scrub_locked(full=True)
        self._refresh_snapshot_locked()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _refresh_snapshot_locked(self) -> None:
        self._snapshot = ServiceSnapshot(self._lsm, self.disk)
        self._snapshot_src = self._lsm

    def current_snapshot(self) -> ServiceSnapshot:
        """The freshest consistent snapshot the service can serve from.

        In the ``crashed`` state the last good snapshot is returned
        as-is (the broken index must not be re-snapshotted); otherwise
        the cache is refreshed under the ingest lock whenever the LSM's
        ``state_version`` moved.
        """
        if self._state == "crashed":
            snapshot = self._snapshot
            if snapshot is None:
                raise ServiceUnavailable(
                    REJECT_CRASHED, "crashed before any snapshot was taken"
                )
            return snapshot
        with self._ingest_lock:
            if (
                self._snapshot is None
                or self._snapshot_src is not self._lsm
                or self._snapshot.state_version != self._lsm.state_version
            ):
                self._refresh_snapshot_locked()
            return self._snapshot

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def submit(
        self,
        query: np.ndarray,
        mode: str = "exact",
        k: int = 1,
        timeout_s=_UNSET,
    ) -> QueryTicket:
        """Admit one query; returns its ticket (or raises AdmissionError).

        The ticket completes when a serving batch picks it up —
        inline via :meth:`serve_pending` or on the server thread — and
        reports either answers (exact over the snapshot watermark it
        carries) or a shed reason.
        """
        # Malformed requests are bugs, not load: fail loudly before
        # touching admission accounting.
        if mode not in ("exact", "approximate"):
            raise ValueError(f"mode must be exact|approximate, got {mode!r}")
        k = check_k(k)
        if mode == "approximate" and k != 1:
            raise ValueError("approximate requests answer 1-NN only")
        timeout = (
            self.config.default_timeout_s if timeout_s is _UNSET else timeout_s
        )
        # A deadline at or before now is a ``deadline_expired`` rejection
        # below; a NaN one would never shed.
        if timeout is not None and not _is_seconds(timeout):
            raise ValueError(f"timeout_s must be None or seconds, got {timeout!r}")
        query = np.asarray(query, dtype=np.float64).ravel()
        if len(query) != self.raw.length:
            raise ValueError(
                f"query length {len(query)} != indexed length {self.raw.length}"
            )
        if not np.isfinite(query).all():
            raise ValueError("query contains NaN or infinite values")
        now = self.clock()
        if self._state == "stopped":
            self.stats.on_rejected(REJECT_SHUTDOWN)
            raise AdmissionError(REJECT_SHUTDOWN, "service is stopped")
        deadline = None if timeout is None else now + timeout
        if deadline is not None and deadline <= now:
            self.stats.on_rejected(REJECT_DEADLINE)
            raise AdmissionError(REJECT_DEADLINE, "deadline expired on arrival")
        ticket = QueryTicket(query, mode, k, now, deadline)
        try:
            self.queue.admit(ticket)
        except AdmissionError as error:
            self.stats.on_rejected(error.reason)
            raise
        self.stats.on_submitted()
        return ticket

    def query(
        self, query: np.ndarray, mode: str = "exact", k: int = 1, timeout_s=_UNSET
    ) -> QueryTicket:
        """Submit + wait convenience: inline when no server thread runs."""
        ticket = self.submit(query, mode=mode, k=k, timeout_s=timeout_s)
        if self._thread is None:
            self.serve_pending()
        else:
            ticket.wait()
        return ticket

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_pending(self, max_batches: "int | None" = None) -> int:
        """Inline pump: drain and serve queued tickets on this thread."""
        n_batches = 0
        while max_batches is None or n_batches < max_batches:
            tickets = self.queue.drain(self.config.max_batch_queries)
            if not tickets:
                break
            self._serve_once(tickets)
            n_batches += 1
        return n_batches

    def _serve_loop(self) -> None:
        while True:
            tickets = self.queue.collect(
                self.config.max_batch_queries, self._stop_event
            )
            if tickets:
                self._serve_once(tickets)
            elif self._stop_event.is_set():
                return

    def _serve_once(self, tickets: "list[QueryTicket]") -> None:
        with self._serve_lock:
            now = self.clock()
            ready: "list[QueryTicket]" = []
            for ticket in tickets:
                if ticket.expired(now, self.config.deadline_margin_s):
                    ticket._shed(REJECT_DEADLINE, now)
                    self.stats.on_shed(REJECT_DEADLINE)
                else:
                    ready.append(ticket)
            if not ready:
                return
            try:
                snapshot = self.current_snapshot()
            except ServiceUnavailable:
                now = self.clock()
                for ticket in ready:
                    ticket._shed(SHED_DEVICE_FAULT, now)
                    self.stats.on_shed(SHED_DEVICE_FAULT)
                return
            # Coalesce by (mode, k): each group is one shared-SIMS (or
            # shared-window) batch over the same snapshot.
            groups: "dict[tuple[str, int], list[QueryTicket]]" = {}
            for ticket in ready:
                groups.setdefault((ticket.mode, ticket.k), []).append(ticket)
            for (mode, k), group in groups.items():
                batch = QueryBatch(
                    np.stack([t.query for t in group]), k=k, mode=mode
                )
                try:
                    ids, distances, degraded = self._serve_batch(
                        snapshot, batch
                    )
                    served_watermark = snapshot.n_series
                except CorruptionError:
                    # A verified read refused to serve flipped bytes.
                    # Heal — scrub + repair under the ingest lock — and
                    # retry once on the serial engine over the repaired
                    # snapshot; counted, never silent.
                    healed = self._heal_corruption(batch)
                    if healed is None:
                        now = self.clock()
                        for ticket in group:
                            ticket._shed(SHED_DEVICE_FAULT, now)
                            self.stats.on_shed(SHED_DEVICE_FAULT)
                        continue
                    ids, distances, served_watermark = healed
                    degraded = True
                except FaultError:
                    # Serving faulted beyond every fallback: report it
                    # on each ticket rather than dropping or crashing
                    # the serve loop.
                    now = self.clock()
                    for ticket in group:
                        ticket._shed(SHED_DEVICE_FAULT, now)
                        self.stats.on_shed(SHED_DEVICE_FAULT)
                    continue
                now = self.clock()
                for i, ticket in enumerate(group):
                    ticket._serve(
                        ids[i], distances[i], served_watermark, now, degraded
                    )
                    self.stats.on_served(ticket.latency_s)
                self.stats.on_batch(degraded)

    def _serve_batch(self, snapshot: ServiceSnapshot, batch: QueryBatch):
        """Serve one coalesced batch; returns (ids, distances, degraded)."""
        return serve_snapshot_batch(
            snapshot,
            batch,
            wrap_device=self.wrap_serve_device,
            policy=self.config.retry,
            heal_report=self.stats.heal,
        )

    def _heal_corruption(self, batch: QueryBatch):
        """Serve-path corruption heal: scrub, repair, one serial retry.

        Returns ``(ids, distances, watermark)`` answered over the
        repaired snapshot, or ``None`` when the damage is unrepairable
        (raw multi-bit decay) — the retry's verified reads refuse
        again, the tickets are shed with the reason reported, and the
        pages stay quarantined.
        """
        if self._scrubber is None:
            return None
        with self._ingest_lock:
            self._scrub_locked(full=True)
        self.stats.on_corruption_heal()
        try:
            snapshot = self.current_snapshot()
            ids, distances = _serial_answers(snapshot, batch)
        except (ServiceUnavailable, FaultError):
            return None
        return ids, distances, snapshot.n_series

    def _shed_queued(self, reason: str) -> None:
        now = self.clock()
        for ticket in self.queue.drain():
            ticket._shed(reason, now)
            self.stats.on_shed(reason)

    # ------------------------------------------------------------------
    # Health surface
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """The :class:`ServiceStats` export + queue depth + LSM counters."""
        return self.stats.snapshot(
            queue_depth=self.queue.depth, lsm=self._lsm
        )


def _serial_answers(snapshot: ServiceSnapshot, batch: QueryBatch):
    """The degraded serial pass on the snapshot's read-only shard."""
    from .snapshot import _answer_on

    return _answer_on(snapshot.frozen_view(), batch, snapshot.shard)
