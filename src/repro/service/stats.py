"""The service's health surface: counters, gauges, latency percentiles.

:class:`ServiceStats` is the one object an operator (or the chaos
test's accounting assertions) reads to understand what the service did:
how much was admitted, served, shed and rejected — *by reason* — how
often ingest retried or recovered, how often serving degraded to the
serial engines, and where the latency tail sits.  Every terminal
outcome a :class:`~repro.service.admission.QueryTicket` can reach has a
counter here; the conservation law

``submitted == served + shed + sum(rejected.values()) + in flight``

is asserted by the chaos suite, which is what "never silently dropped"
means operationally.

Latency percentiles are nearest-rank over a bounded ring of recent
samples — a sliding window, not a lifetime average, because tail
latency under load is a *current* property.
"""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np

from ..parallel.heal import HealReport

__all__ = ["LatencyWindow", "ServiceStats"]


class LatencyWindow:
    """Bounded ring of latency samples with nearest-rank percentiles."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._samples = np.zeros(capacity, dtype=np.float64)
        self._capacity = capacity
        self._count = 0  # total ever recorded; ring index = count % capacity

    def record(self, latency_s: float) -> None:
        self._samples[self._count % self._capacity] = latency_s
        self._count += 1

    def __len__(self) -> int:
        return min(self._count, self._capacity)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (q in [0, 100]) over the window; 0 when empty."""
        n = len(self)
        if n == 0:
            return 0.0
        window = np.sort(self._samples[:n])
        rank = min(n - 1, max(0, int(np.ceil(q / 100.0 * n)) - 1))
        return float(window[rank])


class ServiceStats:
    """Thread-safe counters + latency windows; snapshot() is the export.

    Increment methods take the lock per event; ``snapshot`` copies
    everything under the lock so an exported dict is internally
    consistent even mid-traffic.
    """

    def __init__(self, latency_capacity: int = 4096):
        self._lock = threading.Lock()
        # Query life cycle.
        self.n_submitted = 0
        self.n_admitted = 0
        self.n_served = 0
        self.n_batches = 0
        self.n_degraded_batches = 0
        self.shed = Counter()
        self.rejected = Counter()
        # Ingest life cycle.
        self.n_ingest_batches = 0
        self.n_ingest_rows = 0
        self.n_ingest_retries = 0
        self.n_ingest_rejected = 0
        # Crash / recovery life cycle.
        self.n_recoveries = 0
        self.n_restarts = 0
        self.n_crashes = 0
        # Integrity life cycle: scrub activity and serve-path heals.
        self.n_scrub_steps = 0
        self.n_scrub_sweeps = 0
        self.n_pages_scrubbed = 0
        self.n_corrupt_pages = 0
        self.n_pages_repaired = 0
        self.n_runs_quarantined = 0
        self.n_runs_rebuilt = 0
        self.n_unrepairable_pages = 0  # gauge: currently quarantined
        self.n_corruption_heals = 0
        # Raw-row watermark the last *completed* sweep verified (-1
        # before any sweep finishes).
        self.last_sweep_watermark = -1
        # Healing activity across every seam the service drives.
        self.heal = HealReport()
        self.query_latency = LatencyWindow(latency_capacity)
        self.ingest_latency = LatencyWindow(latency_capacity)

    # -- query events ----------------------------------------------------
    def on_submitted(self) -> None:
        with self._lock:
            self.n_submitted += 1
            self.n_admitted += 1

    def on_rejected(self, reason: str) -> None:
        with self._lock:
            self.n_submitted += 1
            self.rejected[reason] += 1

    def on_served(self, latency_s: float) -> None:
        with self._lock:
            self.n_served += 1
            self.query_latency.record(latency_s)

    def on_batch(self, degraded: bool) -> None:
        with self._lock:
            self.n_batches += 1
            self.n_degraded_batches += degraded

    def on_shed(self, reason: str) -> None:
        with self._lock:
            self.shed[reason] += 1

    # -- ingest / recovery events ---------------------------------------
    def on_ingest(self, n_rows: int, latency_s: float) -> None:
        with self._lock:
            self.n_ingest_batches += 1
            self.n_ingest_rows += n_rows
            self.ingest_latency.record(latency_s)

    def on_ingest_retry(self) -> None:
        with self._lock:
            self.n_ingest_retries += 1

    def on_ingest_rejected(self) -> None:
        with self._lock:
            self.n_ingest_rejected += 1

    def on_recovery(self) -> None:
        with self._lock:
            self.n_recoveries += 1

    def on_restart(self) -> None:
        with self._lock:
            self.n_restarts += 1

    def on_crash(self) -> None:
        with self._lock:
            self.n_crashes += 1

    # -- integrity events ------------------------------------------------
    def on_scrub(self, report, watermark: int, unrepairable: int) -> None:
        """Fold one scrub step (or whole sweep) into the surface.

        ``watermark`` is the raw-row count the scrub ran against; it
        becomes the last-sweep watermark only when ``report.complete``
        — a partial step proves nothing about pages it never reached.
        ``unrepairable`` is the scrubber's current quarantine size (a
        gauge, not a delta: a page repaired later leaves it again).
        """
        with self._lock:
            self.n_scrub_steps += 1
            self.n_pages_scrubbed += report.pages_scanned
            self.n_corrupt_pages += len(report.corrupt_pages)
            self.n_pages_repaired += len(report.repaired_pages)
            self.n_runs_quarantined += len(report.quarantined_runs)
            self.n_runs_rebuilt += report.rebuilt_runs
            self.n_unrepairable_pages = unrepairable
            if report.complete:
                self.n_scrub_sweeps += 1
                self.last_sweep_watermark = watermark

    def on_corruption_heal(self) -> None:
        with self._lock:
            self.n_corruption_heals += 1

    # -- export ----------------------------------------------------------
    def snapshot(self, queue_depth: int = 0, lsm=None) -> dict:
        """One consistent dict of the whole surface (JSON-serializable)."""
        with self._lock:
            out = {
                "queue_depth": queue_depth,
                "submitted": self.n_submitted,
                "admitted": self.n_admitted,
                "served": self.n_served,
                "batches": self.n_batches,
                "degraded_batches": self.n_degraded_batches,
                # Always 0: a snapshot's shard only reads, so nothing
                # can block a batch.  Kept for readers of the export (bench_e2e).
                "session_conflicts": 0,
                "shed": dict(self.shed),
                "rejected": dict(self.rejected),
                "ingest_batches": self.n_ingest_batches,
                "ingest_rows": self.n_ingest_rows,
                "ingest_retries": self.n_ingest_retries,
                "ingest_rejected": self.n_ingest_rejected,
                "recoveries": self.n_recoveries,
                "restarts": self.n_restarts,
                "crashes": self.n_crashes,
                "heal": self.heal.as_dict(),
                "scrub": {
                    "steps": self.n_scrub_steps,
                    "sweeps": self.n_scrub_sweeps,
                    "pages_scanned": self.n_pages_scrubbed,
                    "corrupt_pages": self.n_corrupt_pages,
                    "pages_repaired": self.n_pages_repaired,
                    "runs_quarantined": self.n_runs_quarantined,
                    "runs_rebuilt": self.n_runs_rebuilt,
                    "unrepairable_pages": self.n_unrepairable_pages,
                    "corruption_heals": self.n_corruption_heals,
                    "last_sweep_watermark": self.last_sweep_watermark,
                },
                "query_latency_s": {
                    "p50": self.query_latency.percentile(50),
                    "p95": self.query_latency.percentile(95),
                    "p99": self.query_latency.percentile(99),
                    "samples": len(self.query_latency),
                },
                "ingest_latency_s": {
                    "p50": self.ingest_latency.percentile(50),
                    "p95": self.ingest_latency.percentile(95),
                    "p99": self.ingest_latency.percentile(99),
                    "samples": len(self.ingest_latency),
                },
            }
        if lsm is not None:
            out["lsm"] = {
                "runs": lsm.n_runs,
                "flushes": lsm.n_flushes,
                "merges": lsm.n_merges,
                "rebuilt_runs": lsm.n_rebuilt_runs,
                "state_version": lsm.state_version,
            }
        return out
