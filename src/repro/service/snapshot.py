"""Snapshot-isolated serving state for the online service.

A :class:`ServiceSnapshot` freezes the queryable state of a
:class:`~repro.core.lsm.CoconutLSM` at one instant: the run list, the
memtable's summary arrays, and the raw file's row watermark.  All three
are cheap shallow copies, and they stay valid forever:

* runs are immutable once committed — compaction *replaces* entries in
  the LSM's own list, it never mutates a ``_Run`` or frees its pages
  (the simulated disk is append-only), so a snapshot's run files remain
  readable even after compaction has superseded them;
* memtable batches are appended as whole immutable arrays and the
  lists are cleared (not mutated element-wise) on flush, so a copied
  list keeps its arrays alive untouched;
* the raw watermark is pinned by :meth:`RawSeriesFile.view`, which
  copies ``n_series`` at creation — rows appended later are invisible
  to the view's bounds checks and scans.

Because every piece is immutable, a snapshot converts little: its
summary column takes each run's and memtable batch's SAX words from
the LSM's :class:`~repro.core.summary_column.PieceWords`, so a piece
an earlier state converted is not converted again, and the memtable is
sorted once per snapshot, not once per served probe.

``frozen_view`` rebases everything onto the *underlying* simulated
disk, not the LSM's (possibly fault-wrapped) journal device: the read
path owns its device handle, so queries keep serving the last snapshot
even while the ingest device sits crash-latched awaiting ``restart()``.

Each snapshot also carries a long-lived **read-only**
:class:`~repro.storage.disk.DiskShard`, taken at snapshot time: it
reads the pages allocated before it was taken, which hold exactly the
snapshot's content, on its own head and counters, while ingest keeps
allocating and writing on the parent.  A served batch
reads straight off that shard — the record gather through its native
vectored ``read_pages`` — and, when the raw file verifies reads, hashes
every page it reads: raw pages, and the run windows an approximate
batch's probe reads (an exact batch reads no run page; its heaps are
primed from the in-memory summaries).

Serve-time faults are injected through the service's
``wrap_serve_device`` seam and healed by
:func:`repro.parallel.heal.run_self_healing` — transients retry on a
fresh wrapper, anything else degrades to a serial pass on the
unwrapped snapshot shard, answers bit-identical either way.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from ..core.lsm import CoconutLSM
from ..core.summary_column import SummaryColumn
from ..indexes.base import knn_lists
from ..parallel.batch import batched_exact_knn
from ..parallel.heal import RetryPolicy, run_self_healing
from ..storage.disk import DiskShard

__all__ = ["ServiceSnapshot", "serve_snapshot_batch"]


class ServiceSnapshot:
    """An immutable view of the LSM's queryable state at one version.

    The service constructs snapshots under its ingest lock, which also
    serializes flush/compaction.
    """

    def __init__(self, lsm: CoconutLSM, base_disk):
        self.base_disk = base_disk
        self.config = lsm.config
        self.memory_bytes = lsm.memory_bytes
        self.size_ratio = lsm.size_ratio
        self.state_version = lsm.state_version
        self.n_series = lsm.raw.n_series
        # Rebase run I/O and the raw view onto the underlying disk so
        # serving never routes through the ingest journal's device.
        self._runs = [
            replace(run, file=run.file.attach(base_disk)) for run in lsm._runs
        ]
        self._mem_keys = list(lsm._mem_keys)
        self._mem_offsets = list(lsm._mem_offsets)
        self._mem_records = lsm._mem_records
        self._raw = lsm.raw.view(base_disk)  # pins n_series
        self._piece_words = lsm._piece_words
        # What this state derives once, on first use, for every later
        # batch: the SIMS summary column and the sorted memtable.
        self._kept: dict = {}
        self._kept_lock = threading.Lock()
        # The read path: a read-only device over the pages allocated
        # so far, which hold the snapshot's content.
        self.shard = DiskShard(base_disk, name=f"serve-v{self.state_version}")

    def kept(self, name: str, build):
        """``build()``, run once per snapshot under ``name``.

        The state never changes, so what is derived from it — the
        summary column, the sorted memtable — is built by the first
        batch that needs it and shared by every later one.
        """
        with self._kept_lock:
            value = self._kept.get(name)
            if value is None:
                value = self._kept[name] = build()
            return value

    def frozen_view(self) -> CoconutLSM:
        """A read-only ``CoconutLSM`` facade over the frozen state.

        Quacks like a built LSM for every query entry point (the
        per-query searches, ``_prepare_sims``, the batched engines,
        ``plan_query_batch``), but shares no mutable state with the
        live index: updating methods are unreachable because the
        service never calls them on a view.  The facade's own reads
        land on the parent disk.
        """
        view = _FrozenLSM.__new__(_FrozenLSM)
        view._snapshot = self
        view.disk = self.base_disk
        view.memory_bytes = self.memory_bytes
        view.config = self.config
        view.size_ratio = self.size_ratio
        view.durability = None
        view.wal_id = 0
        view._wal = None
        view._runs = self._runs
        view._mem_keys = self._mem_keys
        view._mem_offsets = self._mem_offsets
        view._mem_lsns = []
        view._mem_records = self._mem_records
        view._piece_words = self._piece_words
        view.n_flushes = 0
        view.n_merges = 0
        view.n_rebuilt_runs = 0
        view.state_version = self.state_version
        view.raw = self._raw
        view.built = True
        return view


class _FrozenLSM(CoconutLSM):
    """A ``CoconutLSM`` over a snapshot's state, sharing what it keeps."""

    def _summary_column(self) -> SummaryColumn:
        return self._snapshot.kept("column", self._build_summary_column)

    def _sorted_memtable(self) -> tuple[np.ndarray, np.ndarray]:
        return self._snapshot.kept("memtable", super()._sorted_memtable)


def _answer_on(view: CoconutLSM, batch, device):
    """Answer ``batch`` on the frozen view with all reads on ``device``.

    Approximate batches are the shared-window probe pass; exact batches
    run the shared SIMS kNN engine unseeded, so every heap starts short
    and the prime pass seeds it from its lowest-bound rows
    (:func:`~repro.parallel.batch.prime_short_heaps`) — no run window
    is read and no probe record gathered.  Returns ``(ids,
    distances)`` — per query, ascending ``(distance, id)``.
    """
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    if batch.mode == "approximate":
        return knn_lists(view._approximate_batch(queries, device=device))
    column, fetch = view._prepare_sims(device)
    outcomes = batched_exact_knn(queries, batch.k, column, view.config, fetch)
    return knn_lists(outcomes)


def serve_snapshot_batch(
    snapshot: ServiceSnapshot,
    batch,
    wrap_device=None,
    policy: "RetryPolicy | None" = None,
    heal_report=None,
):
    """Serve one coalesced batch against a snapshot, self-healing.

    Each attempt reads straight off the snapshot shard, routed through
    ``wrap_device(shard, attempt)`` when the fault seam is armed.
    Transient faults retry on a fresh wrapper; any other fault degrades
    to the same serial pass on the unwrapped shard.  Read-only shards
    have nothing to roll back, so a faulted attempt leaves no trace.

    When the snapshot's raw file verifies reads (the service arms
    ``verified_reads`` from its config), every page an attempt reads —
    record pages and an approximate probe's run windows — is hashed
    against the checksum sidecar first (:mod:`repro.storage.integrity`):
    a page flipped at rest raises
    :class:`~repro.storage.faults.CorruptionError` out of the whole call
    — past the serial fallback, which reads the same pages — so the
    service can scrub-repair and retry rather than serve from a corrupt
    page.

    Returns ``(ids, distances, degraded)``.
    """
    view = snapshot.frozen_view()

    def attempt(attempt_index: int):
        device = (
            snapshot.shard
            if wrap_device is None
            else wrap_device(snapshot.shard, attempt_index)
        )
        return _answer_on(view, batch, device)

    outcome = run_self_healing(
        attempt,
        fallback=lambda: None,
        policy=policy,
        label="service batch",
        report=heal_report,
    )
    if outcome is not None:
        ids, distances = outcome
        return ids, distances, False
    ids, distances = _answer_on(view, batch, snapshot.shard)
    return ids, distances, True
