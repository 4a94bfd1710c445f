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

``frozen_view`` rebases everything onto the *underlying* simulated
disk, not the LSM's (possibly fault-wrapped) journal device: the read
path owns its device handle, so queries keep serving the last snapshot
even while the ingest device sits crash-latched awaiting ``restart()``.

Each snapshot also carries a long-lived zero-extent **read-only**
:class:`~repro.storage.disk.ShardedDisk` session, created at snapshot
time (under the service's ingest lock, when no writing session can be
attached).  Read-only sessions never fence the parent, and — the
crucial half — their reads keep working *while* a writing session (a
compaction mid-commit) fences it: the shard reads pages committed
before the session directly, which is exactly the snapshot's content.
That session is what makes serving immune to the flush/compaction
commit window; the boundary is pinned by the sharded-storage tests.

Serve-time faults are injected through the service's
``wrap_serve_device`` seam and healed by
:func:`repro.parallel.heal.run_self_healing` — transients retry with a
fresh wrapper and buffer pool, anything else degrades to a serial pass
on the unwrapped snapshot shard, answers bit-identical either way.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np

from ..core.lsm import CoconutLSM
from ..core.summary_column import SummaryColumn
from ..parallel.batch import batched_exact_knn
from ..parallel.heal import RetryPolicy, run_self_healing
from ..storage.bufferpool import BufferPool
from ..storage.disk import ShardedDisk

__all__ = ["SERVE_POOL_PAGES", "ServiceSnapshot", "serve_snapshot_batch"]

#: Buffer-pool pages per serving attempt (matches the query engines).
SERVE_POOL_PAGES = 64


class ServiceSnapshot:
    """An immutable view of the LSM's queryable state at one version.

    Must be constructed while no writing session is attached to
    ``base_disk`` (the service constructs snapshots under its ingest
    lock, which also serializes flush/compaction).
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
        # The SIMS summary column of this state, converted by the first
        # exact batch served from it and shared by every later one.
        self._column: "SummaryColumn | None" = None
        self._column_lock = threading.Lock()
        # The fence-proof read path: a floating read-only session whose
        # shard reads the snapshot's (pre-session) pages even while a
        # writing session fences the parent.
        self._session = ShardedDisk(
            base_disk,
            [(0, 0)],
            names=[f"serve-v{self.state_version}"],
            read_only=True,
        )
        self.shard = self._session.shards[0]

    def column(self, build) -> SummaryColumn:
        """The summary column of the frozen runs and memtable.

        The state never changes, so ``build()`` runs — keys
        concatenated and converted — once per snapshot instead of once
        per served batch.
        """
        with self._column_lock:
            if self._column is None:
                self._column = build()
            return self._column

    def frozen_view(self, device=None) -> CoconutLSM:
        """A read-only ``CoconutLSM`` facade over the frozen state.

        Quacks like a built LSM for every query entry point (the
        per-query searches, ``_prepare_sims*``, the batched engines,
        ``plan_query_batch``), but shares no mutable state with the
        live index: updating methods are unreachable because the
        service never calls them on a view.  ``device`` rebinds the
        facade's own reads (default: the parent disk).
        """
        view = _FrozenLSM.__new__(_FrozenLSM)
        view._snapshot = self
        view.disk = device if device is not None else self.base_disk
        view.memory_bytes = self.memory_bytes
        view.config = self.config
        view.size_ratio = self.size_ratio
        view.workers = 1
        view.pool_kind = "thread"
        view.durability = None
        view.wal_id = 0
        view._wal = None
        view._runs = self._runs
        view._mem_keys = self._mem_keys
        view._mem_offsets = self._mem_offsets
        view._mem_lsns = []
        view._mem_records = self._mem_records
        view.n_flushes = 0
        view.n_merges = 0
        view.n_rebuilt_runs = 0
        view.n_degraded_compactions = 0
        view.state_version = self.state_version
        view._heal_policy = None
        view._heal_report = None
        view.raw = self._raw
        view.built = True
        return view


class _FrozenLSM(CoconutLSM):
    """A ``CoconutLSM`` over a snapshot's state, sharing its column."""

    def _summary_column(self) -> SummaryColumn:
        return self._snapshot.column(self._build_summary_column)


def _answer_on(view: CoconutLSM, batch, device):
    """Answer ``batch`` on the frozen view with all reads on ``device``.

    The serial batched engines on one device: approximate batches are
    the shared-window probe pass; exact batches seed each query's
    heap with every distance its approximate probe computed — so a
    ``k > 1`` threshold is finite from the first block — and run the
    shared SIMS kNN scan.  Returns ``(ids, distances)`` — per query,
    ascending ``(distance, id)``.
    """
    queries = np.atleast_2d(np.asarray(batch.queries, dtype=np.float64))
    order, ctx = view._approx_visit_order(queries)
    pairs = view._approx_answer_subset(queries, ctx, order, device=device)
    if batch.mode == "approximate":
        results = [None] * len(queries)
        for qi, result in pairs:
            results[qi] = result
        ids = [
            [r.answer_idx] if r is not None and r.answer_idx >= 0 else []
            for r in results
        ]
        distances = [
            [r.distance] if r is not None and r.answer_idx >= 0 else []
            for r in results
        ]
        return ids, distances
    seeds: "list[list[tuple[float, int]]]" = [[] for _ in range(len(queries))]
    for qi, result in pairs:
        offsets, probe_distances = result.probed
        seeds[qi] = list(zip(probe_distances.tolist(), offsets.tolist()))
    column, make_fetch = view._prepare_sims_parallel()
    outcomes = batched_exact_knn(
        queries, batch.k, column, view.config, make_fetch(device), seeds
    )
    return (
        [list(outcome.answer_ids) for outcome in outcomes],
        [list(outcome.distances) for outcome in outcomes],
    )


def serve_snapshot_batch(
    snapshot: ServiceSnapshot,
    batch,
    wrap_device=None,
    policy: "RetryPolicy | None" = None,
    heal_report=None,
    pool_pages: int = SERVE_POOL_PAGES,
    verified_reads: bool = False,
):
    """Serve one coalesced batch against a snapshot, self-healing.

    Each attempt routes the snapshot shard through
    ``wrap_device(shard, 0, attempt)`` when the fault seam is armed and
    streams reads through a fresh private buffer pool.  Transient
    faults retry on a fresh wrapper; any other fault degrades to the
    same serial pass on the unwrapped shard.  Read-only shards have
    nothing to roll back, so a faulted attempt leaves no trace.

    ``verified_reads`` arms the attempt pools' checksum verification
    (:mod:`repro.storage.integrity`): a run page flipped at rest raises
    :class:`~repro.storage.faults.CorruptionError` out of the whole
    call — past the serial fallback, which reads the same pages — so
    the service can scrub-repair and retry rather than serve from a
    corrupt page.

    Returns ``(ids, distances, degraded)``.
    """
    view = snapshot.frozen_view()

    def attempt(attempt_index: int):
        device = (
            snapshot.shard
            if wrap_device is None
            else wrap_device(snapshot.shard, 0, attempt_index)
        )
        with BufferPool(device, pool_pages, verified_reads=verified_reads) as pool:
            return _answer_on(view, batch, pool)

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
