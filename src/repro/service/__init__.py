"""Online index service: crash-safe concurrent ingest + query serving.

The "millions of users" composition of the repo's pieces
(`docs/service.md`): a WAL-durable :class:`~repro.core.lsm.CoconutLSM`
ingest path with in-place crash recovery, a bounded admission queue
with per-request deadlines and load shedding, a server thread that
serves each query on arrival with whatever else is already queued as
shared-SIMS batches, and
snapshot-isolated serving over read-only
:class:`~repro.storage.disk.ShardedDisk` sessions — with self-healing
retries, graceful degradation to the serial engines, and a
:class:`~repro.service.stats.ServiceStats` health surface.
"""

from .admission import (
    REJECT_CRASHED,
    REJECT_DEADLINE,
    REJECT_QUEUE_FULL,
    REJECT_SHUTDOWN,
    SHED_DEVICE_FAULT,
    AdmissionError,
    AdmissionQueue,
    QueryTicket,
)
from .service import (
    CoconutService,
    IngestReceipt,
    ServiceConfig,
    ServiceUnavailable,
)
from .snapshot import ServiceSnapshot, serve_snapshot_batch
from .stats import LatencyWindow, ServiceStats

__all__ = [
    "REJECT_CRASHED",
    "REJECT_DEADLINE",
    "REJECT_QUEUE_FULL",
    "REJECT_SHUTDOWN",
    "SHED_DEVICE_FAULT",
    "AdmissionError",
    "AdmissionQueue",
    "CoconutService",
    "IngestReceipt",
    "LatencyWindow",
    "QueryTicket",
    "ServiceConfig",
    "ServiceSnapshot",
    "ServiceStats",
    "ServiceUnavailable",
    "serve_snapshot_batch",
]
