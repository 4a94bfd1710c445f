"""The device-fault taxonomy the storage stack raises and handles.

The classes mirror the failure modes of real block devices (see
``docs/robustness.md``): a **transient** I/O error (the op raised
before any effect; a retry may succeed), a **permanent** one (a bad
page range that fails every access), a **corruption** detected by a
checksum reader (WAL frame, run footer, verified page read), and a
**crash** (the device halted; every later op fails until it is
reopened), of which a **torn write** is the mid-transfer case.
Everything is a :class:`~repro.storage.disk.PageError`, and
:class:`FaultError` is what the self-healing paths
(:mod:`repro.parallel.heal`, the service's in-place recovery) catch.

Nothing in the package injects faults: the seeded fault-injecting
device the tests drive these paths with is ``tests/fault_injection.py``.
"""

from __future__ import annotations

from .disk import PageError

__all__ = [
    "FaultError",
    "TransientIOError",
    "PermanentIOError",
    "CorruptionError",
    "DeviceCrash",
    "TornWrite",
]


class FaultError(PageError):
    """Base class for every device fault, raised or detected."""


class TransientIOError(FaultError):
    """The op failed before taking effect; retrying may succeed."""


class PermanentIOError(FaultError):
    """A bad page range: every access fails, retries included."""


class CorruptionError(FaultError):
    """A checksum mismatch detected by a reader (WAL frame, run file)."""


class DeviceCrash(FaultError):
    """The device halted (power loss); all later ops fail until reopen."""


class TornWrite(DeviceCrash):
    """Power loss mid-write: a prefix landed, then the device halted."""
