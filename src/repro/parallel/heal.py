"""Self-healing execution of the online service's served snapshots.

The service answers every served batch on the read-only
:class:`repro.storage.disk.DiskShard` taken with its snapshot
(:mod:`repro.service.snapshot`).  A read-only shard has nothing to roll
back: a failed attempt leaves the parent device and its
:class:`~repro.storage.cost.DiskStats` untouched.

That is what makes retry sound.  :func:`run_self_healing` layers the
policy on top:

* **transient** faults (:class:`~repro.storage.faults.TransientIOError`)
  are retried up to the :class:`RetryPolicy`'s ``retries`` times with
  capped exponential backoff — a fresh attempt re-issues the same
  deterministic I/O plan, so a successful retry is bit-identical to a
  run that never faulted;
* **permanent / corruption / crash** faults
  (:class:`~repro.storage.faults.PermanentIOError`,
  :class:`~repro.storage.faults.CorruptionError`,
  :class:`~repro.storage.faults.DeviceCrash`) skip straight to the
  ``fallback`` — retrying a deterministic plan against a deterministic
  fault would fail identically;
* when the ``fallback`` is ``None`` the last fault propagates to the
  caller.

The fallback is the same serial pass on the unwrapped snapshot shard,
so healing never changes *what* is computed, only *how*.  The same
policy drives the service's in-place ingest recovery.

Fault seam
----------
The service's ``wrap_serve_device(device, attempt)`` routes
each attempt's reads through its return value.  Tests pass a factory
building fault-injecting wrappers (``tests/fault_injection.py``); because
it is called afresh per attempt, each attempt's fault plan restarts at
operation index zero.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass

from ..storage.faults import CorruptionError, FaultError, TransientIOError

__all__ = [
    "HEAL_RETRIES",
    "HEAL_BACKOFF_S",
    "HEAL_BACKOFF_CAP_S",
    "RetryPolicy",
    "HealReport",
    "run_self_healing",
]

logger = logging.getLogger("repro.parallel")

#: Transient-fault retries before degrading (attempts = retries + 1).
HEAL_RETRIES = 2
#: Base backoff before the first retry; doubles per retry.
HEAL_BACKOFF_S = 0.002
#: Ceiling on any single backoff sleep.
HEAL_BACKOFF_CAP_S = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """Explicit retry/backoff policy for :func:`run_self_healing`.

    ``retries`` transient retries (attempts = retries + 1), capped
    exponential backoff starting at ``backoff_s`` and never exceeding
    ``backoff_cap_s`` per sleep.  Frozen so a policy can be shared
    between the service's ingest and serving paths without aliasing
    surprises.
    """

    retries: int = HEAL_RETRIES
    backoff_s: float = HEAL_BACKOFF_S
    backoff_cap_s: float = HEAL_BACKOFF_CAP_S

    def __post_init__(self) -> None:
        # Refuse bad numbers here, not at the first transient fault on
        # the server or ingest path (``range(2.5)``, ``sleep(inf)``).
        retries = self.retries
        if (
            isinstance(retries, bool)
            or not isinstance(retries, numbers.Integral)
            or retries < 0
        ):
            raise ValueError(f"retries must be an integer >= 0, got {retries!r}")
        for name in ("backoff_s", "backoff_cap_s"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
                or value < 0
            ):
                raise ValueError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )

    def delay(self, retry_index: int) -> float:
        """Sleep before retry ``retry_index`` (0-based): capped doubling.

        A doubling too large for a float is past any finite cap, so a
        late retry of a long policy sleeps the cap instead of raising.
        """
        try:
            doubled = math.ldexp(self.backoff_s, retry_index)
        except OverflowError:
            return self.backoff_cap_s
        return min(self.backoff_cap_s, doubled)


@dataclass
class HealReport:
    """Mutable accumulator of healing activity across calls.

    Callers add to a report they own so a long-lived consumer
    (the online service's :class:`~repro.service.stats.ServiceStats`)
    can export attempt counts without re-deriving them from logs.
    """

    n_calls: int = 0
    n_attempts: int = 0
    n_retries: int = 0
    n_transient_faults: int = 0
    n_fatal_faults: int = 0
    #: Of the fatal faults, how many were integrity failures
    #: (:class:`~repro.storage.faults.CorruptionError`) — a verified
    #: read refusing to serve flipped bytes, distinct from a device
    #: that merely died.  Subset of ``n_fatal_faults``.
    n_corruption_faults: int = 0
    n_degraded: int = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.n_calls,
            "attempts": self.n_attempts,
            "retries": self.n_retries,
            "transient_faults": self.n_transient_faults,
            "fatal_faults": self.n_fatal_faults,
            "corruption_faults": self.n_corruption_faults,
            "degraded": self.n_degraded,
        }


def run_self_healing(
    attempt,
    fallback=None,
    label: str = "healed call",
    policy: "RetryPolicy | None" = None,
    report: "HealReport | None" = None,
):
    """Run ``attempt(attempt_index)``, retrying transients, else degrade.

    ``attempt`` must be restartable: each call re-executes the full
    plan from scratch against a clean parent (a failed attempt on a
    read-only device leaves no trace).  ``fallback()`` — when given — is
    invoked after a non-transient fault or once transient retries are
    exhausted; with no fallback the last fault is re-raised.

    ``policy`` sets the retry budget and backoff (default
    :class:`RetryPolicy`).  When ``report`` is given,
    attempt/retry/degradation counts are accumulated onto it.

    Only :class:`~repro.storage.faults.FaultError` is healed.  Any
    other exception (a bug, a bad argument) propagates immediately:
    masking it behind a retry or a silent serial fallback would hide
    real defects.
    """
    base = policy if policy is not None else RetryPolicy()
    if report is not None:
        report.n_calls += 1
    last: "FaultError | None" = None
    for index in range(base.retries + 1):
        if report is not None:
            report.n_attempts += 1
            if index:
                report.n_retries += 1
        try:
            return attempt(index)
        except TransientIOError as error:
            last = error
            if report is not None:
                report.n_transient_faults += 1
            logger.warning(
                "%s: transient device fault on attempt %d/%d: %s",
                label, index + 1, base.retries + 1, error,
            )
            if index < base.retries:
                time.sleep(base.delay(index))
        except FaultError as error:
            last = error
            if report is not None:
                report.n_fatal_faults += 1
                if isinstance(error, CorruptionError):
                    report.n_corruption_faults += 1
            logger.warning("%s: non-retryable device fault: %s", label, error)
            break
    if fallback is None:
        raise last
    if report is not None:
        report.n_degraded += 1
    logger.warning("%s: degrading to the serial engine", label)
    return fallback()
