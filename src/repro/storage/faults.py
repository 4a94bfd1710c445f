"""Deterministic fault injection for the simulated storage stack.

The fault model mirrors the failure taxonomy of real block devices
(see ``docs/robustness.md``):

* **transient I/O errors** — the op raises before any effect; a retry
  of the same logical op (a *new* op index) may succeed,
* **permanent I/O errors** — explicit bad page ranges that fail every
  access, like remapped-out sectors,
* **torn writes** — power loss mid-transfer: a deterministic prefix of
  the payload lands, the rest of the target region keeps its *old*
  content, and the device halts (every later op raises
  :class:`DeviceCrash`),
* **bit flips** — silent media corruption: the payload is written with
  one deterministically chosen bit inverted and the op *acks
  normally*; only checksums can catch it later,
* **clean crashes** — the device halts before an op takes any effect.

Everything is driven by a :class:`FaultPlan`: a frozen, seeded
schedule whose decisions depend only on ``(seed, op kind, op index)``
via an avalanche mix — no RNG state — so a schedule replays
bit-identically regardless of thread interleaving.

:class:`FaultyDevice` wraps any object speaking the paged-device
vocabulary (``SimulatedDisk``, ``DiskShard``) and forwards everything
else untouched, so it slots under ``PagedFile`` and ``RawSeriesFile``
unchanged.  With ``plan=None``
the wrapper is pure forwarding — the disabled hook whose transparency
``benchmarks/bench_faults.py`` asserts and whose overhead it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disk import DEVICE_IO_VERBS, PageError, _DerivedVerbs, _opens_run

__all__ = [
    "FaultError",
    "TransientIOError",
    "PermanentIOError",
    "CorruptionError",
    "DeviceCrash",
    "TornWrite",
    "FaultPlan",
    "FaultyDevice",
    "InjectedFault",
]


# ----------------------------------------------------------------------
# Exception taxonomy
# ----------------------------------------------------------------------
class FaultError(PageError):
    """Base class for every injected (or detected) device fault."""


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


# ----------------------------------------------------------------------
# Deterministic decision mixing
# ----------------------------------------------------------------------
_U64 = 1 << 64
_U64F = float(_U64)

# Op-kind salts: reads and writes draw from independent streams.
_READ, _WRITE = 0x52, 0x57
# Decision salts within one op.
_S_CRASH, _S_TORN, _S_FLIP, _S_TRANSIENT, _S_POS = 1, 2, 3, 4, 5


def _mix(seed: int, kind: int, salt: int, index: int) -> int:
    """SplitMix64-style avalanche of (seed, op kind, salt, op index).

    A full-avalanche mixer (not a linear checksum: CRC's GF(2)
    linearity makes seed or kind changes a constant XOR on every
    output, so distinct streams would collide).  Stateless and
    bit-exact across platforms — the replayability contract.
    """
    x = (
        (seed & (_U64 - 1)) * 0x9E3779B97F4A7C15
        + ((kind << 8) | salt) * 0xD1B54A32D192ED03
        + (index & (_U64 - 1)) * 0x8CB92BA72F3D8DD7
    ) % _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % _U64
    return x ^ (x >> 31)


def _unit(seed: int, kind: int, salt: int, index: int) -> float:
    """Uniform [0, 1) from (seed, op kind, decision salt, op index)."""
    return _mix(seed, kind, salt, index) / _U64F


def _pick(seed: int, kind: int, salt: int, index: int, n: int) -> int:
    """Deterministic integer in [0, n) for torn/bit-flip positions."""
    return _mix(seed, kind, salt, index + 1) % max(1, n)


@dataclass(frozen=True)
class InjectedFault:
    """Diagnostic record of one injected fault.

    ``bit`` is the flipped bit's offset within the written region (bit
    ``b`` of byte ``bit >> 3``) for ``kind == "flip"`` records, ``-1``
    otherwise — integrity tests use it to map each flip to the exact
    physical page it corrupted.
    """

    kind: str
    op: str
    op_index: int
    first_page: int
    n_pages: int
    bit: int = -1


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded schedule of device faults.

    Decisions are pure functions of ``(seed, op kind, op index)`` —
    the plan carries no mutable state, so the same plan object can be
    consulted from any thread and replays identically.  ``max_faults``
    caps the number of *scheduled* faults (transient, torn, bit-flip,
    crash) one :class:`FaultyDevice` will fire, so retry loops
    eventually make progress; permanent bad pages are a property of
    the medium and are never capped.
    """

    seed: int = 0
    p_transient_read: float = 0.0
    p_transient_write: float = 0.0
    p_torn_write: float = 0.0
    p_bitflip_write: float = 0.0
    p_crash_read: float = 0.0
    p_crash_write: float = 0.0
    bad_pages: tuple = ()  # tuple of (first_page, n_pages) ranges
    max_faults: int | None = None

    def hits_bad_range(self, first_page: int, n_pages: int) -> bool:
        for bad_first, bad_n in self.bad_pages:
            if first_page < bad_first + bad_n and bad_first < first_page + n_pages:
                return True
        return False

    # Each decision reads an independent deterministic stream; the
    # priority order (crash > torn > bit flip > transient) is applied
    # by the device.
    def crash_on(self, kind: int, index: int) -> bool:
        p = self.p_crash_read if kind == _READ else self.p_crash_write
        return p > 0.0 and _unit(self.seed, kind, _S_CRASH, index) < p

    def torn_on(self, index: int) -> bool:
        p = self.p_torn_write
        return p > 0.0 and _unit(self.seed, _WRITE, _S_TORN, index) < p

    def bitflip_on(self, index: int) -> bool:
        p = self.p_bitflip_write
        return p > 0.0 and _unit(self.seed, _WRITE, _S_FLIP, index) < p

    def transient_on(self, kind: int, index: int) -> bool:
        p = self.p_transient_read if kind == _READ else self.p_transient_write
        return p > 0.0 and _unit(self.seed, kind, _S_TRANSIENT, index) < p

    def position(self, kind: int, index: int, n: int) -> int:
        return _pick(self.seed, kind, _S_POS, index, n)


class FaultyDevice(_DerivedVerbs):
    """A paged device that injects faults from a :class:`FaultPlan`.

    Wraps any device speaking the paged vocabulary and forwards
    ``allocate`` / ``read_page`` / ``write_page`` / ``read_run_bytes``
    / ``write_run_bytes`` with fault checks; ``read_run`` /
    ``write_run`` / ``read_pages`` are the derived verbs of
    :class:`repro.storage.disk._DerivedVerbs` over those, so each
    consults the plan at the op granularity of the inner method it
    shadows (one read op per run, one write op per page; only a
    plan-less ``read_pages`` is handed to the inner device whole).
    ``page_view`` and every other attribute (``cost_model``, ``stats``,
    ``snapshot``, ``stats_since``, ``head_position`` …) pass straight
    through, so the wrapper is transparent to ``PagedFile``,
    ``RawSeriesFile`` and ``Measurement`` alike —
    except the names in ``DEVICE_IO_VERBS``, which are never forwarded:
    an I/O verb this class does not define would bypass the plan.
    """

    def __init__(self, inner, plan: FaultPlan | None = None):
        self.inner = inner
        self.plan = plan
        self.crashed = False
        self.reads_issued = 0
        self.writes_issued = 0
        self.faults_injected = 0
        self.injected: list[InjectedFault] = []

    # -- plan bookkeeping ------------------------------------------------
    def _budget_left(self) -> bool:
        plan = self.plan
        return plan.max_faults is None or self.faults_injected < plan.max_faults

    def _record(
        self, kind: str, op: str, index: int, first: int, n: int, bit: int = -1
    ) -> None:
        self.faults_injected += 1
        self.injected.append(InjectedFault(kind, op, index, first, n, bit))

    # -- flip bookkeeping ------------------------------------------------
    @property
    def n_flips_injected(self) -> int:
        """Bits actually flipped into the medium by this device.

        Counted on the *write* side — one ``"flip"`` record per
        corrupted write op — so re-reading a flipped page any number of
        times can neither under- nor over-count, and integrity tests
        can assert ``detected == injected`` exactly.
        """
        return sum(1 for fault in self.injected if fault.kind == "flip")

    @property
    def flipped_pages(self) -> "set[int]":
        """Physical page ids that received a flipped bit."""
        page_size = self.page_size
        return {
            fault.first_page + (fault.bit >> 3) // page_size
            for fault in self.injected
            if fault.kind == "flip" and fault.bit >= 0
        }

    def _check_read(self, first_page: int, n_pages: int) -> None:
        if self.crashed:
            raise DeviceCrash("device halted; reopen before further I/O")
        plan = self.plan
        index = self.reads_issued
        self.reads_issued += 1
        if plan is None:
            return
        if plan.hits_bad_range(first_page, n_pages):
            raise PermanentIOError(
                f"permanent read error in pages [{first_page}, {first_page + n_pages})"
            )
        if not self._budget_left():
            return
        if plan.crash_on(_READ, index):
            self._record("crash", "r", index, first_page, n_pages)
            self.crashed = True
            raise DeviceCrash(f"injected crash before read op {index}")
        if plan.transient_on(_READ, index):
            self._record("transient", "r", index, first_page, n_pages)
            raise TransientIOError(f"injected transient error on read op {index}")

    def _check_write(
        self, first_page: int, n_pages: int, payload_bits: int = 0
    ) -> "str | None":
        """Returns ``None`` (clean), ``"torn"`` or ``"flip"``."""
        if self.crashed:
            raise DeviceCrash("device halted; reopen before further I/O")
        plan = self.plan
        index = self.writes_issued
        self.writes_issued += 1
        if plan is None:
            return None
        if plan.hits_bad_range(first_page, n_pages):
            raise PermanentIOError(
                f"permanent write error in pages [{first_page}, {first_page + n_pages})"
            )
        if not self._budget_left():
            return None
        if plan.crash_on(_WRITE, index):
            self._record("crash", "w", index, first_page, n_pages)
            self.crashed = True
            raise DeviceCrash(f"injected crash before write op {index}")
        if plan.torn_on(index):
            self._record("torn", "w", index, first_page, n_pages)
            return "torn"
        if plan.bitflip_on(index) and payload_bits > 0:
            # Record the exact bit (same deterministic draw
            # _flipped_payload replays), so flip bookkeeping counts
            # bits actually landed — an empty payload flips nothing
            # and records nothing.
            bit = plan.position(_WRITE, index, payload_bits)
            self._record("flip", "w", index, first_page, n_pages, bit=bit)
            return "flip"
        if plan.transient_on(_WRITE, index):
            self._record("transient", "w", index, first_page, n_pages)
            raise TransientIOError(f"injected transient error on write op {index}")
        return None

    # -- payload corruption ---------------------------------------------
    def _old_region(self, first_page: int, n_pages: int) -> bytes:
        inner = self.inner
        return b"".join(
            bytes(inner.page_view(p)) for p in range(first_page, first_page + n_pages)
        )

    def _torn_payload(self, data, first_page: int, n_pages: int, index: int) -> bytes:
        """Prefix of the new payload over the old region content."""
        region = n_pages * self.page_size
        new = bytes(data).ljust(region, b"\x00")
        keep = self.plan.position(_WRITE, index, max(1, len(bytes(data))))
        old = self._old_region(first_page, n_pages)
        return new[:keep] + old[keep:]

    def _flipped_payload(self, data, index: int) -> bytes:
        raw = bytearray(bytes(data))
        if not raw:
            return bytes(raw)
        bit = self.plan.position(_WRITE, index, len(raw) * 8)
        raw[bit >> 3] ^= 1 << (bit & 7)
        return bytes(raw)

    # -- device vocabulary ----------------------------------------------
    @property
    def page_size(self) -> int:
        return self.inner.page_size

    def allocate(self, n_pages: int = 1, file_end: int | None = None) -> int:
        if self.crashed:
            raise DeviceCrash("device halted; reopen before further I/O")
        return self.inner.allocate(n_pages, file_end=file_end)

    def read_page(self, page_id: int):
        self._check_read(page_id, 1)
        return self.inner.read_page(page_id)

    def write_page(self, page_id: int, data) -> None:
        index = self.writes_issued
        mode = self._check_write(page_id, 1, len(data) * 8)
        if mode == "torn":
            self.inner.write_page(page_id, self._torn_payload(data, page_id, 1, index))
            self.crashed = True
            raise TornWrite(f"injected torn write on page {page_id} (op {index})")
        if mode == "flip":
            data = self._flipped_payload(data, index)
        self.inner.write_page(page_id, data)

    def read_run_bytes(self, first_page: int, n_pages: int):
        if n_pages <= 0:
            return b""
        self._check_read(first_page, n_pages)
        return self.inner.read_run_bytes(first_page, n_pages)

    def write_run_bytes(self, first_page: int, data, n_pages: int) -> None:
        if n_pages <= 0:
            return
        index = self.writes_issued
        mode = self._check_write(first_page, n_pages, len(data) * 8)
        if mode == "torn":
            torn = self._torn_payload(data, first_page, n_pages, index)
            self.inner.write_run_bytes(first_page, torn, n_pages)
            self.crashed = True
            raise TornWrite(
                f"injected torn write on pages [{first_page}, {first_page + n_pages}) "
                f"(op {index})"
            )
        if mode == "flip":
            data = self._flipped_payload(data, index)
        self.inner.write_run_bytes(first_page, data, n_pages)

    def read_pages(self, pages):
        """One plan decision per run: replayed through the adapter.

        With no plan there is nothing to decide and the wrapper stays
        the pure forwarder ``benchmarks/bench_faults.py`` measures: the
        request goes to the inner device whole, numbered as the runs
        it stands for.
        """
        if self.plan is not None:
            return super().read_pages(pages)
        if self.crashed:
            raise DeviceCrash("device halted; reopen before further I/O")
        pages = np.asarray(pages, dtype=np.int64).ravel()
        if len(pages):
            self.reads_issued += 1 + int(np.count_nonzero(_opens_run(pages)))
        return self.inner.read_pages(pages)

    def page_view(self, page_id: int):
        # Diagnostic path: no accounting on the inner device, no faults.
        return self.inner.page_view(page_id)

    def halt(self) -> None:
        """Latch the crashed state explicitly (no plan involvement).

        Chaos schedules use this to pull the plug at a chosen step —
        every subsequent read/write raises :class:`DeviceCrash` until
        :meth:`reopen` — without weaving the crash into the seeded
        per-operation plan, so the same :class:`FaultPlan` stays
        comparable across schedules that crash at different points.
        """
        self.crashed = True

    def reopen(self) -> None:
        """Clear the crashed latch, modelling a power-cycle + reopen."""
        self.crashed = False

    def __getattr__(self, name: str):
        # Everything else (cost_model, stats, snapshot, stats_since,
        # head_position, park_head, trace, pages_allocated, …) is
        # forwarded untouched — but never an I/O verb: one that lands
        # here is not instrumented, and forwarding it would move
        # payload past the plan and the crashed latch.
        if name in DEVICE_IO_VERBS:
            raise AttributeError(
                f"FaultyDevice does not instrument {name!r}; define it on "
                "the class so it consults the fault plan"
            )
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "live"
        return (
            f"FaultyDevice({self.inner!r}, plan={'on' if self.plan else 'off'}, "
            f"{state}, faults={self.faults_injected})"
        )
