"""Deterministic fault injection for the simulated storage stack.

The test suite's fault rig: nothing in ``src/`` injects faults, so it
lives beside ``tests/oracles.py`` and is imported the same way
(``from fault_injection import FaultPlan, FaultyDevice, decay_bit``).
The faults it raises are the product's error taxonomy
(:mod:`repro.storage.faults`, ``docs/robustness.md``):

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
* **clean crashes** — the device halts before an op takes any effect,
* **decay at rest** — :func:`decay_bit` flips one bit of a page that
  was written correctly, with no op at all.

Everything in flight is driven by a :class:`FaultPlan`: a frozen,
seeded schedule whose decisions depend only on ``(seed, op kind, op
index)`` via an avalanche mix — no RNG state — so a schedule replays
bit-identically regardless of thread interleaving.

:class:`FaultyDevice` wraps any object speaking the paged-device
vocabulary (``SimulatedDisk``, ``DiskShard``) and forwards everything
else untouched, so it slots under ``PagedFile`` and ``RawSeriesFile``
unchanged.  With ``plan=None`` the wrapper is pure forwarding — the
disabled hook whose transparency ``tests/test_faults.py`` pins on page
streams and on the raw file's gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.disk import (
    DEVICE_IO_VERBS,
    PageError,
    _opens_run,
    _PagedDevice,
    _spans,
)
from repro.storage.faults import (
    DeviceCrash,
    PermanentIOError,
    TornWrite,
    TransientIOError,
)
from repro.storage.integrity import _store_page


# ----------------------------------------------------------------------
# The run-replay vectored read
# ----------------------------------------------------------------------
def replay_read_pages(device, pages) -> "list[tuple[np.ndarray, np.ndarray]]":
    """``device.read_pages(pages)``, replayed run by run on ``device``.

    The vectored read of a device that is not itself a page store: each
    maximal run of consecutive ids becomes one ``read_page`` (single
    page) or ``read_run_bytes`` call, in request order — exactly the
    sequence a caller without a vectored read would issue — and the
    joined stream comes back as a one-entry scatter list (see
    ``repro.storage.disk._PagedDevice.read_pages`` for the shape).  The
    pages *are* copied here; what the device keeps is its own
    semantics, call for call.
    """
    pages = np.asarray(pages, dtype=np.int64).ravel()
    if len(pages) == 0:
        return []
    parts = [
        device.read_page(int(pages[lo]))
        if hi - lo == 1
        else device.read_run_bytes(int(pages[lo]), hi - lo)
        for lo, hi in _spans(_opens_run(pages))
    ]
    stream = parts[0] if len(parts) == 1 else b"".join(parts)
    buffer = np.frombuffer(stream, dtype=np.uint8)
    buffer.flags.writeable = False
    return [(buffer.reshape(len(pages), device.page_size), np.arange(len(pages)))]


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


class RunVerbs:
    """The list verbs ``read_run`` / ``write_run`` of the device base.

    Each is spelled in the primitives *of ``self``* (``read_run_bytes``,
    ``write_page`` and the write checks), so a wrapper that numbers its
    primitive ops numbers these by construction.
    """

    read_run = _PagedDevice.read_run
    write_run = _PagedDevice.write_run


class FaultyDevice(RunVerbs):
    """A paged device that injects faults from a :class:`FaultPlan`.

    Wraps any device speaking the paged vocabulary and forwards
    ``allocate`` / ``read_page`` / ``write_page`` / ``read_run_bytes``
    / ``write_run_bytes`` with fault checks; ``read_run`` /
    ``write_run`` are the list verbs of :class:`RunVerbs` over those and
    ``read_pages`` is :func:`replay_read_pages` over them, so each
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
        a pure forwarder: the request goes to the inner device whole,
        numbered as the runs it stands for.
        """
        if self.plan is not None:
            return replay_read_pages(self, pages)
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


# ----------------------------------------------------------------------
# At-rest decay
# ----------------------------------------------------------------------
def decay_bit(disk, page_id: int, bit: int) -> None:
    """Flip one bit of a page *at rest* — silent media decay.

    Unlike :class:`FaultyDevice` (which corrupts payloads in flight,
    during an op), this models the platter rotting underneath a page
    that was written correctly: no op fires, nothing acks, no stats
    move, and the checksum sidecar still holds the original
    expectation.  Integrity tests inject with it because detection
    accounting is then exact by construction: every decayed page is
    corrupt, nothing else is.
    """
    page_size = disk.page_size
    if not 0 <= bit < page_size * 8:
        raise PageError(f"bit {bit} out of range for a {page_size}-byte page")
    raw = bytearray(disk.page_view(page_id))
    raw[bit >> 3] ^= 1 << (bit & 7)
    _store_page(disk, page_id, bytes(raw))
