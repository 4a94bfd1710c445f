"""Device vocabulary conformance: every device defines every I/O verb.

``repro.storage.disk.DEVICE_IO_VERBS`` is the one list of verbs that
move page payloads.  Two things must hold for each of them on every
device class, or a consumer that reaches for the verb silently leaves
some layer's bookkeeping:

* the verb is defined on the class itself — never reached through a
  forwarding ``__getattr__``;
* through a :class:`FaultyDevice` it consults the fault plan: the op
  counters move, a bad page raises, a halted device refuses, and in
  the refusing cases nothing reaches the wrapped device.  A read-only
  :class:`DiskShard` refuses every write verb itself, wrapped or not.

Regression: ``read_run`` / ``write_run`` used to fall through
``FaultyDevice.__getattr__`` to the wrapped device, so a bad page read
back data and a halted device kept writing.
"""

import pytest

import repro.storage.faults
from oracles import DictDisk
from repro.storage import SimulatedDisk
from repro.storage.disk import DEVICE_IO_VERBS, DiskShard, PageError
from repro.storage.faults import (
    DeviceCrash,
    FaultPlan,
    FaultyDevice,
    PermanentIOError,
)

DEVICE_CLASSES = [SimulatedDisk, DiskShard, FaultyDevice, DictDisk]

#: verb -> (op kind, a call that touches page 1 of a 4-page device).
CALLS = {
    "read_page": ("r", lambda d: d.read_page(1)),
    "write_page": ("w", lambda d: d.write_page(1, b"a")),
    "read_run_bytes": ("r", lambda d: d.read_run_bytes(0, 4)),
    "write_run_bytes": ("w", lambda d: d.write_run_bytes(0, b"a", 4)),
    "read_run": ("r", lambda d: d.read_run(0, 4)),
    "write_run": ("w", lambda d: d.write_run(1, [b"a", b"b"])),
    "read_pages": ("r", lambda d: d.read_pages([0, 1, 3])),
}


def _inner(kind):
    """A 4-page ``kind`` device to wrap, and the page store under it."""
    disk = (DictDisk if kind == "DictDisk" else SimulatedDisk)(page_size=64)
    disk.allocate(4)
    if kind == "DiskShard":
        return DiskShard(disk), disk
    if kind == "FaultyDevice":
        return FaultyDevice(disk), disk
    return disk, disk


def test_the_call_table_covers_the_vocabulary():
    assert set(CALLS) == set(DEVICE_IO_VERBS)


@pytest.mark.parametrize("verb", DEVICE_IO_VERBS)
@pytest.mark.parametrize("cls", DEVICE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_device_class_defines_every_verb(cls, verb):
    # Class-level lookup never consults an instance's __getattr__.
    assert callable(getattr(cls, verb))


def _issued(device):
    return device.reads_issued, device.writes_issued


def _touched(inner, store):
    """Everything a leaked op would move underneath the wrapper."""
    shard_stats = inner.stats.copy() if isinstance(inner, DiskShard) else None
    return store.stats.copy(), store.pages_written, shard_stats


@pytest.mark.parametrize("verb", DEVICE_IO_VERBS)
@pytest.mark.parametrize("inner_kind", [cls.__name__ for cls in DEVICE_CLASSES])
def test_every_verb_consults_the_fault_plan(inner_kind, verb):
    kind, call = CALLS[verb]
    if kind == "w" and inner_kind == "DiskShard":
        # Read-only: every write is refused, and nothing is stored.
        inner, store = _inner(inner_kind)
        before = _touched(inner, store)
        for device in (inner, FaultyDevice(inner, FaultPlan())):
            with pytest.raises(PageError, match="read-only"):
                call(device)
        assert _touched(inner, store) == before
        return
    # Clean plan: the op is counted, on the side it belongs to.
    inner, _ = _inner(inner_kind)
    device = FaultyDevice(inner, FaultPlan())
    call(device)
    reads, writes = _issued(device)
    assert (reads > 0, writes > 0) == (kind == "r", kind == "w")

    # A bad page raises, and nothing reaches the wrapped device.
    inner, store = _inner(inner_kind)
    device = FaultyDevice(inner, FaultPlan(bad_pages=((1, 1),)))
    before = _touched(inner, store)
    with pytest.raises(PermanentIOError):
        call(device)
    assert sum(_issued(device)) == 1  # consulted once, refused there
    assert _touched(inner, store) == before

    # A halted device refuses before the op is even numbered.
    inner, store = _inner(inner_kind)
    device = FaultyDevice(inner)
    device.halt()
    before = _touched(inner, store)
    with pytest.raises(DeviceCrash):
        call(device)
    assert _issued(device) == (0, 0)
    assert _touched(inner, store) == before


def test_getattr_refuses_a_verb_the_class_does_not_define(monkeypatch):
    """A verb added to the vocabulary later fails loudly on the
    wrapper instead of bypassing the plan through the catch-all."""

    class NewerDisk(SimulatedDisk):
        def read_scattered(self, pages):
            return [self.read_page(p) for p in pages]

    inner = NewerDisk(page_size=64)
    inner.allocate(2)
    device = FaultyDevice(inner)
    assert len(device.read_scattered([0, 1])) == 2  # not a verb: forwarded
    monkeypatch.setattr(
        repro.storage.faults,
        "DEVICE_IO_VERBS",
        DEVICE_IO_VERBS + ("read_scattered",),
    )
    with pytest.raises(AttributeError, match="read_scattered"):
        device.read_scattered
    assert not hasattr(device, "read_scattered")
    assert device.pages_allocated == 2  # everything else still forwards
