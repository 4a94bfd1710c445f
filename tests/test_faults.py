"""Fault-injection device layer (``tests/fault_injection.py``): plans,
wrapper semantics, transparency.

Covers the contract ``docs/robustness.md`` documents:

* :class:`FaultPlan` decisions are pure functions of (seed, op kind,
  op index) — replayable from any thread, no RNG state;
* :class:`FaultyDevice` slots under ``PagedFile`` and over a
  ``DiskShard`` unchanged, and with ``plan=None`` is byte- and
  stats-transparent, under ``PagedFile`` streams and under the raw
  file's skip-sequential gather alike (where verified reads must be
  transparent too);
* each fault kind's semantics: transient (no effect, retry works),
  permanent (bad ranges always fail), torn (prefix + old tail +
  halt), bit flip (silent single-bit corruption), crash (halt before
  effect) and ``reopen``.
"""

import numpy as np
import pytest

import repro.storage.seriesfile as seriesfile
from fault_injection import _READ, _WRITE, FaultPlan, FaultyDevice
from oracles import DEVICES
from repro.storage import (
    DeviceCrash,
    DiskShard,
    PagedFile,
    PermanentIOError,
    RawSeriesFile,
    SimulatedDisk,
    TornWrite,
    TransientIOError,
)

PAGE = 512


def make_disk(store="arena"):
    return DEVICES[store](page_size=PAGE)


# ----------------------------------------------------------------------
# FaultPlan determinism
# ----------------------------------------------------------------------
def test_plan_decisions_are_pure_functions():
    plan = FaultPlan(seed=42, p_transient_read=0.3, p_torn_write=0.2,
                     p_bitflip_write=0.1, p_crash_write=0.05)
    for index in range(200):
        first = (
            plan.transient_on(_READ, index),
            plan.torn_on(index),
            plan.bitflip_on(index),
            plan.crash_on(_WRITE, index),
            plan.position(_WRITE, index, 4096),
        )
        again = (
            plan.transient_on(_READ, index),
            plan.torn_on(index),
            plan.bitflip_on(index),
            plan.crash_on(_WRITE, index),
            plan.position(_WRITE, index, 4096),
        )
        assert first == again


def test_plan_streams_differ_by_seed_and_kind():
    a = FaultPlan(seed=1, p_transient_read=0.5, p_transient_write=0.5)
    b = FaultPlan(seed=2, p_transient_read=0.5, p_transient_write=0.5)
    reads_a = [a.transient_on(_READ, i) for i in range(256)]
    reads_b = [b.transient_on(_READ, i) for i in range(256)]
    writes_a = [a.transient_on(_WRITE, i) for i in range(256)]
    assert reads_a != reads_b  # seed changes the schedule
    assert reads_a != writes_a  # reads and writes draw independently
    assert any(reads_a) and not all(reads_a)


def test_same_plan_same_device_history():
    def run():
        disk = make_disk()
        dev = FaultyDevice(
            disk, FaultPlan(seed=9, p_transient_write=0.3, p_bitflip_write=0.2)
        )
        first = disk.allocate(8)
        log = []
        for i in range(8):
            try:
                dev.write_page(first + i, bytes([i]) * PAGE)
                log.append("ok")
            except TransientIOError:
                log.append("transient")
        return log, [f.kind for f in dev.injected], [
            bytes(disk.page_view(first + i)) for i in range(8)
        ]

    assert run() == run()


def test_max_faults_budget_allows_progress():
    disk = make_disk()
    dev = FaultyDevice(
        disk, FaultPlan(seed=3, p_transient_write=1.0, max_faults=4)
    )
    first = disk.allocate(1)
    failures = 0
    while True:
        try:
            dev.write_page(first, b"x" * PAGE)
            break
        except TransientIOError:
            failures += 1
            assert failures <= 4
    assert failures == 4
    assert dev.faults_injected == 4


# ----------------------------------------------------------------------
# Fault-kind semantics
# ----------------------------------------------------------------------
def test_transient_read_has_no_effect_and_retry_succeeds():
    disk = make_disk()
    first = disk.allocate(1)
    disk.write_page(first, b"a" * PAGE)
    dev = FaultyDevice(disk, FaultPlan(seed=0, p_transient_read=1.0, max_faults=1))
    with pytest.raises(TransientIOError):
        dev.read_page(first)
    assert bytes(dev.read_page(first)) == b"a" * PAGE


def test_permanent_bad_range_fails_every_retry():
    disk = make_disk()
    first = disk.allocate(4)
    dev = FaultyDevice(disk, FaultPlan(bad_pages=((first + 1, 2),)))
    dev.write_page(first, b"ok" )  # outside the bad range
    for _ in range(3):
        with pytest.raises(PermanentIOError):
            dev.read_page(first + 2)
        with pytest.raises(PermanentIOError):
            dev.write_page(first + 1, b"x")
    # multi-page ops overlapping the range fail too
    with pytest.raises(PermanentIOError):
        dev.read_run_bytes(first, 4)


def test_torn_write_leaves_prefix_then_old_tail_and_halts():
    disk = make_disk()
    first = disk.allocate(1)
    old = bytes(range(256)) * (PAGE // 256)
    disk.write_page(first, old)
    dev = FaultyDevice(disk, FaultPlan(seed=5, p_torn_write=1.0))
    new = b"N" * PAGE
    with pytest.raises(TornWrite):
        dev.write_page(first, new)
    assert dev.crashed
    landed = bytes(disk.page_view(first))
    keep = dev.plan.position(_WRITE, 0, PAGE)
    assert landed == new[:keep] + old[keep:]
    assert landed != new and landed != old or keep in (0, PAGE)
    # halted: every op fails until reopen
    with pytest.raises(DeviceCrash):
        dev.read_page(first)
    with pytest.raises(DeviceCrash):
        dev.allocate(1)
    dev.reopen()
    assert bytes(dev.read_page(first)) == landed


def test_bitflip_acks_silently_with_one_bit_inverted():
    disk = make_disk()
    first = disk.allocate(1)
    dev = FaultyDevice(disk, FaultPlan(seed=6, p_bitflip_write=1.0, max_faults=1))
    payload = b"\x00" * PAGE
    dev.write_page(first, payload)  # no exception: the ack is the bug
    landed = np.frombuffer(bytes(disk.page_view(first)), dtype=np.uint8)
    assert int(np.unpackbits(landed).sum()) == 1
    assert dev.injected[0].kind == "flip"


def test_flip_bookkeeping_counts_writes_not_reads():
    """``n_flips_injected`` is write-side accounting: reading a flipped
    page twice must not move it, so tests can assert detected ==
    injected without read-count skew."""
    disk = make_disk()
    first = disk.allocate(2)
    dev = FaultyDevice(disk, FaultPlan(seed=6, p_bitflip_write=1.0, max_faults=2))
    dev.write_page(first, b"\x00" * PAGE)
    dev.write_page(first + 1, b"\x00" * PAGE)
    assert dev.n_flips_injected == 2
    for _ in range(3):  # re-reading flipped pages changes nothing
        dev.read_page(first)
        dev.read_run_bytes(first, 2)
    assert dev.n_flips_injected == 2
    assert dev.faults_injected == 2


def test_flip_records_exact_bit_and_page():
    disk = make_disk()
    first = disk.allocate(4)
    dev = FaultyDevice(disk, FaultPlan(seed=13, p_bitflip_write=1.0, max_faults=1))
    payload = b"\x00" * (3 * PAGE)  # multi-page op: the flip may land anywhere
    dev.write_run_bytes(first, payload, 3)
    fault = dev.injected[0]
    assert fault.kind == "flip" and fault.bit >= 0
    flipped_page = first + (fault.bit >> 3) // PAGE
    assert dev.flipped_pages == {flipped_page}
    # The recorded bit is the bit that actually landed.
    landed = np.frombuffer(
        bytes(disk.read_run_bytes(first, 3)), dtype=np.uint8
    )
    (byte_at,) = np.nonzero(landed)[0]
    assert byte_at == fault.bit >> 3
    assert int(landed[byte_at]) == 1 << (fault.bit & 7)


def test_flip_on_empty_payload_records_nothing():
    disk = make_disk()
    first = disk.allocate(1)
    disk.write_page(first, b"keep")
    dev = FaultyDevice(disk, FaultPlan(seed=6, p_bitflip_write=1.0, max_faults=1))
    dev.write_page(first, b"")  # zero payload bits: nothing can flip
    assert dev.n_flips_injected == 0
    assert dev.flipped_pages == set()
    assert bytes(disk.page_view(first))[:4] == b"\x00\x00\x00\x00"


def test_crash_halts_before_any_effect():
    disk = make_disk()
    first = disk.allocate(1)
    disk.write_page(first, b"z" * PAGE)
    dev = FaultyDevice(disk, FaultPlan(seed=7, p_crash_write=1.0))
    with pytest.raises(DeviceCrash):
        dev.write_page(first, b"q" * PAGE)
    assert bytes(disk.page_view(first)) == b"z" * PAGE


# ----------------------------------------------------------------------
# Transparency and stack composition
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
def test_plan_none_is_fully_transparent(store):
    bare = make_disk(store)
    wrapped_disk = make_disk(store)
    dev = FaultyDevice(wrapped_disk, plan=None)
    rng = np.random.default_rng(0)
    blob = rng.integers(0, 256, size=3 * PAGE + 17, dtype=np.uint8).tobytes()
    for target in (bare, dev):
        file = PagedFile(target, name="t")
        file.write_stream(blob, at_page=0)
        assert bytes(file.read_stream(0, file.n_pages))[: len(blob)] == blob
    assert bare.stats == wrapped_disk.stats
    assert bare.head_position == wrapped_disk.head_position
    assert dev.faults_injected == 0


def _gather(way):
    """A skip-sequential ``get_many`` of 30 % of 4 000 rows, read bare,
    through a disabled fault hook, or with verified reads: the records,
    ``DiskStats`` and head position."""
    disk = SimulatedDisk(page_size=8192, integrity=way == "verified")
    rng = np.random.default_rng(7)
    raw = RawSeriesFile.create(
        disk, rng.standard_normal((4_000, 128)).astype(np.float32)
    )
    rows = np.sort(rng.choice(4_000, size=1_200, replace=False))
    if way == "hooked":
        raw = raw.view(FaultyDevice(disk, plan=None))
    raw.verified_reads = way == "verified"
    disk.reset_stats()
    disk.park_head()
    return raw.get_many(rows), disk.stats, disk.head_position


@pytest.mark.parametrize("way", ["bare", "hooked", "verified"])
def test_a_gather_is_transparent_to_the_hook_and_to_verification(
    way, monkeypatch
):
    """The raw file's gather returns the same records, ``DiskStats`` and
    head position bare, through ``FaultyDevice(plan=None)`` and with
    ``verified_reads=True`` on an integrity disk, which hashes pages."""
    hashed = []
    for name in ("verify_view", "verify_pages"):
        real = getattr(seriesfile, name)
        monkeypatch.setattr(
            seriesfile, name,
            lambda *args, real=real: hashed.append(args) or real(*args),
        )
    bare_records, bare_stats, bare_head = _gather("bare")
    assert not hashed
    records, stats, head = _gather(way)
    assert records.tobytes() == bare_records.tobytes()
    assert stats == bare_stats
    assert head == bare_head
    assert bool(hashed) == (way == "verified")


@pytest.mark.parametrize("store", DEVICES)
def test_faulty_device_under_paged_file_retries_transients(store):
    disk = make_disk(store)
    dev = FaultyDevice(
        disk, FaultPlan(seed=8, p_transient_read=1.0, max_faults=3)
    )
    file = PagedFile(dev, name="wal-ish")
    blob = bytes(range(256)) * 4
    file.write_stream(blob, at_page=0)
    failures = 0
    while True:
        try:
            got = bytes(file.read_stream(0, file.n_pages))[: len(blob)]
            break
        except TransientIOError:
            failures += 1
    assert got == blob
    assert failures == dev.faults_injected == 3


def test_faulty_shard_fault_leaves_the_parent_untouched():
    disk = make_disk()
    first = disk.allocate(4)
    for page in range(first, first + 4):
        disk.write_page(page, b"x" * PAGE)
    disk.read_page(first)
    before, head = disk.snapshot(), disk.head_position
    DiskShard(disk).read_run_bytes(first, 4)  # a sibling's clean reads
    dev = FaultyDevice(DiskShard(disk), FaultPlan(bad_pages=((first + 2, 1),)))
    with pytest.raises(PermanentIOError):
        dev.read_run_bytes(first, 4)
    # Shards read on their own head and counters: nothing moved upstream.
    assert disk.snapshot() == before and disk.head_position == head
    disk.write_page(first, b"fine")  # the parent stayed live throughout
    disk.allocate(1)