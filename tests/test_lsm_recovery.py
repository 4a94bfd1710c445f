"""Crash-consistent LSM recovery: the WAL + checksummed-run contract.

The property under test (``docs/robustness.md``): an index recovered
after a crash at *any* injected fault point is bit-identical — run and
memtable **content** (the lexsorted multiset of (key, offset) records)
and exact-search answers — to an oracle rebuilt from exactly the
acknowledged batches.  Randomized fault schedules exercise every
injected kind (transient, torn, bit flip, clean crash) on the product
device and on the dict oracle device (``tests/oracles.py``, every read
a ``bytes`` copy); the raw series file sits on the bare device (the
durable source of truth the paper's LSM design assumes), while every
run and WAL page goes through the fault layer.
"""

import numpy as np
import pytest

from fault_injection import FaultPlan, FaultyDevice
from oracles import DEVICES
from repro.core.lsm import CoconutLSM
from repro.storage import CorruptionError, FaultError
from repro.storage.seriesfile import RawSeriesFile
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)
MEM = 1 << 10
PAGE = 2048
BATCH_ROWS = 25

_rng = np.random.default_rng(2024)
BASE = _rng.standard_normal((200, LENGTH)).astype(np.float32)
EXTRA = _rng.standard_normal((250, LENGTH)).astype(np.float32)
QUERIES = _rng.standard_normal((3, LENGTH))


def content(ix) -> bytes:
    """Lexsorted (key, offset) multiset across runs + memtable."""
    keys = [np.asarray(run.keys) for run in ix._runs]
    offs = [np.asarray(run.offsets) for run in ix._runs]
    keys += [np.atleast_1d(np.asarray(k)) for k in ix._mem_keys]
    offs += [np.atleast_1d(np.asarray(o)) for o in ix._mem_offsets]
    k = np.concatenate(keys) if keys else np.empty(0, dtype="S1")
    o = np.concatenate(offs) if offs else np.empty(0, dtype=np.int64)
    order = np.lexsort((o, k))
    return k[order].tobytes() + o[order].tobytes()


def fresh_raw(store):
    disk = DEVICES[store](page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    return disk, raw


def oracle_index(store, n_acked: int):
    """Fault-free rebuild from exactly the acknowledged rows."""
    disk, raw = fresh_raw(store)
    ox = CoconutLSM(disk, MEM, CONFIG, durability="wal")
    ox.build(raw)
    data = EXTRA[: n_acked - len(BASE)]
    for lo in range(0, len(data), BATCH_ROWS):
        ox.insert_batch(data[lo : lo + BATCH_ROWS])
    return ox


def assert_equivalent(ix, oracle):
    assert content(ix) == content(oracle)
    for q in QUERIES:
        a, b = ix.exact_search(q), oracle.exact_search(q)
        assert a.answer_idx == b.answer_idx
        assert a.distance == b.distance


@pytest.mark.parametrize("store", DEVICES)
def test_clean_durable_index_recovers_bit_identical(store):
    disk, raw = fresh_raw(store)
    ix = CoconutLSM(disk, MEM, CONFIG, durability="wal")
    ix.build(raw)
    for lo in range(0, len(EXTRA), BATCH_ROWS):
        ix.insert_batch(EXTRA[lo : lo + BATCH_ROWS])
    before = content(ix)
    rec = CoconutLSM.recover(disk, raw)
    assert content(rec) == before
    assert rec.n_rebuilt_runs == 0
    assert_equivalent(rec, ix)


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("seed", range(12))
def test_crash_recovery_matches_acknowledged_oracle(store, seed):
    disk, raw = fresh_raw(store)
    plan = FaultPlan(
        seed=seed,
        p_transient_write=0.02,
        p_transient_read=0.01,
        p_torn_write=0.01,
        p_bitflip_write=0.02,
        p_crash_write=0.005,
        p_crash_read=0.002,
        max_faults=6,
    )
    dev = FaultyDevice(disk, plan)
    try:
        ix = CoconutLSM(dev, MEM, CONFIG, durability="wal")
        ix.build(raw)
        for lo in range(0, len(EXTRA), BATCH_ROWS):
            ix.insert_batch(EXTRA[lo : lo + BATCH_ROWS])
    except FaultError:
        pass  # crashed somewhere — the interesting case
    try:
        rec = CoconutLSM.recover(disk, raw)
    except CorruptionError:
        # Crash before the META frame committed: nothing durable was
        # ever acknowledged — the caller rebuilds from scratch.
        raw.truncate(len(BASE))
        rec = CoconutLSM(disk, MEM, CONFIG, durability="wal", wal_id=2)
        rec.build(raw)
    # Acknowledged rows = what survived the recovery truncation.
    assert raw.n_series >= len(BASE)
    assert (raw.n_series - len(BASE)) % BATCH_ROWS == 0
    assert_equivalent(rec, oracle_index(store, raw.n_series))


@pytest.mark.parametrize("store", DEVICES)
def test_bitflipped_run_is_rebuilt_from_raw(store):
    disk, raw = fresh_raw(store)
    dev = FaultyDevice(disk, None)
    ix = CoconutLSM(dev, MEM, CONFIG, durability="wal")
    ix.build(raw)
    for lo in range(0, 100, BATCH_ROWS):
        ix.insert_batch(EXTRA[lo : lo + BATCH_ROWS])
    # Corrupt one data byte of a committed run behind the checksum's
    # back, then recover: the crc mismatch must trigger a rebuild from
    # the raw file that reproduces the run bytes exactly.
    run = next(r for r in ix._runs if r.wal_lsn >= 0 and r.level < 10**6)
    page = run.file.physical_page(0)
    blob = bytearray(bytes(disk.page_view(page)))
    blob[0] ^= 0x40
    disk.write_page(page, bytes(blob))
    before = content(ix)
    rec = CoconutLSM.recover(disk, raw)
    assert rec.n_rebuilt_runs >= 1
    assert content(rec) == before
    assert_equivalent(rec, ix)


@pytest.mark.parametrize("store", DEVICES)
def test_recover_then_continue_then_recover_again(store):
    disk, raw = fresh_raw(store)
    plan = FaultPlan(seed=77, p_torn_write=0.02, max_faults=1)
    dev = FaultyDevice(disk, plan)
    crashed = False
    try:
        ix = CoconutLSM(dev, MEM, CONFIG, durability="wal")
        ix.build(raw)
        for lo in range(0, 150, BATCH_ROWS):
            ix.insert_batch(EXTRA[lo : lo + BATCH_ROWS])
    except FaultError:
        crashed = True
    rec = CoconutLSM.recover(disk, raw)
    marker = raw.n_series
    # The recovered index keeps working: append the remaining batches
    # fault-free, crash-free, and a second recovery replays everything.
    remaining = EXTRA[marker - len(BASE) :]
    for lo in range(0, len(remaining), BATCH_ROWS):
        rec.insert_batch(remaining[lo : lo + BATCH_ROWS])
    after = content(rec)
    rec2 = CoconutLSM.recover(disk, raw)
    assert content(rec2) == after
    assert_equivalent(rec2, oracle_index(store, len(BASE) + len(EXTRA)))
    assert crashed or True  # schedule may or may not fire; both are valid runs
