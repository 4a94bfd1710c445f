"""Self-healing parallel pools: retry, degradation, exception safety.

Two contracts from ``docs/robustness.md``:

* **healing never changes the result** — answers, tie order and
  reconciled stats under injected worker faults are bit-identical to
  the serial oracle, whether a transient retry succeeds or the engine
  degrades to the serial plan;
* **a failed session never wedges the parent** — any exception inside
  a ``ShardedDisk`` session (injected fault or plain bug) aborts it:
  the parent is unfenced, writable, and saw none of the attempt.

Also pins the PR 6 error paths end-to-end: out-of-bounds ``get_many``
raises before any I/O *through a shard session*, and a query/series
shape mismatch propagates through the parallel scan engine — both
leaving the parent device live.
"""

import numpy as np
import pytest

from repro.core.lsm import CoconutLSM
from repro.indexes.base import QueryBatch
from repro.indexes.serial import SerialScan
from repro.parallel.heal import RetryPolicy, run_self_healing
from repro.parallel.merge import parallel_merge_runs
from repro.parallel.query import (
    parallel_serial_scan_batch,
    parallel_sims_query_batch,
)
from repro.parallel.spill import sharded_spill_merge
from repro.storage import (
    DeviceCrash,
    FaultPlan,
    FaultyDevice,
    PermanentIOError,
    ShardedDisk,
    SimulatedDisk,
    TransientIOError,
)
from repro.storage.pager import PagedFile
from repro.storage.seriesfile import RawSeriesFile
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)
PAGE = 2048

_rng = np.random.default_rng(99)
DATA = _rng.standard_normal((400, LENGTH)).astype(np.float32)
QUERIES = _rng.standard_normal((3, LENGTH))
BATCH = QueryBatch(queries=QUERIES, k=4)


def transient_wrap(seed, p=0.25):
    """Faults on attempt 0 only — a retry must heal."""

    def wrap(shard, part, attempt):
        plan = FaultPlan(
            seed=seed * 131 + part,
            p_transient_read=p if attempt == 0 else 0.0,
            p_transient_write=p if attempt == 0 else 0.0,
        )
        return FaultyDevice(shard, plan)

    return wrap


def permanent_wrap(shard, part, attempt):
    return FaultyDevice(shard, FaultPlan(seed=1, bad_pages=((0, 10**9),)))


def report_sig(rep):
    return (
        [list(ids) for ids in rep.knn_ids],
        [list(map(float, d)) for d in rep.knn_distances],
    )


# ----------------------------------------------------------------------
# run_self_healing policy
# ----------------------------------------------------------------------
def test_retries_transients_then_succeeds():
    calls = []

    def attempt(i):
        calls.append(i)
        if i < 2:
            raise TransientIOError("flaky")
        return "done"

    policy = RetryPolicy(retries=2, backoff_s=0.0)
    assert run_self_healing(attempt, policy=policy) == "done"
    assert calls == [0, 1, 2]


def test_nontransient_goes_straight_to_fallback():
    calls = []

    def attempt(i):
        calls.append(i)
        raise PermanentIOError("dead sector")

    policy = RetryPolicy(backoff_s=0.0)
    assert run_self_healing(attempt, fallback=lambda: "serial", policy=policy) == "serial"
    assert calls == [0]


def test_without_fallback_the_fault_propagates():
    with pytest.raises(DeviceCrash):
        run_self_healing(
            lambda i: (_ for _ in ()).throw(DeviceCrash("halt")),
            policy=RetryPolicy(retries=1, backoff_s=0.0),
        )


def test_non_fault_exceptions_are_not_masked():
    with pytest.raises(ZeroDivisionError):
        run_self_healing(lambda i: 1 // 0, fallback=lambda: "never")


# ----------------------------------------------------------------------
# Parallel query engines under injected faults
# ----------------------------------------------------------------------
def make_lsm():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(DATA)
    ix = CoconutLSM(disk, 1 << 16, CONFIG)
    ix.build(raw)
    return disk, ix


def make_scan():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(DATA)
    ix = SerialScan(disk, 1 << 16)
    ix.build(raw)
    return disk, ix


def test_query_fetch_heals_transients_bit_identical():
    _, ix0 = make_lsm()
    oracle = report_sig(ix0.query_batch(BATCH, query_workers=1))
    for seed in range(4):
        _, ix = make_lsm()
        rep = parallel_sims_query_batch(
            ix, BATCH, ix._prepare_sims_parallel, 3, "thread",
            wrap_device=transient_wrap(seed),
        )
        assert report_sig(rep) == oracle


def test_query_fetch_degrades_to_serial_on_permanent_fault():
    _, ix0 = make_lsm()
    oracle = report_sig(ix0.query_batch(BATCH, query_workers=1))
    disk, ix = make_lsm()
    rep = parallel_sims_query_batch(
        ix, BATCH, ix._prepare_sims_parallel, 3, "thread",
        wrap_device=permanent_wrap,
    )
    assert report_sig(rep) == oracle
    disk.allocate(1)  # parent never left fenced


def test_scan_heals_and_degrades_with_identical_stats():
    _, ix0 = make_scan()
    oracle = parallel_serial_scan_batch(ix0, BATCH, 1)
    # clean inline replay = the stats oracle for the healed run
    _, ix1 = make_scan()
    clean = parallel_serial_scan_batch(ix1, BATCH, 3, "serial")
    _, ix2 = make_scan()
    healed = parallel_serial_scan_batch(
        ix2, BATCH, 3, "serial", wrap_device=transient_wrap(7)
    )
    assert report_sig(healed) == report_sig(clean) == report_sig(oracle)
    assert healed.io == clean.io  # aborted attempt reconciled nothing
    disk3, ix3 = make_scan()
    degraded = parallel_serial_scan_batch(
        ix3, BATCH, 3, "thread", wrap_device=permanent_wrap
    )
    assert report_sig(degraded) == report_sig(oracle)
    assert degraded.io == oracle.io  # the fallback IS the serial plan
    disk3.allocate(1)


# ----------------------------------------------------------------------
# Sharded spill merge + LSM compaction healing
# ----------------------------------------------------------------------
def lsm_content(ix) -> bytes:
    keys = [np.asarray(run.keys) for run in ix._runs]
    offs = [np.asarray(run.offsets) for run in ix._runs]
    keys += [np.atleast_1d(np.asarray(k)) for k in ix._mem_keys]
    offs += [np.atleast_1d(np.asarray(o)) for o in ix._mem_offsets]
    k, o = np.concatenate(keys), np.concatenate(offs)
    order = np.lexsort((o, k))
    return k[order].tobytes() + o[order].tobytes()


def build_compacting_lsm(workers, wrap=None):
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(DATA[:200])
    ix = CoconutLSM(disk, 1 << 10, CONFIG, workers=workers)
    ix.build(raw)
    if wrap is not None:
        ix._compact_wrap_device = wrap
    for lo in range(200, len(DATA), 50):
        ix.insert_batch(DATA[lo : lo + 50])
    return disk, ix


def test_sharded_compaction_retries_transients():
    _, serial = build_compacting_lsm(workers=1)
    _, healed = build_compacting_lsm(workers=3, wrap=transient_wrap(3, p=0.15))
    assert healed.n_merges > 0
    assert healed.n_degraded_compactions == 0
    assert lsm_content(healed) == lsm_content(serial)


def test_sharded_compaction_degrades_to_serial_merge():
    _, serial = build_compacting_lsm(workers=1)
    disk, degraded = build_compacting_lsm(workers=3, wrap=permanent_wrap)
    assert degraded.n_degraded_compactions > 0
    assert lsm_content(degraded) == lsm_content(serial)
    disk.allocate(1)  # parent writable after every aborted session


def test_spill_merge_fault_mid_merge_unfences_parent():
    disk = SimulatedDisk(page_size=PAGE)
    rec_dtype = np.dtype([("k", "S8"), ("v", "<i8")])
    rng = np.random.default_rng(5)
    sources = []
    for _ in range(3):
        letters = rng.integers(65, 91, size=(300, 8), dtype=np.uint8)
        keys = np.sort(letters.view("S8").ravel())
        block = np.empty(len(keys), dtype=rec_dtype)
        block["k"] = keys
        block["v"] = np.arange(len(keys))
        file = PagedFile(disk, name="src")
        file.write_stream(block.tobytes(), at_page=0)
        sources.append((file, len(keys), block["k"].copy()))
    with pytest.raises(PermanentIOError):
        sharded_spill_merge(
            disk, sources, rec_dtype, 3, 64,
            wrap_device=permanent_wrap, heal_policy=RetryPolicy(retries=1),
        )
    # the failed merge left the parent live and allocatable
    disk.allocate(1)
    disk.write_page(disk.allocate(1), b"still writable")
    # and a fault-free retry on the same disk succeeds outright
    result = sharded_spill_merge(disk, sources, rec_dtype, 3, 64, collect="keys")
    assert result.n_records == sum(n for _, n, _ in sources)
    assert bytes(np.sort(np.concatenate([s[2] for s in sources])).tobytes()) == result.keys.tobytes()


def test_parallel_merge_runs_unaffected_by_healing_path():
    rng = np.random.default_rng(1)
    runs = []
    for _ in range(4):
        letters = rng.integers(65, 91, size=(500, 8), dtype=np.uint8)
        keys = np.sort(letters.view("S8").ravel())
        runs.append((keys, np.arange(500, dtype=np.int64)))
    serial_k, serial_v = parallel_merge_runs(runs, workers=1)
    par_k, par_v = parallel_merge_runs(runs, workers=3, kind="thread")
    assert serial_k.tobytes() == par_k.tobytes()
    assert serial_v.tobytes() == par_v.tobytes()


# ----------------------------------------------------------------------
# PR 6 error paths, exercised through shard sessions and engines
# ----------------------------------------------------------------------
def test_get_many_oob_raises_before_io_through_shard_session():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(DATA[:50])
    before = disk.stats
    session = ShardedDisk(disk, [(0, 0)], names=["probe"], read_only=True)
    with pytest.raises(IndexError):
        with session as shards:
            raw.view(shards[0]).get_many(np.array([0, 50], dtype=np.int64))
    assert disk.stats == before  # validation fired before any I/O
    disk.allocate(1)  # session aborted, parent live


def test_shape_mismatch_propagates_through_parallel_scan():
    disk, ix = make_scan()
    bad = QueryBatch(queries=_rng.standard_normal((2, LENGTH // 2)), k=2)
    with pytest.raises(ValueError):
        parallel_serial_scan_batch(ix, bad, 3, "thread")
    disk.allocate(1)  # no fence left behind


def test_shape_mismatch_is_not_healed_into_silence():
    # healing covers device faults only: a ValueError from user input
    # must surface even with a wrap_device seam active
    disk, ix = make_scan()
    bad = QueryBatch(queries=_rng.standard_normal((2, LENGTH // 2)), k=2)
    with pytest.raises(ValueError):
        parallel_serial_scan_batch(
            ix, bad, 3, "thread", wrap_device=transient_wrap(1, p=0.0)
        )
    disk.allocate(1)


# ----------------------------------------------------------------------
# RetryPolicy + HealReport (the service's healing surface)
# ----------------------------------------------------------------------
def test_retry_policy_delay_is_capped_doubling():
    policy = RetryPolicy(retries=5, backoff_s=0.01, backoff_cap_s=0.03)
    assert [policy.delay(i) for i in range(4)] == [0.01, 0.02, 0.03, 0.03]
    with pytest.raises(ValueError):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_s=-0.1)


def test_explicit_policy_drives_attempt_budget():
    calls = []

    def attempt(i):
        calls.append(i)
        raise TransientIOError("always")

    with pytest.raises(TransientIOError):
        run_self_healing(
            attempt, policy=RetryPolicy(retries=3, backoff_s=0.0)
        )
    assert calls == [0, 1, 2, 3]


def test_legacy_kwargs_override_policy_fields():
    """The legacy keywords are gone: a policy is a ``RetryPolicy``."""
    calls = []

    def attempt(i):
        calls.append(i)
        raise TransientIOError("always")

    for legacy in ({"retries": 1}, {"backoff_s": 0.0}, {"backoff_cap_s": 0.0}):
        with pytest.raises(TypeError):
            run_self_healing(
                attempt, policy=RetryPolicy(retries=5, backoff_s=0.0), **legacy
            )
    with pytest.raises(TypeError):
        sharded_spill_merge(
            SimulatedDisk(page_size=PAGE), [], np.dtype([("k", "S8")]), 2, 64,
            heal_retries=1,
        )
    assert calls == []


def test_heal_report_accumulates_across_calls():
    from repro.parallel.heal import HealReport

    report = HealReport()
    policy = RetryPolicy(retries=2, backoff_s=0.0)
    # One healed call: two transient faults then success.
    state = {"n": 0}

    def flaky(i):
        state["n"] += 1
        if state["n"] < 3:
            raise TransientIOError("flaky")
        return "ok"

    assert run_self_healing(flaky, policy=policy, report=report) == "ok"
    # One degraded call: a permanent fault straight to the fallback.
    def dead(i):
        raise PermanentIOError("dead")

    assert (
        run_self_healing(dead, fallback=lambda: "serial", policy=policy, report=report)
        == "serial"
    )
    assert report.n_calls == 2
    assert report.n_attempts == 4  # 3 flaky + 1 dead
    assert report.n_retries == 2
    assert report.n_transient_faults == 2
    assert report.n_fatal_faults == 1
    assert report.n_degraded == 1
    merged = HealReport()
    merged.merge(report)
    merged.merge(report)
    assert merged.n_attempts == 8
    assert merged.as_dict()["calls"] == 4


def test_spill_merge_reports_heal_attempts():
    from repro.parallel.heal import HealReport

    disk = SimulatedDisk(page_size=PAGE)
    rec_dtype = np.dtype([("k", "S8"), ("v", "<i8")])
    rng = np.random.default_rng(21)
    sources = []
    for _ in range(2):
        letters = rng.integers(65, 91, size=(200, 8), dtype=np.uint8)
        keys = np.sort(letters.view("S8").ravel())
        block = np.empty(len(keys), dtype=rec_dtype)
        block["k"] = keys
        block["v"] = np.arange(len(keys))
        file = PagedFile(disk, name="src")
        file.write_stream(block.tobytes(), at_page=0)
        sources.append((file, len(keys), block["k"].copy()))
    report = HealReport()
    result = sharded_spill_merge(
        disk, sources, rec_dtype, 2, 64,
        wrap_device=transient_wrap(9, p=0.2), heal_report=report,
    )
    assert result.n_heal_attempts == report.n_attempts >= 1
    assert report.n_calls == 1
    # Even when the merge gives up, the attempts are still reported.
    report2 = HealReport()
    with pytest.raises(PermanentIOError):
        sharded_spill_merge(
            disk, sources, rec_dtype, 2, 64,
            wrap_device=permanent_wrap, heal_report=report2,
        )
    assert report2.n_fatal_faults == 1
    assert report2.n_degraded == 0  # no fallback at this layer
    disk.allocate(1)  # parent unfenced either way
