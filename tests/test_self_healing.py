"""Self-healing: the retry policy, its report, and the read-only shard.

``run_self_healing`` retries transient faults with capped backoff and
degrades on anything else; ``RetryPolicy`` refuses bad numbers when it
is built.  The served-snapshot side of the contract — healed and
degraded batches answer like the oracle — is pinned in
``tests/test_service.py`` and ``tests/test_service_chaos.py``.

Also pins that a failed read through a ``DiskShard`` leaves no trace:
an out-of-bounds ``get_many`` raises before any I/O through the shard,
and the parent device stays live.
"""

import numpy as np
import pytest

from repro.parallel.heal import RetryPolicy, run_self_healing
from repro.service import ServiceConfig
from repro.storage import (
    DeviceCrash,
    DiskShard,
    PermanentIOError,
    SimulatedDisk,
    TransientIOError,
)
from repro.storage.seriesfile import RawSeriesFile

LENGTH = 64
PAGE = 2048
DATA = np.random.default_rng(99).standard_normal((50, LENGTH)).astype(np.float32)


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
# The read-only shard
# ----------------------------------------------------------------------
def test_get_many_oob_raises_before_io_through_a_shard():
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(DATA[:50])
    before = disk.snapshot()
    shard = DiskShard(disk, name="probe")
    with pytest.raises(IndexError):
        raw.view(shard).get_many(np.array([0, 50], dtype=np.int64))
    # Validation fired before any I/O, on the shard and the parent.
    assert disk.snapshot() == before and shard.stats.total_reads == 0
    disk.allocate(1)  # the parent stays live


# ----------------------------------------------------------------------
# RetryPolicy + HealReport (the service's healing surface)
# ----------------------------------------------------------------------
def test_retry_policy_delay_is_capped_doubling():
    policy = RetryPolicy(retries=5, backoff_s=0.01, backoff_cap_s=0.03)
    assert [policy.delay(i) for i in range(4)] == [0.01, 0.02, 0.03, 0.03]


@pytest.mark.parametrize(
    "field, value",
    [
        ("retries", -1),
        ("retries", 2.5),  # range(2.5) at the first transient fault
        ("retries", True),  # silently one retry
        ("retries", "2"),
        ("retries", None),
        ("backoff_s", -0.1),
        ("backoff_s", float("inf")),  # time.sleep(inf) overflows
        ("backoff_s", float("nan")),
        ("backoff_s", "0.1"),
        ("backoff_s", True),
        ("backoff_cap_s", -1),
        ("backoff_cap_s", float("inf")),
        ("backoff_cap_s", None),
    ],
)
def test_retry_policy_refuses_bad_numbers_when_built(field, value):
    """A bad number used to be accepted here and raise on the server or
    ingest path at the first transient fault."""
    with pytest.raises(ValueError, match=field):
        RetryPolicy(**{field: value})
    with pytest.raises(ValueError, match=field):
        ServiceConfig(retry=RetryPolicy(**{field: value}))


@pytest.mark.parametrize(
    "field, value",
    [("retries", 0), ("retries", np.int64(3)), ("backoff_s", 0), ("backoff_cap_s", 1)],
)
def test_retry_policy_accepts_integers_and_finite_numbers(field, value):
    assert getattr(RetryPolicy(**{field: value}), field) == value


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
