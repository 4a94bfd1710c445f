"""Equivalence tests for the vectorized and parallel merges.

The merge contract is strict: for any run shapes, key distribution
(duplicate-heavy included), memory budget and worker count, the
blockwise ``merge_stream`` and the parallel range-partitioned merge
produce *byte-identical* output streams — same records, same chunk
shapes — and, for the merges that touch disk, an identical simulated
I/O trace (every sequential/random counter) and identical
``SortReport``.  The oracles these properties pin everything to are
the per-record heapq loop and the stable argsort in
``tests/oracles.py``, substituted by patching the one merge callable
the sorter (or the LSM compaction) calls.
"""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import argsort_merge, heapq_merge_stream
from repro import RawSeriesFile, SimulatedDisk, random_walk
from repro.core import CoconutTree
from repro.core.lsm import CoconutLSM
from repro.parallel import parallel_merge_runs, sample_splitters
from repro.storage import (
    ExternalSorter,
    LoserTree,
    merge_pair,
    merge_presorted,
)
from repro.summaries import SAXConfig


def make_sorted_runs(n, run_sizes, key_bytes=4, alphabet=256, seed=0):
    """Arbitrary internally-sorted runs with globally unique payloads."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, alphabet, size=(n, key_bytes), dtype=np.uint8)
    keys = raw.view(f"S{key_bytes}").ravel()
    payloads = np.arange(n, dtype=np.int64)
    runs, at = [], 0
    for size in run_sizes:
        size = min(size, n - at)
        chunk_keys = keys[at : at + size]
        chunk_payloads = payloads[at : at + size]
        order = np.argsort(chunk_keys, kind="stable")
        runs.append((chunk_keys[order], chunk_payloads[order]))
        at += size
    if at < n:
        chunk_keys, chunk_payloads = keys[at:], payloads[at:]
        order = np.argsort(chunk_keys, kind="stable")
        runs.append((chunk_keys[order], chunk_payloads[order]))
    return runs


def heapq_oracle():
    """Swap the per-record heap merge in for the sorter's merge_stream."""
    return mock.patch(
        "repro.storage.external_sort.merge_stream", heapq_merge_stream
    )


def drive(
    runs, memory_bytes, page_size=256, workers=1, pool_kind="thread", oracle=False
):
    disk = SimulatedDisk(page_size=page_size)
    sorter = ExternalSorter(
        disk, memory_bytes, merge_workers=workers, pool_kind=pool_kind
    )
    with heapq_oracle() if oracle else nullcontext():
        parts = list(sorter.sort_runs(runs))
    shapes = [len(k) for k, _ in parts]
    if parts:
        keys = np.concatenate([k for k, _ in parts])
        payloads = np.concatenate([p for _, p in parts])
    else:
        keys = payloads = np.empty(0)
    return keys, payloads, shapes, disk.stats, sorter.report


# ----------------------------------------------------- engine vs oracle
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=400),
    n_runs=st.integers(min_value=1, max_value=40),
    alphabet=st.sampled_from([2, 4, 256]),
    memory_records=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_blockwise_equals_heapq(n, n_runs, alphabet, memory_records, seed):
    """Byte-identical stream, chunks, report and I/O trace vs the oracle.

    Covers duplicate-heavy keys (tiny alphabets force cross-run ties),
    empty runs, single-record runs, in-memory and spilled merges, and
    cascaded multi-pass merges (tiny budgets push fan-in below the run
    count).
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max(1, 2 * n // n_runs + 1), size=n_runs)
    runs = make_sorted_runs(n, sizes.tolist(), alphabet=alphabet, seed=seed)
    memory = 12 * memory_records
    hk, hp, hs, hio, hrep = drive(runs, memory, oracle=True)
    bk, bp, bs, bio, brep = drive(runs, memory)
    np.testing.assert_array_equal(hk, bk)
    np.testing.assert_array_equal(hp, bp)
    assert hs == bs
    assert hrep == brep
    assert hio == bio


def test_blockwise_is_correct_and_stable():
    """The merged stream equals a stable argsort of the concatenation."""
    runs = make_sorted_runs(500, [100, 0, 250, 1, 80], alphabet=3, seed=5)
    all_keys = np.concatenate([k for k, _ in runs])
    all_payloads = np.concatenate([p for _, p in runs])
    keys, payloads, _, _, report = drive(runs, 12 * 32)
    assert report.spilled
    order = np.argsort(all_keys, kind="stable")
    np.testing.assert_array_equal(keys, all_keys[order])
    np.testing.assert_array_equal(payloads, all_payloads[order])


def test_all_equal_keys_resolve_by_run_order():
    """Every key identical: output payloads must follow run order."""
    runs = [
        (np.full(60, b"x", dtype="S1"), np.arange(60, dtype=np.int64) + 100 * i)
        for i in range(5)
    ]
    keys, payloads, _, _, _ = drive(runs, 8 * 16)
    want = np.concatenate([p for _, p in runs])
    np.testing.assert_array_equal(payloads, want)
    hk, hp, *_ = drive(runs, 8 * 16, oracle=True)
    np.testing.assert_array_equal(payloads, hp)


def test_unknown_engine_rejected():
    """The knob is gone: there is one merge, so naming one is an error."""
    for engine in ("bubble", "blockwise", "heapq"):
        with pytest.raises(TypeError):
            ExternalSorter(SimulatedDisk(), 1024, merge_engine=engine)


def test_merge_pair_matrix_payloads():
    """Regression: merge_pair must preserve trailing payload dims."""
    rng = np.random.default_rng(1)
    left_keys = np.sort(rng.integers(0, 9, 20).astype("S2"))
    right_keys = np.sort(rng.integers(0, 9, 30).astype("S2"))
    left_pay = rng.standard_normal((20, 8)).astype(np.float32)
    right_pay = rng.standard_normal((30, 8)).astype(np.float32)
    keys, payloads = merge_pair((left_keys, left_pay), (right_keys, right_pay))
    assert payloads.shape == (50, 8)
    order = np.argsort(np.concatenate([left_keys, right_keys]), kind="stable")
    np.testing.assert_array_equal(
        payloads, np.concatenate([left_pay, right_pay])[order]
    )


# ------------------------------------------------------------ loser tree
def test_loser_tree_tracks_minimum():
    tree = LoserTree([b"d", b"b", None, b"b", b"a"])
    assert tree.winner == 4
    tree.update(4, None)
    assert tree.winner == 1  # ties (b, 1) vs (b, 3) break by index
    tree.update(1, b"z")
    assert tree.winner == 3
    tree.update(3, None)
    assert tree.winner == 0  # d < z
    tree.update(0, None)
    tree.update(1, None)
    assert tree.key(tree.winner) is None  # only exhausted runs remain


def test_loser_tree_single_run():
    tree = LoserTree([b"k"])
    assert tree.winner == 0 and tree.key(0) == b"k"
    tree.update(0, None)
    assert tree.key(tree.winner) is None


# ------------------------------------------------------- parallel merge
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    n_runs=st.integers(min_value=1, max_value=12),
    alphabet=st.sampled_from([2, 8, 256]),
    workers=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(["serial", "thread"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_parallel_merge_bit_identical(
    n, n_runs, alphabet, workers, kind, seed
):
    """Range-partitioned merge equals the serial merge for any pool."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max(1, 2 * n // n_runs + 1), size=n_runs)
    runs = make_sorted_runs(n, sizes.tolist(), alphabet=alphabet, seed=seed)
    nonempty = [run for run in runs if len(run[0])]
    if not nonempty:
        return
    want_keys, want_payloads = merge_presorted(list(nonempty))
    got_keys, got_payloads = parallel_merge_runs(runs, workers=workers, kind=kind)
    np.testing.assert_array_equal(got_keys, want_keys)
    np.testing.assert_array_equal(got_payloads, want_payloads)


def test_parallel_merge_process_pool():
    """The process pool is gone: its kinds are rejected, not forgotten."""
    runs = make_sorted_runs(400, [97, 150, 3, 150], seed=9)
    for kind in ("process", "auto"):
        with pytest.raises(ValueError):
            parallel_merge_runs(runs, workers=2, kind=kind)
    # The default pool (threads) merges to the serial stream.
    want = merge_presorted(list(runs))
    got = parallel_merge_runs(runs, workers=2)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_parallel_merge_rejects_bad_input():
    with pytest.raises(ValueError):
        parallel_merge_runs([], workers=2)
    with pytest.raises(ValueError):
        parallel_merge_runs(
            [(np.array([b"a"], dtype="S1"), np.arange(2))], workers=2
        )
    with pytest.raises(ValueError):
        parallel_merge_runs(
            [(np.array([b"a"], dtype="S1"), np.arange(1))], kind="gpu"
        )


def test_sample_splitters_are_ascending_and_bounded():
    runs = make_sorted_runs(600, [200, 200, 200], alphabet=16, seed=2)
    splitters = sample_splitters([k for k, _ in runs], 8)
    assert len(splitters) <= 7
    assert np.all(splitters[:-1] < splitters[1:])
    # Degenerate key space: fewer (or no) usable splitters, never a crash.
    flat = [np.full(50, b"s", dtype="S1")]
    assert len(sample_splitters(flat, 4)) <= 1


def test_sorter_merge_workers_bit_identical_spilled_and_resident():
    """Worker counts never change the stream; I/O follows the plan.

    The resident merge performs no I/O, so its stats equal the serial
    sorter's.  The spilled cascade with ``merge_workers > 1`` runs the
    *sharded* plan — its stream, chunk shapes and SortReport stay
    bit-identical to the serial sorter, while its DiskStats are pinned
    to the serial replay of the same sharded plan
    (``pool_kind="serial"``); see tests/test_sharded_storage.py for the
    property-style version.
    """
    runs = make_sorted_runs(900, [220, 180, 300, 200], alphabet=32, seed=4)
    for memory in (12 * 2000, 12 * 40):  # resident merge, spilled merge
        base = drive(runs, memory, workers=1)
        multi = drive(runs, memory, workers=4)
        np.testing.assert_array_equal(base[0], multi[0])
        np.testing.assert_array_equal(base[1], multi[1])
        assert base[2] == multi[2] and base[4] == multi[4]
        if not base[4].spilled:
            assert base[3] == multi[3]
        else:
            replay = drive(runs, memory, workers=4, pool_kind="serial")
            assert multi[3] == replay[3]


# ----------------------------------------------- index-level equivalence
CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(600, length=32, seed=11)


@pytest.mark.parametrize("materialized", [False, True])
def test_tree_build_identical_across_engines(materialized):
    """A spilled CoconutTree build is byte-identical with the heap
    oracle patched in for the sorter's merge."""

    memory_bytes = 24 * 1024 if materialized else 4 * 1024

    def build():
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile.create(disk, DATA)
        index = CoconutTree(
            disk, memory_bytes=memory_bytes, config=CONFIG, leaf_size=40,
            materialized=materialized,
        )
        report = index.build(raw)
        assert report.extra["sort_runs"] > 1
        return index, disk

    with heapq_oracle():
        oracle, disk_o = build()
    engine, disk_e = build()
    assert len(oracle._leaves) == len(engine._leaves)
    for leaf_o, leaf_e in zip(oracle._leaves, engine._leaves):
        assert (leaf_o.slot, leaf_o.count, leaf_o.first_key) == (
            leaf_e.slot, leaf_e.count, leaf_e.first_key,
        )
        records_o = oracle._read_leaf_records(leaf_o)
        records_e = engine._read_leaf_records(leaf_e)
        assert records_o.tobytes() == records_e.tobytes()
    assert disk_o.stats == disk_e.stats


# --------------------------------------------------- LSM compaction
def build_lsm(**kwargs):
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:200])
    lsm = CoconutLSM(
        disk, memory_bytes=4096, config=CONFIG, size_ratio=2, **kwargs
    )
    lsm.build(raw)
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=100 + i))
    return disk, lsm


def test_lsm_compaction_identical_across_engines_and_workers():
    """Vectorized, sharded-parallel and argsort-oracle compaction agree.

    Every merge produces the same runs (levels, keys, offsets — and
    the same on-disk run bytes).  DiskStats: the serial compaction
    matches itself with the argsort oracle patched in for its merge,
    and the sharded plan (``workers > 1``) matches its serial replay
    (``pool_kind="serial"``) bit for bit.
    """
    disk_serial, serial = build_lsm()
    disk_parallel, parallel = build_lsm(workers=3, pool_kind="thread")
    disk_replay, replay = build_lsm(workers=3, pool_kind="serial")
    with mock.patch("repro.core.lsm.merge_presorted", argsort_merge):
        disk_oracle, oracle = build_lsm()
    # Snapshot before the file-byte comparisons below add reads.
    stats_serial, stats_parallel = disk_serial.snapshot(), disk_parallel.snapshot()
    stats_replay, stats_oracle = disk_replay.snapshot(), disk_oracle.snapshot()
    assert serial.n_merges == parallel.n_merges == oracle.n_merges
    assert serial.n_merges > 0
    assert len(serial._runs) == len(parallel._runs) == len(oracle._runs)
    for run_s, run_p, run_o in zip(serial._runs, parallel._runs, oracle._runs):
        assert run_s.level == run_p.level == run_o.level
        for other in (run_p, run_o):
            np.testing.assert_array_equal(run_s.keys, other.keys)
            np.testing.assert_array_equal(run_s.offsets, other.offsets)
        assert run_s.file.read_stream(0, run_s.file.n_pages) == (
            run_p.file.read_stream(0, run_p.file.n_pages)
        )
    assert stats_serial == stats_oracle
    assert stats_parallel == stats_replay


def test_lsm_rejects_unknown_merge_engine():
    """The knob is gone here too (constructor and ``recover``)."""
    for engine in ("bubble", "vectorized", "argsort"):
        with pytest.raises(TypeError):
            CoconutLSM(SimulatedDisk(), 4096, merge_engine=engine)


def test_lsm_queries_unchanged_by_parallel_compaction():
    _, serial = build_lsm()
    _, parallel = build_lsm(workers=4, pool_kind="thread")
    for seed in range(5):
        query = random_walk(1, length=32, seed=500 + seed)[0]
        result_s = serial.exact_search(query)
        result_p = parallel.exact_search(query)
        assert result_s.answer_idx == result_p.answer_idx
        assert result_s.distance == pytest.approx(result_p.distance)
