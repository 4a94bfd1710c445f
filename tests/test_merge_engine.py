"""Equivalence tests for the vectorized merges.

The merge contract is strict: for any input order, key distribution
(duplicate-heavy included) and memory budget, the blockwise
``merge_stream`` and the resident ``merge_presorted`` produce
*byte-identical* output streams — same records, same chunk shapes —
and, for the merges that touch disk, an identical simulated I/O trace
(every sequential/random counter) and identical ``SortReport``.  The oracles these properties pin everything to are
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


def drive(runs, memory_bytes, page_size=256, oracle=False):
    """Sort the concatenation of ``runs`` (spilling memory-sized runs of
    it when it exceeds ``memory_bytes``): stream, shapes, I/O, report."""
    disk = SimulatedDisk(page_size=page_size)
    sorter = ExternalSorter(disk, memory_bytes)
    keys = np.concatenate([k for k, _ in runs])
    payloads = np.concatenate([p for _, p in runs])
    with heapq_oracle() if oracle else nullcontext():
        parts = list(sorter.sort(keys, payloads))
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
    empty input, short trailing runs, in-memory and spilled merges, and
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
def build_lsm():
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:200])
    lsm = CoconutLSM(disk, memory_bytes=4096, config=CONFIG, size_ratio=2)
    lsm.build(raw)
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=100 + i))
    return disk, lsm


def test_lsm_compaction_identical_to_argsort_oracle():
    """The compaction merge agrees with the argsort oracle patched in.

    Every merge produces the same runs (levels, keys, offsets — and
    the same on-disk run bytes) and the same DiskStats.
    """
    disk_serial, serial = build_lsm()
    with mock.patch("repro.core.lsm.merge_presorted", argsort_merge):
        disk_oracle, oracle = build_lsm()
    # Snapshot before the file-byte comparisons below add reads.
    stats_serial, stats_oracle = disk_serial.snapshot(), disk_oracle.snapshot()
    assert serial.n_merges == oracle.n_merges > 0
    assert len(serial._runs) == len(oracle._runs)
    for run_s, run_o in zip(serial._runs, oracle._runs):
        assert run_s.level == run_o.level
        np.testing.assert_array_equal(run_s.keys, run_o.keys)
        np.testing.assert_array_equal(run_s.offsets, run_o.offsets)
        assert run_s.file.read_stream(0, run_s.file.n_pages) == (
            run_o.file.read_stream(0, run_o.file.n_pages)
        )
    assert stats_serial == stats_oracle


def test_lsm_rejects_unknown_merge_engine():
    """The knob is gone here too (constructor and ``recover``)."""
    for engine in ("bubble", "vectorized", "argsort"):
        with pytest.raises(TypeError):
            CoconutLSM(SimulatedDisk(), 4096, merge_engine=engine)
