"""Tests for Coconut-LSM (the paper's future-work extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoconutLSM, CoconutTree
from repro.series import euclidean_batch, random_walk
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)


def build_lsm(n=300, seed=0, memory=1 << 16, size_ratio=3):
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(n, length=64, seed=seed)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutLSM(
        disk, memory_bytes=memory, config=CONFIG, size_ratio=size_ratio
    )
    index.build(raw)
    return disk, index, data


def brute_force(query, data):
    return float(
        euclidean_batch(query.astype(np.float64), data.astype(np.float64)).min()
    )


def test_bulk_load_creates_single_run():
    _, index, _ = build_lsm(n=200)
    assert index.n_runs == 1


def test_runs_are_sorted():
    _, index, _ = build_lsm(n=200, seed=1)
    for run in index._runs:
        assert np.all(run.keys[:-1] <= run.keys[1:])


def test_exact_search_matches_brute_force_after_build():
    _, index, data = build_lsm(n=250, seed=2)
    for query in random_walk(8, length=64, seed=42):
        result = index.exact_search(query)
        assert result.distance == pytest.approx(brute_force(query, data), rel=1e-6)


def test_inserts_then_exact_search_sees_everything():
    _, index, data = build_lsm(n=128, seed=3, memory=64 * 24 * 2)
    batches = [random_walk(40, length=64, seed=s) for s in (4, 5, 6)]
    for batch in batches:
        index.insert_batch(batch)
    all_data = np.vstack([data] + batches)
    for query in random_walk(6, length=64, seed=43):
        result = index.exact_search(query)
        assert result.distance == pytest.approx(
            brute_force(query, all_data), rel=1e-6
        )


def test_query_on_freshly_inserted_series_finds_it():
    """Memtable contents must be visible before any flush."""
    _, index, _ = build_lsm(n=100, seed=7, memory=1 << 20)
    fresh = random_walk(5, length=64, seed=8)
    index.insert_batch(fresh)
    assert index._mem_records == 5  # still buffered
    result = index.exact_search(fresh[2])
    assert result.distance == pytest.approx(0.0, abs=1e-5)


def test_memtable_flushes_when_full():
    _, index, _ = build_lsm(n=64, seed=9, memory=32 * 24 * 2)
    for s in range(4):
        index.insert_batch(random_walk(20, length=64, seed=10 + s))
    assert index.n_flushes >= 1
    assert index._mem_records < 80


def test_tiering_compaction_bounds_run_count():
    _, index, _ = build_lsm(n=64, seed=11, memory=16 * 24 * 2, size_ratio=2)
    for s in range(12):
        index.insert_batch(random_walk(16, length=64, seed=20 + s))
    # With T=2 compaction, runs grow logarithmically, not linearly.
    assert index.n_merges >= 1
    assert index.n_runs < 12


def test_compaction_io_is_sequential():
    disk, index, _ = build_lsm(n=64, seed=12, memory=16 * 24 * 2, size_ratio=2)
    disk.reset_stats()
    for s in range(8):
        index.insert_batch(random_walk(16, length=64, seed=40 + s))
    stats = disk.stats
    assert stats.sequential_writes > stats.random_writes


def test_small_batch_inserts_cheaper_than_ctree_merges():
    """The future-work hypothesis: LSM absorbs trickles cheaply."""
    def total_insert_cost(index_cls):
        disk = SimulatedDisk(page_size=2048)
        data = random_walk(256, length=64, seed=13)
        raw = RawSeriesFile.create(disk, data)
        if index_cls is CoconutLSM:
            index = CoconutLSM(disk, memory_bytes=1 << 13, config=CONFIG)
        else:
            index = CoconutTree(
                disk, memory_bytes=1 << 13, config=CONFIG, leaf_size=32
            )
        index.build(raw)
        cost = 0.0
        for s in range(10):
            batch = random_walk(16, length=64, seed=50 + s)
            cost += index.insert_batch(batch).simulated_io_ms
        return cost

    assert total_insert_cost(CoconutLSM) < total_insert_cost(CoconutTree)


def test_approximate_search_probes_all_runs():
    _, index, data = build_lsm(n=128, seed=14, memory=32 * 24 * 2)
    for s in range(3):
        index.insert_batch(random_walk(32, length=64, seed=60 + s))
    query = random_walk(1, length=64, seed=70)[0]
    result = index.approximate_search(query)
    assert result.visited_leaves == index.n_runs
    assert result.answer_idx >= 0


def test_batched_approximate_shares_run_probes():
    """Approximate QueryBatch: answers == per-query loop, less I/O.

    The batch charges each probed (run, page window) once, so its
    total I/O never exceeds — and with queries landing in shared
    windows, undercuts — the summed per-query cost.
    """
    from repro.indexes.base import QueryBatch

    disk, index, _ = build_lsm(n=128, seed=16, memory=32 * 24 * 2)
    for s in range(3):
        index.insert_batch(random_walk(32, length=64, seed=90 + s))
    queries = random_walk(12, length=64, seed=91)
    singles = [index.approximate_search(query) for query in queries]
    per_query_ios = sum(result.io.total_ios for result in singles)
    report = index.query_batch(QueryBatch(queries, mode="approximate"))
    assert len(report.results) == len(queries)
    for single, batched in zip(singles, report.results):
        assert batched.answer_idx == single.answer_idx
        assert batched.distance == pytest.approx(single.distance)
        assert batched.visited_records == single.visited_records
        assert batched.visited_leaves == single.visited_leaves
    assert report.io.total_ios <= per_query_ios
    # Several queries share probe windows here: the batch must be
    # strictly cheaper on run reads, not just equal.
    assert report.io.total_ios < per_query_ios


def test_constructor_validation():
    disk = SimulatedDisk()
    with pytest.raises(ValueError):
        CoconutLSM(disk, memory_bytes=1024, size_ratio=1)
    with pytest.raises(ValueError):
        CoconutLSM(disk, memory_bytes=0)
    # ``size_ratio=2.5`` used to tier as 3 in volatile mode and die in
    # ``build()`` with ``struct.error`` under the WAL, pages allocated.
    before = disk.snapshot()
    for durability in (None, "wal"):
        for size_ratio in (2.5, 4.0, "4", True, None, 0, -3):
            with pytest.raises(ValueError, match="size_ratio"):
                CoconutLSM(
                    disk, memory_bytes=1024, size_ratio=size_ratio,
                    durability=durability,
                )
    assert disk.snapshot() == before and disk.pages_allocated == 0
    assert CoconutLSM(disk, 1024, size_ratio=np.int64(3)).size_ratio == 3


def test_storage_accounts_all_runs():
    disk, index, _ = build_lsm(n=128, seed=15, memory=32 * 24 * 2)
    before = index.storage_bytes()
    for s in range(4):
        index.insert_batch(random_walk(32, length=64, seed=80 + s))
    assert index.storage_bytes() >= before


@pytest.mark.parametrize("durability", [None, "wal"])
def test_summary_column_mirrors_runs_then_memtable(durability):
    """Each run file holds the packed rows of its mirrors, and the column
    is the runs in list order followed by the memtable batches."""
    from repro.core import deinterleave_keys
    from repro.core.summary_column import pack_rows

    disk = SimulatedDisk(page_size=2048)
    data = random_walk(500, length=64, seed=17)
    index = CoconutLSM(
        disk, memory_bytes=1 << 11, config=CONFIG, size_ratio=2,
        durability=durability,
    )
    index.build(RawSeriesFile.create(disk, data[:200]))
    for lo in range(200, 480, 20):
        index.insert_batch(data[lo : lo + 20])
    assert index.n_flushes >= 2 and index.n_merges >= 1
    assert index.n_runs >= 2 and index._mem_records
    for run in index._runs:
        rows = pack_rows(run.keys, run.offsets, CONFIG)
        stored = bytes(run.file.read_stream(0, run.data_pages))
        assert stored[: len(rows)] == rows
        assert run.data_pages == -(-len(rows) // 2048)
    keys = np.concatenate([run.keys for run in index._runs] + index._mem_keys)
    offsets = np.concatenate(
        [run.offsets for run in index._runs] + index._mem_offsets
    )
    column = index._summary_column()
    np.testing.assert_array_equal(column.keys, keys)
    np.testing.assert_array_equal(column.offsets, offsets)
    np.testing.assert_array_equal(column.words, deinterleave_keys(keys, CONFIG))
    assert sorted(offsets.tolist()) == list(range(480))
    assert index._prepare_sims()[0] is column


def test_kept_summary_column_tracks_every_insert_flush_and_compaction():
    """The LSM keeps its column (and the cell index scans built on it)
    between calls; after every ``insert_batch`` — plain memtable
    appends, flushes and compactions alike — it must equal a column
    rebuilt from scratch, and answers must equal brute force."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(700, length=64, seed=23)
    queries = random_walk(3, length=64, seed=24).astype(np.float64)
    index = CoconutLSM(disk, memory_bytes=1 << 11, config=CONFIG, size_ratio=2)
    index.build(RawSeriesFile.create(disk, data[:200]))
    n, seen = 200, set()
    kept = index._summary_column()
    for step, lo in enumerate(range(200, 700, 20)):
        flushes, merges = index.n_flushes, index.n_merges
        index.insert_batch(data[lo : lo + 20])
        n += 20
        seen.add((index.n_flushes > flushes, index.n_merges > merges))
        column = index._summary_column()
        assert column is not kept  # every insert changes the state
        assert index._summary_column() is column  # ... and nothing else does
        fresh = index._build_summary_column()
        for name in ("keys", "offsets", "words"):
            np.testing.assert_array_equal(
                getattr(column, name), getattr(fresh, name), err_msg=name
            )
        assert sorted(column.offsets.tolist()) == list(range(n))
        query = queries[step % len(queries)]
        true = euclidean_batch(query, data[:n].astype(np.float64))
        order = np.argsort(true, kind="stable")
        result = index.exact_search(query)
        assert result.answer_idx == order[0]
        outcome = index.exact_knn(query, 4)
        assert list(outcome.answer_ids) == order[:4].tolist()
        # Both scans ran on the kept column's one cell index.
        assert index._summary_column() is column
        assert column._cells is not None
        kept = column
    # Memtable-only inserts, flushes without a merge, and compactions.
    assert seen == {(False, False), (True, False), (True, True)}
    assert index.n_merges >= 2


@pytest.mark.parametrize("durability", [None, "wal"])
def test_zero_row_insert_writes_nothing_and_later_flushes_work(durability):
    """An empty batch used to queue an empty memtable entry (and, under
    the WAL, a frame): every later flush then raised ``IndexError``
    reading that entry's offsets, after the rows had reached the raw
    file."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(400, length=64, seed=31)
    index = CoconutLSM(
        disk, memory_bytes=1 << 11, config=CONFIG, size_ratio=2,
        durability=durability,
    )
    index.build(RawSeriesFile.create(disk, data[:101]))  # partial last page
    for at in range(2):  # empty memtable, then a non-empty one
        before, version = disk.snapshot(), index.state_version
        lsn = index._wal.next_lsn if index._wal is not None else None
        report = index.insert_batch(np.empty((0, 64)))
        assert report.n_series == 0 and disk.snapshot() == before
        assert index.state_version == version
        assert len(index._mem_keys) == at
        assert index._wal is None or index._wal.next_lsn == lsn
        index.insert_batch(data[101 + 10 * at : 111 + 10 * at])
    for lo in range(121, 400, 20):
        index.insert_batch(data[lo : lo + 20])
    assert index.n_flushes and index.n_merges
    assert sorted(index._summary_column().offsets.tolist()) == list(range(400))
    query = data[257].astype(np.float64)
    assert list(index.exact_knn(query, 1).answer_ids) == [257]


#: Rows for the property below: enough for 8 batches of the largest size.
PROPERTY_DATA = random_walk(8 * 130 + 120, length=64, seed=37)


@settings(max_examples=40, deadline=None)
@given(
    n_base=st.integers(min_value=0, max_value=120),
    sizes=st.lists(
        st.sampled_from([0, 1, 20, 84, 85, 86, 130]) | st.integers(0, 130),
        max_size=8,
    ),
    size_ratio=st.integers(min_value=2, max_value=4),
    durability=st.sampled_from([None, "wal"]),
)
def test_property_lsm_state_is_the_stable_sort_of_every_row(
    n_base, sizes, size_ratio, durability
):
    """For any insert sequence (empty and single-row batches, batches
    straddling the 85-record memtable and every compaction boundary):

    * every run is sorted and its data pages hold ``pack_rows`` of its
      mirrors;
    * runs then memtable batches, stably sorted, are the stable argsort
      of every row's key — each (key, offset) pair right, ties in
      offset order;
    * the summary column is the runs, then the memtable batches;
    * under the WAL, ``recover()`` gives back the same runs and
      memtable.
    """
    from repro.core import invsax_keys
    from repro.core.summary_column import pack_rows

    disk = SimulatedDisk(page_size=2048)
    index = CoconutLSM(
        disk, memory_bytes=1 << 11, config=CONFIG, size_ratio=size_ratio,
        durability=durability,
    )
    assert index._buffer_capacity == 85
    index.build(RawSeriesFile.create(disk, PROPERTY_DATA[:n_base]))
    n = n_base
    for size in sizes:
        index.insert_batch(PROPERTY_DATA[n : n + size])
        n += size
    for run in index._runs:
        assert np.all(run.keys[:-1] <= run.keys[1:])
        rows = pack_rows(run.keys, run.offsets, CONFIG)
        assert run.data_pages == -(-len(rows) // 2048)
        assert bytes(run.file.read_stream(0, run.data_pages))[: len(rows)] == rows
    keys = np.concatenate(
        [run.keys for run in index._runs] + index._mem_keys
        + [np.empty(0, dtype=CONFIG.key_dtype)]
    )
    offsets = np.concatenate(
        [run.offsets for run in index._runs] + index._mem_offsets
        + [np.empty(0, dtype=np.int64)]
    )
    all_keys = invsax_keys(PROPERTY_DATA[:n], CONFIG)
    want = np.argsort(all_keys, kind="stable")
    got = np.argsort(keys, kind="stable")
    assert keys[got].tobytes() == all_keys[want].tobytes()
    np.testing.assert_array_equal(offsets[got], want)
    if n:
        column = index._summary_column()
        np.testing.assert_array_equal(column.keys, keys)
        np.testing.assert_array_equal(column.offsets, offsets)
    if durability == "wal":
        recovered = CoconutLSM.recover(disk, index.raw)

        def state(lsm):
            runs = [
                (run.level, run.keys.tobytes(), run.offsets.tobytes())
                for run in lsm._runs
            ]
            memtable = [
                (k.tobytes(), o.tobytes())
                for k, o in zip(lsm._mem_keys, lsm._mem_offsets)
            ]
            return runs, memtable, lsm._mem_records

        assert state(recovered) == state(index)
