"""Tests for the parallel build pipeline (repro.parallel.summarize).

The load-bearing property: the chunked multi-worker pipeline is
*invisible* in the output.  For any chunk size, worker count and pool
kind — including degenerate shapes like n < workers and empty input —
keys are byte-identical to the serial path, the merged sorted order is
identical, and a parallel bulk-load produces a bit-identical leaf
level (same keys, same leaf boundaries, same payloads).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CoconutTree,
    ParallelSummarizer,
    RawSeriesFile,
    SimulatedDisk,
    invsax_keys,
    parallel_invsax_keys,
    random_walk,
)
from repro.core import CoconutTrie
from repro.parallel import summarize_presorted_runs
from repro.storage import ExternalSorter, sort_to_arrays
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(600, length=32, seed=11)


# ---------------------------------------------------------- summarize
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=200),
    chunk_size=st.integers(min_value=1, max_value=300),
    workers=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(["serial", "thread"]),
)
def test_property_parallel_keys_byte_identical(n, chunk_size, workers, kind):
    """Any chunking/worker count: keys byte-identical to the serial path."""
    data = DATA[:n]
    keys = parallel_invsax_keys(
        data, CONFIG, workers=workers, chunk_size=chunk_size, kind=kind
    )
    expected = (
        invsax_keys(data, CONFIG)
        if n
        else np.empty(0, dtype=CONFIG.key_dtype)
    )
    np.testing.assert_array_equal(keys, expected)
    assert keys.dtype == CONFIG.key_dtype


def test_parallel_keys_process_pool():
    """The process pool is gone: its kinds are rejected, not forgotten."""
    for kind in ("process", "auto"):
        with pytest.raises(ValueError):
            parallel_invsax_keys(DATA, CONFIG, workers=2, chunk_size=100, kind=kind)
    # The default pool (threads) agrees with the serial path.
    keys = parallel_invsax_keys(DATA, CONFIG, workers=2, chunk_size=100)
    np.testing.assert_array_equal(keys, invsax_keys(DATA, CONFIG))


def test_fewer_series_than_workers():
    keys = parallel_invsax_keys(
        DATA[:3], CONFIG, workers=8, chunk_size=1, kind="thread"
    )
    np.testing.assert_array_equal(keys, invsax_keys(DATA[:3], CONFIG))


def test_empty_input():
    keys = parallel_invsax_keys(DATA[:0], CONFIG, workers=4, kind="thread")
    assert keys.shape == (0,)
    assert keys.dtype == CONFIG.key_dtype


def test_summarizer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ParallelSummarizer(CONFIG, kind="gpu")
    with pytest.raises(ValueError):
        ParallelSummarizer(CONFIG, chunk_size=-1)


def test_workers_zero_means_all_cores():
    pool = ParallelSummarizer(CONFIG, workers=0)
    assert pool.workers >= 1


# ------------------------------------------------------- sorted runs
@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=250),
    chunk_size=st.integers(min_value=1, max_value=300),
    memory_records=st.integers(min_value=2, max_value=512),
)
def test_property_presorted_runs_match_serial_sort(n, chunk_size, memory_records):
    """summarize runs + sort_runs == summarize + sort, record for record."""
    data = DATA[:n]
    disk_a = SimulatedDisk(page_size=512)
    raw_a = RawSeriesFile.create(disk_a, data) if n else None
    disk_b = SimulatedDisk(page_size=512)
    memory = 24 * memory_records

    serial_keys = invsax_keys(data, CONFIG)
    offsets = np.arange(n, dtype=np.int64)
    pay = np.zeros(n, dtype=np.dtype([("off", "<i8")]))
    pay["off"] = offsets
    want_keys, want_pay = sort_to_arrays(
        ExternalSorter(disk_b, memory), serial_keys, pay
    )

    if n:
        runs = summarize_presorted_runs(
            raw_a, CONFIG, materialized=False,
            workers=3, chunk_size=chunk_size, kind="thread",
        )
    else:
        runs = []
    sorter = ExternalSorter(SimulatedDisk(page_size=512), memory)
    got_parts = list(sorter.sort_runs(runs))
    if got_parts:
        got_keys = np.concatenate([k for k, _ in got_parts])
        got_pay = np.concatenate([p for _, p in got_parts])
        np.testing.assert_array_equal(got_keys, want_keys)
        np.testing.assert_array_equal(got_pay["off"], want_pay["off"])
    else:
        assert n == 0


# ------------------------------------------------- bit-identical load
@pytest.mark.parametrize("materialized", [False, True])
def test_parallel_bulk_load_bit_identical_leaves(materialized):
    """workers=4 produces the same leaf level as serial, byte for byte.

    This is the acceptance gate of the parallel pipeline: same keys,
    same leaf boundaries, same payload order, for both the secondary
    and the materialized variant.
    """

    def build(workers):
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile.create(disk, DATA)
        index = CoconutTree(
            disk, memory_bytes=8 * 1024, config=CONFIG, leaf_size=40,
            materialized=materialized, workers=workers, chunk_series=128,
            pool_kind="thread",
        )
        index.build(raw)
        return index

    serial, parallel = build(1), build(4)
    assert len(serial._leaves) == len(parallel._leaves)
    for leaf_s, leaf_p in zip(serial._leaves, parallel._leaves):
        assert leaf_s.slot == leaf_p.slot
        assert leaf_s.count == leaf_p.count
        assert leaf_s.first_key == leaf_p.first_key
        records_s = serial._read_leaf_records(leaf_s)
        records_p = parallel._read_leaf_records(leaf_p)
        assert records_s.tobytes() == records_p.tobytes()


def test_parallel_trie_build_matches_serial():
    """CoconutTrie's parallel build yields the same leaves and answers."""

    def build(workers):
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile.create(disk, DATA)
        index = CoconutTrie(
            disk, memory_bytes=8 * 1024, config=CONFIG, leaf_size=40,
            workers=workers, chunk_series=100, pool_kind="thread",
        )
        index.build(raw)
        return index

    serial, parallel = build(1), build(3)
    assert len(serial._leaves) == len(parallel._leaves)
    for leaf_s, leaf_p in zip(serial._leaves, parallel._leaves):
        assert (leaf_s.first_key, leaf_s.count) == (
            leaf_p.first_key,
            leaf_p.count,
        )
    query = random_walk(1, length=32, seed=77)[0]
    result_s = serial.exact_search(query)
    result_p = parallel.exact_search(query)
    assert result_s.answer_idx == result_p.answer_idx
    assert result_s.distance == pytest.approx(result_p.distance)


def test_parallel_build_empty_raw_file():
    disk = SimulatedDisk()
    raw = RawSeriesFile(disk, length=32)
    index = CoconutTree(
        disk, memory_bytes=4096, config=CONFIG, workers=4, pool_kind="thread"
    )
    report = index.build(raw)
    assert report.n_series == 0
    assert index.leaf_stats() == (0, 0.0)


# ------------------------------------------- batched approximate search
@pytest.mark.parametrize("cls", [CoconutTree, CoconutTrie])
@pytest.mark.parametrize("materialized", [False, True])
def test_batched_approximate_matches_per_query(cls, materialized):
    """Leaf-sharing approximate batches answer exactly like the loop.

    Same answer index, distance, visited counts per query — only the
    I/O shrinks, because each distinct leaf is read once per batch.
    """
    from repro.indexes import QueryBatch

    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA)
    index = cls(
        disk, memory_bytes=8 * 1024, config=CONFIG, leaf_size=40,
        materialized=materialized,
    )
    index.build(raw)
    queries = random_walk(25, length=32, seed=3)
    per_query = [index.approximate_search(query) for query in queries]
    per_query_io = sum(result.io.total_ios for result in per_query)
    report = index.query_batch(QueryBatch(queries=queries, mode="approximate"))
    assert len(report) == len(queries)
    for result, batched in zip(per_query, report.results):
        assert result.answer_idx == batched.answer_idx
        assert result.distance == pytest.approx(batched.distance, abs=1e-12)
        assert result.visited_records == batched.visited_records
        assert result.visited_leaves == batched.visited_leaves
    assert report.io.total_ios <= per_query_io
    # With 25 queries over a handful of leaves, sharing must show up.
    assert report.io.total_ios < per_query_io


def test_batched_approximate_single_query_and_knn_ids():
    from repro.indexes import QueryBatch

    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA)
    index = CoconutTree(disk, memory_bytes=8 * 1024, config=CONFIG, leaf_size=40)
    index.build(raw)
    query = random_walk(1, length=32, seed=9)
    report = index.query_batch(QueryBatch(queries=query, mode="approximate"))
    want = index.approximate_search(query[0])
    assert report.results[0].answer_idx == want.answer_idx
    assert report.knn_ids == [[want.answer_idx]]
    assert report.knn_distances[0][0] == pytest.approx(want.distance)
