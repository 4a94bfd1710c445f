"""Tests for Coconut-Trie (Algorithm 2): prefix-split bulk loading."""

import numpy as np
import pytest

from repro.core import CoconutTree, CoconutTrie, key_bytes
from repro.series import euclidean, euclidean_batch, random_walk
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)


def build_trie(n=400, materialized=False, leaf_size=32, seed=0):
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(n, length=64, seed=seed)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTrie(
        disk,
        memory_bytes=1 << 20,
        config=CONFIG,
        leaf_size=leaf_size,
        materialized=materialized,
    )
    report = index.build(raw)
    return disk, index, data, report


def test_build_covers_all_series():
    _, index, _, _ = build_trie(n=333)
    total = sum(leaf.count for leaf in index._leaves)
    assert total == 333
    seen = set()
    for leaf in index._leaves:
        seen.update(int(o) for o in index._read_leaf_records(leaf)["off"])
    assert seen == set(range(333))


def test_leaves_respect_leaf_size():
    _, index, _, _ = build_trie(n=500, leaf_size=24)
    for leaf in index._leaves:
        assert leaf.count <= 24


def test_leaves_are_prefix_aligned_regions():
    """Each leaf's records must share the leaf's key bit-prefix."""
    _, index, _, _ = build_trie(n=300)
    for leaf in index._leaves:
        records = index._read_leaf_records(leaf)
        bits = leaf.prefix_bits
        if bits == 0:
            continue
        first = int.from_bytes(key_bytes(records["k"][0], CONFIG), "big")
        shift = CONFIG.key_bits - bits
        for key in records["k"]:
            value = int.from_bytes(key_bytes(key, CONFIG), "big")
            assert value >> shift == first >> shift


def test_leaf_file_contiguous():
    _, index, _, _ = build_trie()
    assert index._leaf_file.n_extents == 1


def test_prefix_split_fill_factor_below_median_split():
    """Sec. 3.2: prefix splitting underfills leaves vs median splitting."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(800, length=64, seed=1)
    raw = RawSeriesFile.create(disk, data)
    trie = CoconutTrie(disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=32)
    trie.build(raw)
    tree = CoconutTree(disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=32)
    tree.build(raw)
    _, trie_fill = trie.leaf_stats()
    _, tree_fill = tree.leaf_stats()
    assert tree_fill > trie_fill
    assert trie.leaf_stats()[0] > tree.leaf_stats()[0]


def test_approximate_search_valid():
    _, index, data, _ = build_trie(n=400, seed=2)
    query = random_walk(1, length=64, seed=50)[0]
    result = index.approximate_search(query)
    assert 0 <= result.answer_idx < 400
    assert result.distance == pytest.approx(
        euclidean(query.astype(np.float64), data[result.answer_idx])
    )


@pytest.mark.parametrize("materialized", [False, True])
def test_exact_search_matches_brute_force(materialized):
    _, index, data, _ = build_trie(n=300, materialized=materialized, seed=3)
    queries = random_walk(12, length=64, seed=60)
    for query in queries:
        result = index.exact_search(query)
        distances = euclidean_batch(query.astype(np.float64), data.astype(np.float64))
        assert result.distance == pytest.approx(float(distances.min()), rel=1e-6)


def test_exact_search_prunes():
    _, index, _, _ = build_trie(n=900, seed=4)
    query = random_walk(1, length=64, seed=70)[0]
    result = index.exact_search(query)
    assert result.pruned_fraction > 0.0


def test_duplicate_words_overflow_leaf_allowed():
    """Identical summaries cannot be prefix-split: one fat leaf."""
    disk = SimulatedDisk(page_size=2048)
    base = random_walk(1, length=64, seed=5)[0]
    data = np.tile(base, (50, 1)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTrie(disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=8)
    index.build(raw)
    counts = sorted(leaf.count for leaf in index._leaves)
    assert counts[-1] == 50  # all in one exhausted-prefix leaf


def test_depth_and_internal_node_stats():
    _, index, _, report = build_trie(n=600, leaf_size=16)
    assert report.extra["internal_nodes"] == index.n_internal_nodes > 0
    assert 0 < report.extra["max_depth"] <= CONFIG.key_bits


def test_build_report_fill_factor_consistency():
    _, index, _, report = build_trie(n=500)
    n_leaves, fill = index.leaf_stats()
    assert report.n_leaves == n_leaves
    assert report.avg_leaf_fill == pytest.approx(fill)


@pytest.mark.parametrize("materialized", [False, True])
def test_summary_column_mirrors_the_leaf_file(materialized):
    """Row ``i`` of the column is the ``i``-th record on disk (PAPER.md's
    fourth invariant), and the sidecar holds exactly those rows."""
    from repro.core import deinterleave_keys
    from repro.core.summary_column import pack_rows

    _, index, _, _ = build_trie(n=333, materialized=materialized, leaf_size=16)
    records = [index._read_leaf_records(leaf) for leaf in index._leaves]
    keys = np.concatenate([r["k"] for r in records])
    offsets = np.concatenate([r["off"] for r in records])
    assert len(keys) == 333 and np.all(keys[:-1] <= keys[1:])
    column = index._column
    np.testing.assert_array_equal(column.keys, keys)
    np.testing.assert_array_equal(column.offsets, offsets)
    np.testing.assert_array_equal(column.words, deinterleave_keys(keys, CONFIG))
    np.testing.assert_array_equal(
        index._leaf_starts, [leaf.position for leaf in index._leaves] + [333]
    )
    rows = pack_rows(keys, offsets, CONFIG)
    sidecar = index._sidecar
    assert bytes(sidecar.read_stream(0, sidecar.n_pages))[: len(rows)] == rows
    assert sidecar.n_pages == -(-len(rows) // 2048)
