"""Tests for DTW-compatible search (the paper's noted extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CoconutLSM,
    CoconutTree,
    CoconutTrie,
    dtw_exact_search,
    dtw_mindist_to_words,
    query_envelope,
)
from repro.core.dtw_search import envelope_segment_bounds
from repro.series import dtw, random_walk, z_normalize
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig, sax_words, symbol_bounds

CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)
WINDOW = 4


def build_index(n=200, seed=0, materialized=False):
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(n, length=64, seed=seed)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(
        disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=32,
        materialized=materialized,
    )
    index.build(raw)
    return index, data


def brute_force_dtw(query, data, window):
    distances = [dtw(query, row.astype(np.float64), window=window) for row in data]
    best = int(np.argmin(distances))
    return best, float(distances[best])


def test_envelope_brackets_query():
    query = random_walk(1, length=64, seed=0)[0].astype(np.float64)
    upper, lower = query_envelope(query, WINDOW)
    assert np.all(upper >= query)
    assert np.all(lower <= query)


def test_envelope_widens_with_window():
    query = random_walk(1, length=64, seed=1)[0].astype(np.float64)
    u1, l1 = query_envelope(query, 2)
    u2, l2 = query_envelope(query, 8)
    assert np.all(u2 >= u1)
    assert np.all(l2 <= l1)


def test_envelope_zero_window_is_query():
    query = random_walk(1, length=64, seed=2)[0].astype(np.float64)
    upper, lower = query_envelope(query, 0)
    np.testing.assert_allclose(upper, query)
    np.testing.assert_allclose(lower, query)


def test_envelope_negative_window_rejected():
    with pytest.raises(ValueError):
        query_envelope(np.zeros(8), -1)


def test_segment_bounds_cover_envelope():
    query = random_walk(1, length=64, seed=3)[0].astype(np.float64)
    upper, lower = query_envelope(query, WINDOW)
    u_max, l_min = envelope_segment_bounds(upper, lower, CONFIG)
    assert len(u_max) == CONFIG.word_length
    assert np.all(u_max >= l_min)


def test_dtw_mindist_lower_bounds_dtw():
    data = random_walk(60, length=64, seed=4)
    query = random_walk(1, length=64, seed=5)[0].astype(np.float64)
    upper, lower = query_envelope(query, WINDOW)
    words = sax_words(data, CONFIG)
    bounds = dtw_mindist_to_words(upper, lower, words, CONFIG)
    for i in range(60):
        true = dtw(query, data[i].astype(np.float64), window=WINDOW)
        assert bounds[i] <= true + 1e-6


@pytest.mark.parametrize("materialized", [False, True])
def test_dtw_exact_search_matches_brute_force(materialized):
    index, data = build_index(n=150, seed=6, materialized=materialized)
    for seed in (40, 41, 42):
        query = random_walk(1, length=64, seed=seed)[0].astype(np.float64)
        result = dtw_exact_search(index, query, window=WINDOW)
        _, want = brute_force_dtw(query, data, WINDOW)
        assert result.distance == pytest.approx(want, rel=1e-6)


def _tree(disk, materialized):
    return CoconutTree(
        disk, 1 << 20, config=CONFIG, leaf_size=32, materialized=materialized
    )


def _trie(disk, materialized):
    return CoconutTrie(
        disk, 1 << 20, config=CONFIG, leaf_size=32, materialized=materialized
    )


VARIANTS = {
    "tree": lambda disk: _tree(disk, False),
    "tree-full": lambda disk: _tree(disk, True),
    "trie": lambda disk: _trie(disk, False),
    "trie-full": lambda disk: _trie(disk, True),
    "lsm": lambda disk: CoconutLSM(disk, 1 << 10, config=CONFIG, size_ratio=2),
}


@pytest.mark.parametrize("window", [0, WINDOW])
@pytest.mark.parametrize("variant", VARIANTS)
def test_dtw_exact_search_on_every_variant(variant, window):
    """One entry point for all five: it asks the index for ``(words,
    fetch)`` and nothing else, so the LSM (runs + a live memtable)
    answers like the leaf-based indexes — and an empty index says -1."""
    data = random_walk(170, length=64, seed=11)
    disk = SimulatedDisk(page_size=2048)
    index = VARIANTS[variant](disk)
    if variant == "lsm":
        index.build(RawSeriesFile.create(disk, data[:100]))
        for lo in range(100, 170, 10):
            index.insert_batch(data[lo : lo + 10])
        assert index.n_runs >= 2 and index._mem_records
    else:
        index.build(RawSeriesFile.create(disk, data))
    for seed in (43, 44):
        query = random_walk(1, length=64, seed=seed)[0].astype(np.float64)
        result = dtw_exact_search(index, query, window=window)
        want_idx, want = brute_force_dtw(query, data, window)
        assert result.distance == pytest.approx(want, rel=1e-6)
        assert result.answer_idx == want_idx

    empty_disk = SimulatedDisk(page_size=2048)
    empty = VARIANTS[variant](empty_disk)
    empty.build(RawSeriesFile.create(empty_disk, data[:0]))
    result = dtw_exact_search(empty, query, window=window)
    assert (result.answer_idx, result.distance) == (-1, float("inf"))
    assert result.visited_records == 0


def test_dtw_search_finds_shifted_copy():
    """The point of DTW: a time-shifted copy should be the match."""
    disk = SimulatedDisk(page_size=2048)
    base = random_walk(80, length=64, seed=7)
    shifted = z_normalize(np.roll(base[13].astype(np.float64), 3))
    data = np.vstack([base, shifted[None, :]]).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=32)
    index.build(raw)
    query = z_normalize(base[13].astype(np.float64))
    result = dtw_exact_search(index, query, window=8)
    # The best DTW match is either the series itself or its shift.
    assert result.answer_idx in (13, 80)
    assert result.distance < 1.0


def test_dtw_search_refines_fewer_than_visited():
    index, _ = build_index(n=400, seed=8)
    query = random_walk(1, length=64, seed=9)[0].astype(np.float64)
    result = dtw_exact_search(index, query, window=WINDOW)
    assert result.refined_records <= result.visited_records
    assert result.pruned_fraction >= 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), window=st.sampled_from([1, 3, 6]))
def test_property_region_bound_below_dtw(seed, window):
    """The SAX-region DTW bound must never exceed true DTW."""
    rng = np.random.default_rng(seed)
    data = z_normalize(rng.standard_normal((6, 64)))
    query = z_normalize(rng.standard_normal(64))
    upper, lower = query_envelope(query.astype(np.float64), window)
    words = sax_words(data, CONFIG)
    bounds = dtw_mindist_to_words(upper, lower, words, CONFIG)
    for i in range(6):
        true = dtw(query.astype(np.float64), data[i].astype(np.float64),
                   window=window)
        assert bounds[i] <= true + 1e-6


def reference_dtw_mindist_to_words(upper, lower, words, config):
    """Every (record, segment) cell evaluated from scratch: the body
    ``dtw_mindist_to_words`` had before it gathered from a table."""
    u_max, l_min = envelope_segment_bounds(upper, lower, config)
    region_lo, region_hi = symbol_bounds(np.atleast_2d(words), config.cardinality)
    above = np.where(region_lo > u_max[None, :], region_lo - u_max[None, :], 0.0)
    below = np.where(region_hi < l_min[None, :], l_min[None, :] - region_hi, 0.0)
    gap = above + below
    return np.sqrt(config.segment_size * np.sum(gap * gap, axis=1))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    word_length=st.integers(1, 24),
    bits=st.integers(1, 10),
    n_words=st.sampled_from([0, 1, 37, 2000]),
    window=st.sampled_from([0, 2, 9]),
)
def test_property_dtw_table_bound_is_byte_identical_to_the_per_cell_reference(
    seed, word_length, bits, n_words, window
):
    from repro.core.summary_column import WordColumn

    cardinality = 1 << bits
    config = SAXConfig(
        series_length=3 * word_length + seed % 3, word_length=word_length,
        cardinality=cardinality,
    )
    rng = np.random.default_rng(seed)
    dtype = np.uint8 if cardinality <= 256 and seed % 2 else np.uint16
    words = rng.integers(0, cardinality, size=(n_words, word_length)).astype(dtype)
    query = rng.standard_normal(config.series_length) * rng.choice([0.1, 1.0, 50.0])
    upper, lower = query_envelope(query, window)
    want = reference_dtw_mindist_to_words(upper, lower, words, config)
    got = dtw_mindist_to_words(upper, lower, words, config)
    assert got.shape == (n_words,)
    assert got.tobytes() == want.tobytes()
    column = WordColumn(config, words)
    assert column.dtw_lower_bounds(upper, lower).tobytes() == want.tobytes()
    # The Euclidean and DTW scans of one column share one cell index.
    cells = column._cell_index()
    column.lower_bounds(np.zeros(word_length))
    assert column._cell_index() is cells


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_refused_dtw_query_reads_nothing(variant):
    """The query (length, NaN / inf) and the window are checked before
    the summary column is loaded: each refusal leaves ``DiskStats`` as
    a fresh index had them, and a valid query then loads and reads."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(200, length=64, seed=12)
    index = VARIANTS[variant](disk)
    index.build(RawSeriesFile.create(disk, data))
    query = random_walk(1, length=64, seed=13)[0].astype(np.float64)
    poisoned = query.copy()
    poisoned[5] = np.nan
    before = disk.snapshot()
    for bad_query, window in [
        (query[:63], WINDOW),
        (poisoned, WINDOW),
        (np.full(64, np.inf), WINDOW),
        (query, -1),
        (query, 2.5),
        (query, True),
    ]:
        with pytest.raises(ValueError):
            dtw_exact_search(index, bad_query, window=window)
        assert disk.snapshot() == before
    dtw_exact_search(index, query, window=WINDOW)
    assert disk.snapshot() != before


TIE_CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=256)
TIE_VARIANTS = {
    "tree": lambda disk: CoconutTree(disk, 1 << 20, config=TIE_CONFIG, leaf_size=16),
    "tree-full": lambda disk: CoconutTree(
        disk, 1 << 20, config=TIE_CONFIG, leaf_size=16, materialized=True
    ),
    "trie": lambda disk: CoconutTrie(disk, 1 << 20, config=TIE_CONFIG, leaf_size=16),
    "lsm": lambda disk: CoconutLSM(disk, 1 << 12, config=TIE_CONFIG),
}


def _tying_walks():
    """Rows that tie under DTW: all copies of one walk, or 300 walks in
    which rows 5-14 and 200-209 copy row 5; the query is that row."""
    walks = random_walk(300, length=48, seed=8)
    duplicated = walks.copy()
    duplicated[5:15] = walks[5]
    duplicated[200:210] = walks[5]
    return {
        "identical": (np.tile(walks[0], (40, 1)), walks[0]),
        "duplicates": (duplicated, walks[5]),
    }


@pytest.mark.parametrize("dataset", ["identical", "duplicates"])
@pytest.mark.parametrize("variant", TIE_VARIANTS)
def test_dtw_ties_name_brute_forces_smallest_id(variant, dataset):
    """Among series at the best DTW distance the answer is the smallest
    id, as brute force and ``exact_search`` name it: a bound that ties
    the best-so-far is still fetched, and a tie goes to the smaller id,
    whichever row the probe seeded with or the walk met first."""
    rows, query = _tying_walks()[dataset]
    disk = SimulatedDisk(page_size=2048)
    index = TIE_VARIANTS[variant](disk)
    index.build(RawSeriesFile.create(disk, rows))
    query = np.asarray(query, dtype=np.float64)
    want_idx, want = brute_force_dtw(query, rows, WINDOW)
    result = dtw_exact_search(index, query, window=WINDOW)
    assert (result.answer_idx, result.distance) == (want_idx, want) == (
        index.exact_search(query).answer_idx, 0.0
    )
