"""Tests for SAX symbols, breakpoints and mindist bounds."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.series import (
    euclidean,
    euclidean_batch,
    make_dataset,
    query_workload,
    random_walk,
    z_normalize,
)
from repro.summaries import (
    SAXConfig,
    breakpoints,
    extended_breakpoints,
    mindist_paa_to_words,
    mindist_words,
    paa,
    sax_from_paa,
    sax_words,
    symbol_bounds,
    word_to_text,
)
from repro.summaries import sax
from repro.summaries.sax import TABLE_MIN_VALUES, symbol_table
from oracles import searchsorted_symbols


def test_breakpoints_count_and_monotonicity():
    for cardinality in (2, 4, 8, 256):
        bps = breakpoints(cardinality)
        assert len(bps) == cardinality - 1
        assert np.all(np.diff(bps) > 0)


def test_breakpoints_are_standard_normal_quantiles():
    bps = breakpoints(4)
    np.testing.assert_allclose(bps[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(bps[0], -bps[2], atol=1e-12)


def test_breakpoints_validation():
    with pytest.raises(ValueError):
        breakpoints(3)
    with pytest.raises(ValueError):
        breakpoints(1)


def test_breakpoints_equal_scipy_stats_norm_ppf_bit_for_bit():
    """Every power-of-two table is the bits of ``norm.ppf``: up to 256
    the strides of the committed cardinality-256 table, above it
    ``scipy.special.ndtri`` (the inverse normal CDF ``norm.ppf``
    evaluates)."""
    from scipy.stats import norm

    for bits in range(1, 17):
        cardinality = 1 << bits
        quantiles = np.linspace(0.0, 1.0, cardinality + 1)[1:-1]
        expected = norm.ppf(quantiles)
        assert breakpoints(cardinality).tobytes() == expected.tobytes()


def test_import_repro_leaves_scipy_stats_unloaded():
    """``import repro`` loads no scipy module at all: ``scipy.stats``
    costs about a second to import and ``scipy.special`` a third of
    one, and the breakpoints of every default cardinality are
    committed.  Only a cardinality above 256 imports ``ndtri``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = textwrap.dedent("""
        import sys, repro
        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not scipy_modules(), scipy_modules()
        data = repro.series.random_walk(4, 256, seed=0)
        repro.summaries.sax_words(data, repro.summaries.SAXConfig())
        assert not scipy_modules(), scipy_modules()
    """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_extended_breakpoints_sentinels():
    ext = extended_breakpoints(8)
    assert ext[0] == -np.inf and ext[-1] == np.inf
    assert len(ext) == 9


def test_sax_from_paa_quantization():
    # Cardinality 4: regions split at (-0.6745, 0, 0.6745).
    symbols = sax_from_paa(np.array([-2.0, -0.3, 0.3, 2.0]), 4)
    np.testing.assert_array_equal(symbols, [0, 1, 2, 3])


def test_sax_config_validation():
    with pytest.raises(ValueError):
        SAXConfig(cardinality=3)
    with pytest.raises(ValueError):
        SAXConfig(word_length=0)
    with pytest.raises(ValueError):
        SAXConfig(series_length=8, word_length=16)


def test_sax_config_derived_sizes():
    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    assert config.bits_per_symbol == 8
    assert config.key_bits == 128
    assert config.key_bytes == 16
    assert config.key_dtype == np.dtype("S16")


def test_sax_words_shape_and_range():
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    data = random_walk(10, length=64, seed=0)
    words = sax_words(data, config)
    assert words.shape == (10, 8)
    assert words.max() < 16


def test_sax_words_rejects_wrong_length():
    config = SAXConfig(series_length=64, word_length=8)
    with pytest.raises(ValueError):
        sax_words(np.zeros((2, 32)), config)


def test_symbol_bounds_bracket_paa_values():
    config = SAXConfig(series_length=64, word_length=8, cardinality=32)
    data = random_walk(20, length=64, seed=1)
    values = paa(data, 8)
    words = sax_from_paa(values, 32)
    lower, upper = symbol_bounds(words, 32)
    assert np.all(values <= upper)
    assert np.all(values >= lower)


def test_mindist_paa_to_words_is_lower_bound():
    config = SAXConfig(series_length=128, word_length=16, cardinality=64)
    data = random_walk(50, length=128, seed=2)
    query = random_walk(1, length=128, seed=99)[0]
    words = sax_words(data, config)
    bounds = mindist_paa_to_words(paa(query, 16)[0], words, config)
    for i in range(50):
        assert bounds[i] <= euclidean(query, data[i]) + 1e-6


def test_mindist_zero_for_same_region():
    config = SAXConfig(series_length=32, word_length=4, cardinality=8)
    series = z_normalize(np.sin(np.linspace(0, 6, 32)))
    word = sax_words(series, config)
    bound = mindist_paa_to_words(paa(series, 4)[0], word, config)
    assert bound[0] == pytest.approx(0.0, abs=1e-12)


def test_mindist_words_symmetric_lower_bound():
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    data = random_walk(12, length=64, seed=3)
    words = sax_words(data, config)
    for i in range(0, 12, 3):
        for j in range(0, 12, 4):
            d_ij = mindist_words(words[i], words[j], config)
            d_ji = mindist_words(words[j], words[i], config)
            assert d_ij == pytest.approx(d_ji)
            true = euclidean(data[i].astype(float), data[j].astype(float))
            assert d_ij <= true + 1e-6


def test_word_to_text_example():
    assert word_to_text(np.array([5, 2, 5, 3]), 8) == "fcfd"


def test_word_to_text_rejects_high_cardinality():
    with pytest.raises(ValueError):
        word_to_text(np.array([0]), 256)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), cardinality=st.sampled_from([4, 16, 256]))
def test_property_sax_mindist_lower_bounds_euclidean(seed, cardinality):
    config = SAXConfig(series_length=64, word_length=8, cardinality=cardinality)
    rng = np.random.default_rng(seed)
    data = z_normalize(rng.standard_normal((8, 64)))
    query = z_normalize(rng.standard_normal(64))
    bounds = mindist_paa_to_words(paa(query, 8)[0], sax_words(data, config), config)
    true = [euclidean(query, row) for row in data]
    assert np.all(bounds <= np.array(true) + 1e-6)


# ----------------------------------------------------------------------
# The breakpoint-table kernel against the per-cell evaluation it replaced
# ----------------------------------------------------------------------
def reference_mindist_paa_to_words(query_paa, words, config):
    """Every (record, segment) cell evaluated from scratch.

    The body ``mindist_paa_to_words`` had before the table kernel; the
    kernel must reproduce its floats byte for byte.  Also monkeypatched
    into the engines by the visit-identity test in ``test_knn.py``.
    """
    query_paa = np.asarray(query_paa, dtype=np.float64).ravel()
    words = np.atleast_2d(words)
    lower, upper = symbol_bounds(words, config.cardinality)
    below = np.where(query_paa[None, :] < lower, lower - query_paa[None, :], 0.0)
    above = np.where(query_paa[None, :] > upper, query_paa[None, :] - upper, 0.0)
    gap = below + above
    return np.sqrt(config.segment_size * np.sum(gap * gap, axis=1))


def _adversarial_paa(rng, n_queries, word_length, cardinality):
    """PAA values on, between and far beyond the breakpoints."""
    bps = breakpoints(cardinality)
    pools = [
        rng.standard_normal((n_queries, word_length)),
        rng.choice(bps, size=(n_queries, word_length)),
        rng.choice([bps[0] - 1.0, bps[-1] + 1.0], size=(n_queries, word_length)),
        rng.choice([-1e6, 1e6], size=(n_queries, word_length)),
    ]
    pick = rng.integers(0, len(pools), size=(n_queries, word_length))
    return np.choose(pick, pools)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    word_length=st.integers(1, 24),
    bits=st.integers(1, 10),
    n_words=st.sampled_from([0, 1, 37, 5000]),
    n_queries=st.integers(1, 4),
    cuts=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_property_table_kernel_is_byte_identical_to_the_per_cell_reference(
    seed, word_length, bits, n_words, n_queries, cuts
):
    from repro.core import interleave_words
    from repro.core.summary_column import SummaryColumn

    cardinality = 1 << bits
    config = SAXConfig(
        series_length=4 * word_length, word_length=word_length,
        cardinality=cardinality,
    )
    rng = np.random.default_rng(seed)
    dtype = np.uint8 if cardinality <= 256 and seed % 2 else np.uint16
    words = rng.integers(0, cardinality, size=(n_words, word_length)).astype(dtype)
    block = _adversarial_paa(rng, n_queries, word_length, cardinality)
    got = mindist_paa_to_words(block, words, config)
    assert got.shape == (n_queries, n_words)
    for i in range(n_queries):
        want = reference_mindist_paa_to_words(block[i], words, config)
        single = mindist_paa_to_words(block[i], words, config)
        assert single.shape == (n_words,)
        assert single.tobytes() == want.tobytes()
        assert got[i].tobytes() == want.tobytes()
    # The same floats through a column's cached index, over the whole
    # column and over an arbitrary range of it (empty and single-row
    # ranges included), for a block and for each single PAA.
    column = SummaryColumn(
        config,
        [interleave_words(words, config)],
        [np.arange(n_words, dtype=np.int64)],
    )
    np.testing.assert_array_equal(column.words, words)
    assert column.lower_bounds(block).tobytes() == got.tobytes()
    start, stop = sorted(int(round(cut * n_words)) for cut in cuts)
    for lo, hi in [(start, stop), (start, start), (start, None), (0, stop)]:
        part = column.lower_bounds(block, lo, hi)
        assert part.tobytes() == got[:, lo:hi].tobytes()
        for i in range(n_queries):
            single = column.lower_bounds(block[i], lo, hi)
            assert single.tobytes() == got[i, lo:hi].tobytes()
    if n_words:
        row = start % n_words
        one = column.lower_bounds(block, row, row + 1)
        assert one.tobytes() == got[:, row : row + 1].tobytes()


@pytest.mark.parametrize("dataset", ["randomwalk", "seismic"])
def test_mindist_lower_bounds_float32_stored_float64_queried_series(dataset):
    """The paper's invariant for this summary, at the storage dtypes."""
    config = SAXConfig(series_length=128, word_length=16, cardinality=256)
    data = make_dataset(dataset, 400, length=128, seed=5)
    assert data.dtype == np.float32
    queries = query_workload(dataset, 6, length=128, seed=5).astype(np.float64)
    words = sax_words(data, config)
    bounds = mindist_paa_to_words(paa(queries, 16), words, config)
    for query, row in zip(queries, bounds):
        true = euclidean_batch(query, data.astype(np.float64))
        assert np.all(row <= true)


def test_mindist_rejects_a_paa_of_the_wrong_width():
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    words = sax_words(random_walk(5, length=64, seed=0), config)
    for bad in (np.zeros(1), np.zeros(7), np.zeros((2, 4)), np.float64(0.0)):
        with pytest.raises(ValueError):
            mindist_paa_to_words(bad, words, config)


def test_a_symbol_outside_the_alphabet_is_refused_in_every_segment():
    """A symbol >= cardinality used to read the next segment's cells —
    a plausible, wrong bound — unless it sat in the last segment."""
    config = SAXConfig(series_length=64, word_length=4, cardinality=8)
    for words in ([[9, 0, 0, 0]], [[0, 0, 0, 9]], [[0, -1, 0, 0]]):
        with pytest.raises(ValueError):
            mindist_paa_to_words(np.zeros(4), np.array(words), config)
    assert mindist_paa_to_words(np.zeros(4), [[7, 0, 0, 7]], config).shape == (1,)


def test_table_kernel_beats_the_per_cell_evaluation_at_the_default_geometry():
    """15 000 words x 16 segments x cardinality 256: measured 4-9x
    (docs/queries.md); the gate is 2x so allocator noise cannot fail it
    while a return to per-cell evaluation still does."""
    import timeit

    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    rng = np.random.default_rng(3)
    words = rng.integers(0, 256, size=(15_000, 16)).astype(np.uint16)
    values = rng.standard_normal(16)

    def best(kernel):
        return min(
            timeit.repeat(lambda: kernel(values, words, config), number=3, repeat=7)
        )

    assert best(mindist_paa_to_words) * 2 < best(reference_mindist_paa_to_words)


# ----------------------------------------------------------------------
# Table-driven symbols against one binary search per value
# ----------------------------------------------------------------------
ALL_CARDINALITIES = [1 << bits for bits in range(1, 17)]


def _edge_values(cardinality):
    """Every breakpoint, 1 ulp either side of each, and the float64
    specials: signed zeros and infinities, NaN, the extremes, subnormals."""
    bps = breakpoints(cardinality)
    specials = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        np.finfo(np.float64).max, -np.finfo(np.float64).max,
        np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny, 5e-324, -5e-324,
        1e300, -1e300, 1e-300,
    ]
    return np.concatenate(
        [bps, np.nextafter(bps, -np.inf), np.nextafter(bps, np.inf), specials]
    )


def _check_symbols(values, cardinality):
    want = searchsorted_symbols(values, cardinality)
    got = symbol_table(cardinality).symbols(values)
    assert got.dtype == want.dtype == np.uint16
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert sax_from_paa(values, cardinality).tobytes() == want.tobytes()


@pytest.mark.parametrize("cardinality", ALL_CARDINALITIES)
def test_table_symbols_equal_searchsorted_on_and_around_every_breakpoint(cardinality):
    values = _edge_values(cardinality)
    _check_symbols(values, cardinality)
    # Above the table threshold too, shuffled, as a 2-D block.
    rng = np.random.default_rng(cardinality)
    block = rng.permutation(np.resize(values, 16 * max(64, len(values) // 16 + 1)))
    assert block.size >= TABLE_MIN_VALUES
    _check_symbols(block.reshape(-1, 16), cardinality)
    assert searchsorted_symbols([np.nan], cardinality)[0] == cardinality - 1


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(1, 16),
    values=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(-5.0, 5.0),
            st.tuples(st.integers(0, 2**16), st.integers(-2, 2)),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_property_table_symbols_are_byte_identical_to_searchsorted(bits, values):
    """Arbitrary float64s (NaN, infinities and signed zeros included) and
    breakpoints nudged by up to 2 ulp, at every cardinality 2 ... 2**16."""
    cardinality = 1 << bits
    bps = breakpoints(cardinality)
    out = []
    for value in values:
        if isinstance(value, tuple):
            at, ulps = value
            value = bps[at % len(bps)]
            for _ in range(abs(ulps)):
                value = np.nextafter(value, np.inf if ulps > 0 else -np.inf)
        out.append(value)
    _check_symbols(np.array(out, dtype=np.float64), cardinality)


def test_cardinality_two_has_one_breakpoint_and_a_zero_width_table():
    assert breakpoints(2).tolist() == [0.0]
    values = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, np.inf, np.nan])
    assert symbol_table(2).symbols(values).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_a_query_word_takes_the_search_and_a_scan_block_the_table(monkeypatch):
    """The probe path summarizes one series — 16 values — per query and
    must not pay the table's fixed cost; a build's scan block must."""

    def no_table(cardinality):
        raise AssertionError("a small input reached the table")

    rng = np.random.default_rng(0)
    small = rng.standard_normal(TABLE_MIN_VALUES - 1)
    want = searchsorted_symbols(small, 256)
    monkeypatch.setattr(sax, "symbol_table", no_table)
    assert sax_from_paa(small, 256).tobytes() == want.tobytes()
    with pytest.raises(AssertionError, match="small input"):
        sax_from_paa(rng.standard_normal(TABLE_MIN_VALUES), 256)


def test_table_symbols_beat_the_binary_search_at_the_build_geometry():
    """A 512-series scan block x 16 segments at cardinality 256 — the
    build's unit of work: measured 10-14x (docs/build.md); the gate is
    2x so allocator noise cannot fail it while a return to one binary
    search per value still does."""
    import timeit

    rng = np.random.default_rng(3)
    values = rng.standard_normal((512, 16)) * 0.8
    table = symbol_table(256)

    def best(kernel):
        return min(timeit.repeat(lambda: kernel(values, 256), number=5, repeat=7))

    assert best(lambda v, c: table.symbols(v)) * 2 < best(searchsorted_symbols)
