"""Tests for invSAX: the sortable summarization (paper Sec. 4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    deinterleave_keys,
    int_to_key,
    interleave_words,
    invsax_keys,
    key_bytes,
    key_to_int,
    query_key,
)
from repro.series import euclidean, random_walk
from repro.summaries import SAXConfig, sax_words

CONFIG = SAXConfig(series_length=64, word_length=4, cardinality=16)
PAPER_CONFIG = SAXConfig(series_length=256, word_length=16, cardinality=256)


def test_key_width():
    assert CONFIG.key_bytes == 2  # 4 segments x 4 bits
    assert PAPER_CONFIG.key_bytes == 16  # 16 segments x 8 bits = 128 bits


def test_interleave_figure2_example():
    """The paper's running example: 3-bit symbols e=100, c=010.

    S1 = "ec" -> segments (100, 010); interleaving MSB-first across
    segments gives 10 01 00 -> 0b100100.
    """
    config = SAXConfig(series_length=16, word_length=2, cardinality=8)
    keys = interleave_words(np.array([[0b100, 0b010]]), config)
    assert key_to_int(keys[0], config) == 0b100100 << 2  # left-aligned byte


def test_interleave_orders_like_z_curve():
    """Fig. 2/4: sorting invSAX groups (S1, S3) and (S2, S4).

    S1=ec, S2=ee, S3=fc, S4=ge with 3-bit symbols.  Lexicographic SAX
    order is S1 S2 S3 S4; z-order must place S1 next to S3.
    """
    config = SAXConfig(series_length=16, word_length=2, cardinality=8)
    words = np.array(
        [
            [0b100, 0b010],  # S1 = ec
            [0b100, 0b100],  # S2 = ee
            [0b101, 0b010],  # S3 = fc
            [0b110, 0b100],  # S4 = ge
        ]
    )
    keys = interleave_words(words, config)
    order = np.argsort(keys, kind="stable")
    sorted_names = [["S1", "S2", "S3", "S4"][i] for i in order]
    assert sorted_names.index("S3") == sorted_names.index("S1") + 1
    assert sorted_names.index("S4") == sorted_names.index("S2") + 1


def test_roundtrip_exact():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 16, size=(200, 4)).astype(np.uint16)
    keys = interleave_words(words, CONFIG)
    np.testing.assert_array_equal(deinterleave_keys(keys, CONFIG), words)


def test_roundtrip_paper_scale_128_bit_keys():
    rng = np.random.default_rng(1)
    words = rng.integers(0, 256, size=(500, 16)).astype(np.uint16)
    keys = interleave_words(words, PAPER_CONFIG)
    assert keys.dtype == np.dtype("S16")
    np.testing.assert_array_equal(
        deinterleave_keys(keys, PAPER_CONFIG), words
    )


def test_roundtrip_extreme_symbols():
    words = np.array([[0, 0, 0, 0], [15, 15, 15, 15], [0, 15, 0, 15]])
    keys = interleave_words(words, CONFIG)
    np.testing.assert_array_equal(deinterleave_keys(keys, CONFIG), words)
    assert key_to_int(keys[0], CONFIG) == 0
    assert key_to_int(keys[1], CONFIG) == 0xFFFF


def test_symbol_out_of_range_rejected():
    with pytest.raises(ValueError):
        interleave_words(np.array([[16, 0, 0, 0]]), CONFIG)
    with pytest.raises(ValueError):
        interleave_words(np.array([[0, 0]]), CONFIG)


def test_numpy_sort_equals_integer_sort():
    """Byte-string sorting must equal numeric z-order sorting."""
    rng = np.random.default_rng(2)
    words = rng.integers(0, 256, size=(300, 16)).astype(np.uint16)
    keys = interleave_words(words, PAPER_CONFIG)
    byte_order = np.argsort(keys, kind="stable")
    numeric = np.array([key_to_int(k, PAPER_CONFIG) for k in keys])
    numeric_order = np.argsort(numeric, kind="stable")
    np.testing.assert_array_equal(
        numeric[byte_order], numeric[numeric_order]
    )


def test_query_key_matches_batch_path():
    data = random_walk(3, length=64, seed=3)
    batch_keys = invsax_keys(data, CONFIG)
    for i in range(3):
        assert query_key(data[i], CONFIG) == key_bytes(batch_keys[i], CONFIG)


def test_key_int_roundtrip():
    value = 0b1010_1100_0011_0101
    assert key_to_int(int_to_key(value, CONFIG), CONFIG) == value


def test_sorting_preserves_locality_better_than_sax():
    """The paper's core claim: z-order neighbors are closer in ED than
    lexicographic-SAX neighbors, on average."""
    data = random_walk(400, length=256, seed=4).astype(np.float64)
    words = sax_words(data, PAPER_CONFIG)
    keys = invsax_keys(data, PAPER_CONFIG)

    def mean_neighbor_distance(order):
        pairs = zip(order[:-1], order[1:])
        return np.mean([euclidean(data[i], data[j]) for i, j in pairs])

    lex_order = np.lexsort(words.T[::-1])  # segment 0 most significant
    z_order = np.argsort(keys, kind="stable")
    assert mean_neighbor_distance(z_order) < mean_neighbor_distance(lex_order)


def test_information_is_preserved():
    """Sortable form contains the same information as SAX (Sec. 4.1)."""
    data = random_walk(50, length=256, seed=5)
    words = sax_words(data, PAPER_CONFIG)
    keys = interleave_words(words, PAPER_CONFIG)
    np.testing.assert_array_equal(
        deinterleave_keys(keys, PAPER_CONFIG), words
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    word_length=st.sampled_from([2, 4, 8, 16]),
    bits=st.sampled_from([1, 2, 4, 8]),
)
def test_property_roundtrip_any_geometry(seed, word_length, bits):
    config = SAXConfig(
        series_length=64, word_length=word_length, cardinality=1 << bits
    )
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << bits, size=(64, word_length)).astype(np.uint16)
    keys = interleave_words(words, config)
    np.testing.assert_array_equal(deinterleave_keys(keys, config), words)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_zorder_monotone_in_msb(seed):
    """Keys with a larger first-bit plane always sort later."""
    config = SAXConfig(series_length=32, word_length=4, cardinality=4)
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 4, size=(32, 4)).astype(np.uint16)
    keys = interleave_words(words, config)
    msb_plane = ((words >> 1) & 1) @ (1 << np.arange(3, -1, -1))
    order = np.argsort(keys, kind="stable")
    # The first w key bits are exactly the per-segment MSBs, so the
    # sorted order must be primarily ordered by that bit plane.
    assert np.all(np.diff(msb_plane[order]) >= 0)


def test_interleave_zero_records():
    """Regression: zero-record inputs interleave to zero keys."""
    for empty in (
        np.empty((0, 4), dtype=np.uint32),
        np.empty((0,), dtype=np.uint32),
        np.empty((0, 2), dtype=np.uint32),  # shape checks don't apply at n=0
    ):
        keys = interleave_words(empty, CONFIG)
        assert keys.shape == (0,)
        assert keys.dtype == CONFIG.key_dtype


def test_deinterleave_zero_keys():
    words = deinterleave_keys(np.empty(0, dtype=CONFIG.key_dtype), CONFIG)
    assert words.shape == (0, CONFIG.word_length)


def test_invsax_keys_zero_series():
    keys = invsax_keys(np.empty((0, 64)), CONFIG)
    assert keys.shape == (0,)
    assert keys.dtype == CONFIG.key_dtype


def test_single_record_roundtrip():
    """Regression companion: one record survives the full key cycle."""
    words = np.array([[3, 1, 4, 15]], dtype=np.uint16)
    keys = interleave_words(words, CONFIG)
    assert keys.shape == (1,)
    np.testing.assert_array_equal(deinterleave_keys(keys, CONFIG), words)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    word_length=st.integers(1, 24),
    bits=st.integers(1, 16),
    n=st.sampled_from([0, 1, 5, 1000]),
)
def test_property_keys_equal_algorithm1_bit_by_bit(seed, word_length, bits, n):
    """invSAX keys are Algorithm 1 spelled out on Python integers.

    Level by level (most significant first), segment by segment, one
    bit at a time; the key is that integer left-aligned in its bytes,
    so pad bits of widths that are not whole bytes are zero.
    """
    config = SAXConfig(
        series_length=64, word_length=word_length, cardinality=1 << bits
    )
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 1 << bits, size=(n, word_length)).astype(np.uint16)
    keys = interleave_words(words, config)
    assert keys.shape == (n,)
    assert keys.dtype == config.key_dtype
    pad_bits = config.key_bytes * 8 - config.key_bits
    numeric = []
    for word in words.tolist():
        value = 0
        for level in range(bits):
            for symbol in word:
                value = (value << 1) | ((symbol >> (bits - 1 - level)) & 1)
        numeric.append(value << pad_bits)
    assert [key_to_int(key, config) for key in keys] == numeric
    decoded = deinterleave_keys(keys, config)
    assert decoded.dtype == np.uint16
    np.testing.assert_array_equal(decoded.reshape(n, word_length), words)
    by_key = [numeric[i] for i in np.argsort(keys, kind="stable")]
    assert by_key == sorted(numeric)


def test_interleave_rejects_float_words():
    """Regression: float words were floored silently (1.7 -> 1)."""
    with pytest.raises(ValueError):
        interleave_words(np.array([[1.7, 0.0, 2.0, 3.0]]), CONFIG)


def test_deinterleave_rejects_keys_wider_than_config():
    """Regression: an S8 array under a 2-byte config lost 6 bytes."""
    keys = interleave_words(np.array([[3, 1, 4, 15]]), CONFIG)
    with pytest.raises(ValueError):
        deinterleave_keys(keys.astype("S8"), CONFIG)
    # Narrower is legal: NumPy strips trailing NULs from byte strings.
    np.testing.assert_array_equal(
        deinterleave_keys(np.array([b"\xf0"]), CONFIG), [[8, 8, 8, 8]]
    )
