"""Tests for generic z-order keys over arbitrary summarizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Quantizer,
    deinterleave_codes,
    interleave_codes,
    zorder_keys_for_features,
)
from repro.series import euclidean, random_walk
from repro.summaries import dft_features


def test_quantizer_uses_all_levels_on_uniform_data():
    rng = np.random.default_rng(0)
    features = rng.uniform(0, 1, size=(4000, 3))
    quantizer = Quantizer(bits=2).fit(features)
    codes = quantizer.encode(features)
    counts = np.bincount(codes.ravel(), minlength=4)
    # Quantile breakpoints equalize usage (like SAX breakpoints).
    assert counts.min() > 0.8 * counts.max()


def test_quantizer_encode_before_fit_fails():
    with pytest.raises(RuntimeError):
        Quantizer(bits=4).encode(np.zeros((2, 2)))


def test_quantizer_bits_validation():
    with pytest.raises(ValueError):
        Quantizer(bits=0)
    with pytest.raises(ValueError):
        Quantizer(bits=17)


def test_interleave_codes_roundtrip():
    rng = np.random.default_rng(1)
    for dims, bits in ((2, 4), (5, 3), (16, 8), (7, 1)):
        codes = rng.integers(0, 1 << bits, size=(50, dims)).astype(np.uint16)
        keys = interleave_codes(codes, bits)
        np.testing.assert_array_equal(
            deinterleave_codes(keys, dims, bits), codes
        )


def test_interleave_rejects_out_of_range():
    with pytest.raises(ValueError):
        interleave_codes(np.array([[4]]), bits=2)


def test_zorder_sorting_groups_similar_dft_features():
    """The paper's compatibility claim: DFT features become sortable."""
    data = random_walk(500, length=128, seed=2).astype(np.float64)
    features = dft_features(data, 4)
    keys, _ = zorder_keys_for_features(features, bits=6)
    order = np.argsort(keys, kind="stable")

    def mean_neighbor_distance(permutation):
        return np.mean(
            [
                euclidean(data[permutation[i]], data[permutation[i + 1]])
                for i in range(0, len(permutation) - 1, 3)
            ]
        )

    assert mean_neighbor_distance(order) < mean_neighbor_distance(
        np.arange(len(data))
    )


def test_quantizer_reuse_for_queries():
    """Queries must be encoded with the fitted (dataset) quantizer."""
    rng = np.random.default_rng(3)
    features = rng.standard_normal((300, 4))
    keys, quantizer = zorder_keys_for_features(features, bits=5)
    query = rng.standard_normal((1, 4))
    query_keys, _ = zorder_keys_for_features(query, quantizer=quantizer)
    assert query_keys.dtype == keys.dtype


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dims=st.integers(1, 12),
    bits=st.integers(1, 8),
)
def test_property_roundtrip_any_geometry(seed, dims, bits):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, size=(20, dims)).astype(np.uint16)
    keys = interleave_codes(codes, bits)
    np.testing.assert_array_equal(deinterleave_codes(keys, dims, bits), codes)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_key_order_matches_morton_order(seed):
    """Byte-key order equals numeric Morton-code order."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 16, size=(30, 2)).astype(np.uint16)
    keys = interleave_codes(codes, 4)

    def morton(x, y):
        value = 0
        for i in range(4):
            value |= ((x >> (3 - i)) & 1) << (7 - 2 * i)
            value |= ((y >> (3 - i)) & 1) << (6 - 2 * i)
        return value

    numeric = np.array([morton(int(x), int(y)) for x, y in codes])
    byte_order = np.argsort(keys, kind="stable")
    numeric_order = np.argsort(numeric, kind="stable")
    np.testing.assert_array_equal(numeric[byte_order], numeric[numeric_order])


def reference_interleave(codes, bits):
    """Algorithm 1 one bit at a time: the oracle the kernel is pinned to.

    Returns the (N, key_bytes) byte matrix and each row's Morton code
    as a Python integer.
    """
    n_dimensions = codes.shape[1]
    key_bytes = -(-n_dimensions * bits // 8)
    out = np.zeros((len(codes), key_bytes), dtype=np.uint8)
    mortons = []
    for row, code in enumerate(codes.tolist()):
        morton = 0
        for level in range(bits):
            for j in range(n_dimensions):
                bit = (code[j] >> (bits - 1 - level)) & 1
                position = level * n_dimensions + j
                out[row, position >> 3] |= bit << (7 - (position & 7))
                morton = (morton << 1) | bit
        mortons.append(morton)
    return out, mortons


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    dims=st.integers(1, 24),
    bits=st.integers(1, 16),
    n=st.sampled_from([0, 1, 7, 1000]),
)
def test_property_kernel_matches_bitwise_reference(seed, dims, bits, n):
    """The bit-plane kernel is byte-identical to the bit-by-bit loop."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, size=(n, dims)).astype(np.uint16)
    key_bytes = -(-dims * bits // 8)
    keys = interleave_codes(codes, bits)
    assert keys.shape == (n,)
    assert keys.dtype == np.dtype(f"S{key_bytes}")
    raw = keys.view(np.uint8).reshape(n, key_bytes)
    expected, mortons = reference_interleave(codes, bits)
    np.testing.assert_array_equal(raw, expected)
    pad_bits = key_bytes * 8 - dims * bits
    if n and pad_bits:
        assert not (raw[:, -1] & ((1 << pad_bits) - 1)).any()
    decoded = deinterleave_codes(keys, dims, bits)
    assert decoded.dtype == np.uint16
    assert decoded.shape == (n, dims)
    np.testing.assert_array_equal(decoded, codes)
    # Byte-string order is Morton-code order.
    by_key = [mortons[i] for i in np.argsort(keys, kind="stable")]
    assert by_key == sorted(mortons)


def test_kernel_accepts_any_integer_dtype_and_layout():
    codes = np.arange(24, dtype=np.int64).reshape(4, 6) % 8
    expected = interleave_codes(codes.astype(np.uint16), 3)
    for variant in (codes, codes.astype(np.uint8), np.asfortranarray(codes),
                    codes.tolist()):
        np.testing.assert_array_equal(interleave_codes(variant, 3), expected)
    np.testing.assert_array_equal(
        deinterleave_codes(expected[::-1], 6, 3), codes[::-1]
    )


def test_interleave_rejects_non_integer_and_negative_codes():
    """Regression: float codes were floored silently (1.7 -> 1)."""
    with pytest.raises(ValueError):
        interleave_codes(np.array([[1.7, 0.0]]), bits=2)
    with pytest.raises(ValueError):
        interleave_codes(np.array([[-1, 0]]), bits=2)


def test_deinterleave_rejects_keys_wider_than_the_geometry():
    """Regression: wide keys were truncated to their first bytes."""
    keys = interleave_codes(np.array([[3, 1, 2, 0]]), bits=4)  # 2 bytes
    with pytest.raises(ValueError):
        deinterleave_codes(keys.astype("S8"), 4, 4)
    with pytest.raises(ValueError):
        deinterleave_codes(np.array([b"abcdefgh"]), 4, 4)
    # Narrower is legal: NumPy strips trailing NULs from byte strings.
    narrow = np.array([b"\x80"])
    np.testing.assert_array_equal(
        deinterleave_codes(narrow, 4, 4), [[8, 0, 0, 0]]
    )
