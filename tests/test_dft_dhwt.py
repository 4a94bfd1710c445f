"""Tests for DFT and Haar wavelet summarizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series import euclidean, random_walk, z_normalize
from repro.summaries import (
    dft_features,
    dft_lower_bound,
    haar_lower_bound,
    haar_transform,
    inverse_haar_transform,
    is_power_of_two,
    level_slices,
)


def test_is_power_of_two():
    assert is_power_of_two(1)
    assert is_power_of_two(256)
    assert not is_power_of_two(0)
    assert not is_power_of_two(3)


# ---------------------------------------------------------------- DFT
def test_dft_features_shape():
    rng = np.random.default_rng(0)
    data = z_normalize(rng.standard_normal((5, 64)))
    features = dft_features(data, 8)
    assert features.shape == (5, 16)


def test_dft_validation():
    with pytest.raises(ValueError):
        dft_features(np.zeros((2, 64)), 0)
    with pytest.raises(ValueError):
        dft_features(np.zeros((2, 64)), 32)


def test_dft_lower_bound_holds():
    rng = np.random.default_rng(1)
    data = z_normalize(rng.standard_normal((30, 64)))
    query = z_normalize(rng.standard_normal(64))
    q_features = dft_features(query, 8)[0]
    c_features = dft_features(data, 8)
    bounds = dft_lower_bound(q_features, c_features)
    for i in range(30):
        assert bounds[i] <= euclidean(query, data[i]) + 1e-6


def test_dft_bound_tightens_with_more_coefficients():
    rng = np.random.default_rng(2)
    a = z_normalize(rng.standard_normal(64))
    b = z_normalize(rng.standard_normal(64))
    bounds = [
        dft_lower_bound(dft_features(a, k)[0], dft_features(b, k))[0]
        for k in (2, 8, 24)
    ]
    assert bounds[0] <= bounds[1] + 1e-9 <= bounds[2] + 1e-9


# --------------------------------------------------------------- DHWT
def test_haar_roundtrip():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((7, 64))
    restored = inverse_haar_transform(haar_transform(data))
    np.testing.assert_allclose(restored, data, atol=1e-10)


def test_haar_requires_power_of_two():
    with pytest.raises(ValueError):
        haar_transform(np.zeros((2, 48)))


def test_haar_preserves_euclidean_distance():
    """Orthonormality: full-coefficient distance equals true ED."""
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((2, 128))
    ca = haar_transform(a)[0]
    cb = haar_transform(b)[0]
    assert np.linalg.norm(ca - cb) == pytest.approx(euclidean(a, b))


def test_haar_first_coefficient_is_scaled_mean():
    data = np.ones((1, 8)) * 3.0
    coefficients = haar_transform(data)
    assert coefficients[0, 0] == pytest.approx(3.0 * np.sqrt(8))
    np.testing.assert_allclose(coefficients[0, 1:], 0.0, atol=1e-12)


def test_level_slices_partition_everything():
    slices = level_slices(16)
    covered = []
    for s in slices:
        covered.extend(range(s.start, s.stop))
    assert covered == list(range(16))
    assert [s.stop - s.start for s in slices] == [1, 1, 2, 4, 8]


def test_haar_prefix_lower_bound():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((20, 64))
    query = rng.standard_normal(64)
    cq = haar_transform(query)[0]
    cd = haar_transform(data)
    for k in (1, 4, 16, 64):
        bounds = haar_lower_bound(cq, cd[:, :k])
        for i in range(20):
            true = euclidean(query, data[i])
            assert bounds[i] <= true + 1e-9
    # Full prefix is exact.
    np.testing.assert_allclose(
        haar_lower_bound(cq, cd),
        [euclidean(query, row) for row in data],
        atol=1e-9,
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_property_haar_prefix_bound_monotone(seed, k):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 32))
    ca, cb = haar_transform(np.vstack([a, b]))
    shorter = haar_lower_bound(ca, cb[None, :k])[0]
    longer = haar_lower_bound(ca, cb[None, : min(32, 2 * k)])[0]
    assert shorter <= longer + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    length=st.sampled_from([8, 16, 64, 100, 256]),
    coefficients=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_dft_lower_bound_holds_on_float32_random_walks(
    length, coefficients, seed
):
    """``test_dft_lower_bound_holds`` over searched series: float32-stored
    random walks, a float64 query, any number of kept coefficients."""
    n_coefficients = coefficients.draw(st.integers(1, length // 2 - 1))
    data = random_walk(20, length=length, seed=seed)
    assert data.dtype == np.float32
    query = random_walk(1, length=length, seed=seed + 1)[0].astype(np.float64)
    bounds = dft_lower_bound(
        dft_features(query, n_coefficients)[0], dft_features(data, n_coefficients)
    )
    for i in range(len(data)):
        assert bounds[i] <= euclidean(query, data[i]) + 1e-6
