"""Tests for the dataset generators (the paper's three data sources)."""

import numpy as np
import pytest
from scipy import stats

from repro.series import (
    GENERATORS,
    is_z_normalized,
    make_dataset,
    query_workload,
    random_walk,
    seismic,
)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_shape_dtype_normalization(name):
    data = make_dataset(name, 32, length=128, seed=7)
    assert data.shape == (32, 128)
    assert data.dtype == np.float32
    assert is_z_normalized(data, tolerance=1e-2)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_deterministic_given_seed(name):
    a = make_dataset(name, 8, length=64, seed=42)
    b = make_dataset(name, 8, length=64, seed=42)
    np.testing.assert_array_equal(a, b)
    c = make_dataset(name, 8, length=64, seed=43)
    assert not np.array_equal(a, c)


def test_unknown_dataset_rejected():
    with pytest.raises(ValueError):
        make_dataset("nope", 4)


def test_random_walk_is_a_walk():
    """Consecutive increments should be i.i.d.-ish, not the values."""
    data = random_walk(50, length=256, seed=0).astype(np.float64)
    values_autocorr = np.mean(
        [np.corrcoef(row[:-1], row[1:])[0, 1] for row in data]
    )
    assert values_autocorr > 0.9  # walks are strongly autocorrelated


def test_seismic_has_wave_packets():
    """Seismic series should have heavier local energy bursts."""
    data = seismic(40, length=256, seed=1).astype(np.float64)
    # Kurtosis of burst-like data exceeds the Gaussian baseline.
    walk = random_walk(40, length=256, seed=1).astype(np.float64)
    assert np.mean(stats.kurtosis(data, axis=1)) > np.mean(
        stats.kurtosis(walk, axis=1)
    )


def test_astronomy_is_skewed():
    """Fig. 7: astronomy values are slightly skewed, random-walk and
    seismic values near-symmetric, and all three pool to mean 0, std 1."""
    values = {
        name: make_dataset(name, 100, length=256, seed=2).astype(np.float64).ravel()
        for name in ("astronomy", "randomwalk", "seismic")
    }
    skew = {name: abs(stats.skew(v)) for name, v in values.items()}
    assert skew["astronomy"] > 0.2
    assert skew["astronomy"] > max(skew["randomwalk"], skew["seismic"])
    assert skew["randomwalk"] < 0.25 and skew["seismic"] < 0.25
    for v in values.values():
        assert abs(v.mean()) < 0.05 and abs(v.std() - 1.0) < 0.05


def test_query_workload_differs_from_dataset():
    data = make_dataset("randomwalk", 16, length=64, seed=5)
    queries = query_workload("randomwalk", 16, length=64, seed=5)
    assert queries.shape == (16, 64)
    assert not np.array_equal(data, queries)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_query_workload_deterministic_given_seed(name):
    """Two runs with the same seed produce identical query workloads."""
    a = query_workload(name, 6, length=64, seed=9)
    b = query_workload(name, 6, length=64, seed=9)
    np.testing.assert_array_equal(a, b)


def test_query_stream_independent_of_data_stream():
    """Same seed, different streams: queries never equal the data."""
    data = make_dataset("randomwalk", 8, length=64, seed=3)
    queries = query_workload("randomwalk", 8, length=64, seed=3)
    assert not np.array_equal(data, queries)


def test_unseeded_workloads_are_not_secretly_identical():
    """Regression: seed=None used to alias seed 0 for query workloads."""
    a = query_workload("randomwalk", 4, length=32, seed=None)
    b = query_workload("randomwalk", 4, length=32, seed=None)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, make_dataset("randomwalk", 4, length=32, seed=0x5EED))
