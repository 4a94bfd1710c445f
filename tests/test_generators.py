"""Tests for the dataset generators (the paper's three data sources)."""

import numpy as np
import pytest
from scipy import stats

import oracles
from oracles import loop_seismic
from repro.series import generators
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


# ---------------------------------------------------------- seismic bytes
def unnormalized(monkeypatch, module) -> list:
    """Record a copy of every float64 block ``module`` z-normalizes: the
    float32 output rounds away differences of a few ulps."""
    seen, real = [], module.z_normalize

    def recording(data):
        seen.append(np.array(data, dtype=np.float64))
        return real(data)

    monkeypatch.setattr(module, "z_normalize", recording)
    return seen


@pytest.mark.parametrize("events", [0, 2, 5])
@pytest.mark.parametrize("length", [1, 16, 128, 256, 1_000])
@pytest.mark.parametrize(
    "n,seeds", [(0, [3]), (1, [0, 3, 11]), (40, [0, 3, 11]), (4_500, [3])]
)
def test_seismic_is_the_per_event_loop_byte_for_byte(
    monkeypatch, n, seeds, length, events
):
    """Drawn as one block of uniforms and added a rank at a time, the
    packets give every element the loop's float64 operations in its
    order: the sums before normalization are equal too."""
    sums, loop_sums = unnormalized(monkeypatch, generators), unnormalized(
        monkeypatch, oracles
    )
    for seed in seeds:
        got = seismic(n, length, events_per_series=events, seed=seed)
        want = loop_seismic(n, length, events_per_series=events, seed=seed)
        assert got.shape == want.shape == (n, length)
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert sums.pop().tobytes() == loop_sums.pop().tobytes()


def test_the_long_rows_are_taken_in_several_chunks():
    """The 4 500 x 1 000 cases above run the chunked path."""
    assert 4_500 * 1_000 * 8 > 2 * generators._CHUNK_BYTES


@pytest.mark.parametrize("n,seed", [(4_500, 7), (284, 7 + 0x5EED)])
def test_seismic_benchmark_inputs_are_the_loops(n, seed):
    """The two calls the seismic benchmark workload makes: its data and
    its query stream."""
    assert seismic(n, 256, seed=seed).tobytes() == loop_seismic(n, 256, seed=seed).tobytes()


@pytest.mark.parametrize("length", [1, 16])
def test_seismic_of_no_series_is_an_empty_float32_block(length):
    data = seismic(0, length, seed=1)
    assert data.shape == (0, length) and data.dtype == np.float32


def test_seismic_of_length_one_is_all_zeros():
    """A one-point series is constant, which z-normalizes to zero."""
    data = seismic(30, 1, events_per_series=5, seed=2)
    assert data.shape == (30, 1) and not data.any()


def test_seismic_refuses_a_negative_event_rate_before_any_output(monkeypatch):
    def built(*args):
        raise AssertionError("an output was built")

    monkeypatch.setattr(generators, "z_normalize", built)
    with pytest.raises(ValueError):
        seismic(4, 16, events_per_series=-1.0, seed=0)
