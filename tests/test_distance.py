"""Tests for distance functions and lower bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series import (
    dtw,
    early_abandon_euclidean,
    euclidean,
    euclidean_batch,
    lb_keogh,
    squared_euclidean,
)
from repro.series.distance import euclidean_lower_bounds


def test_euclidean_known_value():
    assert euclidean([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)


def test_euclidean_identity():
    a = np.arange(8, dtype=float)
    assert euclidean(a, a) == 0.0


def test_euclidean_shape_mismatch():
    with pytest.raises(ValueError):
        euclidean(np.zeros(3), np.zeros(4))


def test_squared_euclidean_consistency():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 32))
    assert squared_euclidean(a, b) == pytest.approx(euclidean(a, b) ** 2)


def test_euclidean_batch_matches_scalar():
    rng = np.random.default_rng(1)
    query = rng.standard_normal(16)
    batch = rng.standard_normal((10, 16))
    dists = euclidean_batch(query, batch)
    for i in range(10):
        assert dists[i] == pytest.approx(euclidean(query, batch[i]))


def test_early_abandon_agrees_when_within_threshold():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((2, 64))
    full = euclidean(a, b)
    assert early_abandon_euclidean(a, b, full + 1.0) == pytest.approx(full)


def test_early_abandon_returns_inf_beyond_threshold():
    # Longer than one chunk so a proper-prefix boundary exists: the
    # kernel abandons between chunks, never after the final one.
    a = np.zeros(64)
    b = np.ones(64) * 10
    assert early_abandon_euclidean(a, b, 1.0, chunk=32) == float("inf")


def test_early_abandon_shape_mismatch():
    """Regression: mismatched lengths used to be silently truncated."""
    with pytest.raises(ValueError):
        early_abandon_euclidean(np.zeros(32), np.zeros(31), 1.0)


def test_early_abandon_single_chunk_never_abandons():
    """No proper-prefix boundary -> the exact distance, never inf."""
    a = np.zeros(32)
    b = np.ones(32) * 10
    got = early_abandon_euclidean(a, b, 1.0, chunk=32)
    assert got == euclidean(a, b)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
        min_size=1,
        max_size=200,
    ),
    threshold=st.floats(0, 100),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_property_early_abandon_outcome_matches_full_distance(
    data, threshold, chunk
):
    """Finite results are bitwise the full distance; inf implies beyond.

    The chunked partial sums only ever grow, so a proper prefix
    exceeding the threshold proves the full distance does too — inf is
    only ever returned for candidates strictly beyond best-so-far.
    Survivors are recomputed with the plain reduction, so any finite
    result equals :func:`euclidean` exactly, regardless of chunk size.
    """
    a = np.array([x for x, _ in data])
    b = np.array([y for _, y in data])
    full = euclidean(a, b)
    got = early_abandon_euclidean(a, b, threshold, chunk=chunk)
    if got == float("inf"):
        assert full > threshold
    else:
        assert got == full  # bitwise, not approx


def test_early_abandon_vectorized_abandons_between_chunks():
    """A huge early chunk triggers inf without summing the tail."""
    a = np.zeros(128)
    b = np.concatenate([np.full(32, 100.0), np.zeros(96)])
    assert early_abandon_euclidean(a, b, 5.0, chunk=32) == float("inf")


def test_dtw_identity_and_symmetry():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 24))
    assert dtw(a, a) == pytest.approx(0.0)
    assert dtw(a, b) == pytest.approx(dtw(b, a))


def test_dtw_never_exceeds_euclidean():
    """Unconstrained DTW is upper-bounded by lock-step ED."""
    rng = np.random.default_rng(4)
    for _ in range(5):
        a, b = rng.standard_normal((2, 20))
        assert dtw(a, b) <= euclidean(a, b) + 1e-9


def test_dtw_aligns_shifted_patterns():
    """A shifted copy should be much closer under DTW than ED."""
    base = np.sin(np.linspace(0, 4 * np.pi, 64))
    shifted = np.roll(base, 3)
    assert dtw(base, shifted, window=8) < 0.5 * euclidean(base, shifted)


def test_dtw_empty_rejected():
    with pytest.raises(ValueError):
        dtw(np.array([]), np.array([1.0]))


def test_lb_keogh_lower_bounds_dtw():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.standard_normal((2, 32))
        window = 4
        assert lb_keogh(a, b, window) <= dtw(a, b, window=window) + 1e-9


def test_lb_keogh_shape_mismatch():
    with pytest.raises(ValueError):
        lb_keogh(np.zeros(4), np.zeros(5), 1)


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=2,
        max_size=40,
    ),
    window=st.integers(min_value=1, max_value=8),
)
def test_property_lb_keogh_is_a_lower_bound(data, window):
    a = np.array([x for x, _ in data])
    b = np.array([y for _, y in data])
    assert lb_keogh(a, b, window) <= dtw(a, b, window=window) + 1e-6


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=1,
        max_size=50,
    )
)
def test_property_triangle_inequality(data):
    a = np.array([x for x, _ in data])
    b = np.array([y for _, y in data])
    c = np.zeros(len(data))
    assert euclidean(a, b) <= euclidean(a, c) + euclidean(c, b) + 1e-6


@pytest.mark.parametrize(
    "call",
    [
        lambda: euclidean_batch(np.zeros(1), np.ones((2, 4))),
        lambda: euclidean_batch(np.zeros(4), np.ones(4)),
        lambda: euclidean_batch(np.zeros((1, 4)), np.ones((2, 4))),
        lambda: euclidean_batch(np.zeros(3), np.ones((2, 4))),
        lambda: squared_euclidean(np.zeros(3), np.ones((2, 3))),
        lambda: squared_euclidean(np.zeros(3), np.ones(4)),
        lambda: euclidean_lower_bounds(np.zeros(1), np.ones((2, 4))),
        lambda: euclidean_lower_bounds(np.zeros(4), np.ones(4)),
        lambda: euclidean_lower_bounds(np.zeros((2, 3)), np.ones((2, 4))),
        lambda: euclidean_lower_bounds(np.zeros((1, 1, 4)), np.ones((2, 4))),
    ],
    ids=[
        "batch-length-1-query",
        "batch-1-d",
        "batch-2-d-query",
        "batch-short-query",
        "squared-broadcast",
        "squared-lengths",
        "bound-length-1-query",
        "bound-1-d",
        "bound-2-d-query",
        "bound-3-d-query",
    ],
)
def test_distance_shapes_are_checked_not_broadcast(call):
    """``euclidean_batch(zeros(1), ones((2, 4)))`` used to answer
    ``[2, 2]``, a 1-D batch failed on tuple unpacking, and
    ``squared_euclidean`` broadcast a series against a matrix.  The
    bound takes a ``(Q, n)`` query block, but only of the block's
    length."""
    with pytest.raises(ValueError, match="shape mismatch"):
        call()


BAD_WINDOWS = [-3, -1, 2.5, float("nan"), True, False, "2", np.float64(2.0)]


@pytest.mark.parametrize("window", BAD_WINDOWS, ids=repr)
@pytest.mark.parametrize("fn", ["dtw", "lb_keogh"])
def test_bad_window_is_refused(fn, window):
    """A window must be an integer >= 0 (``dtw``: or ``None``).  ``-3``
    used to mean a band of width 0, ``2.5`` failed in slicing, and
    ``lb_keogh(..., -1)`` reduced an empty array."""
    a, b = np.zeros(8), np.ones(8)
    with pytest.raises(ValueError, match="window"):
        dtw(a, b, window=window) if fn == "dtw" else lb_keogh(a, b, window)


@pytest.mark.parametrize("window", [0, 2, np.int64(2), 100])
def test_good_windows_are_accepted(window):
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 8))
    assert lb_keogh(a, b, window) <= dtw(a, b, window=window) + 1e-9
    assert dtw(a, b, window=None) <= dtw(a, b, window=window) + 1e-9
