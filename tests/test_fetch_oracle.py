"""Fetch oracle suite: vectorized gather vs loop-level oracle.

The vectorized ``RawSeriesFile.get_many`` / ``scan`` paths must be
indistinguishable from the loop-level oracle
(``tests/oracles.py::loop_get_many``) — same float32 payloads, same
classified :class:`DiskStats`, same head movement, same buffer-pool
hit/miss counts — on the product device (zero-copy views) and on the
dict oracle device (every read a ``bytes`` copy), for every layout the file supports: page-divisor and
non-divisor record sizes, records spanning multiple pages, duplicate /
unsorted / empty / out-of-range index arrays.  The refine kernel is
pinned to its contract: every value bitwise the naive one-shot formula
(or ``inf`` only strictly above the bound), never ``inf`` where the
scalar early-abandon loop keeps a row, and allocation-free per tile.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series.distance import (
    TILE_BYTES,
    early_abandon_euclidean,
    early_abandon_euclidean_block,
    euclidean_batch,
)
from oracles import DEVICES, loop_get_many
from repro.storage import BufferPool, RawSeriesFile

# (n_series, length, page_size): divisor and non-divisor single-page
# layouts, a page_size that is not a float32 multiple, and multi-page
# records (page_size < record_bytes).
GEOMETRIES = [
    (50, 32, 512),  # divisor: 4 records/page, no padding
    (25, 12, 256),  # non-divisor: 5 records + 16 B padding per page
    (137, 16, 1000),  # non-divisor, non-power-of-two page
    (3, 4, 70),  # page_size not a multiple of 4
    (9, 64, 128),  # multi-page: 2 pages per record
    (5, 96, 100),  # multi-page, padding in the last page of each record
]

INDEX_PATTERNS = [
    lambda n: np.arange(n),
    lambda n: np.arange(n)[::-1],  # descending
    lambda n: np.array([n - 1, 0, n // 2, n // 2, 0]),  # dup + unsorted
    lambda n: np.array([0]),
    lambda n: np.array([], dtype=np.int64),
    lambda n: np.arange(n)[::3],  # strided: non-consecutive pages
]


def make_raw(n, length, page_size, store, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, length)).astype(np.float32)
    disk = DEVICES[store](page_size=page_size)
    return disk, RawSeriesFile.create(disk, data), data


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_matches_oracle_and_data(store, n, length, page_size):
    _, raw, data = make_raw(n, length, page_size, store)
    for pattern in INDEX_PATTERNS:
        idxs = pattern(n)
        got = raw.get_many(idxs)
        oracle = loop_get_many(raw, idxs)
        assert got.shape == (len(idxs), length)
        np.testing.assert_array_equal(got, oracle)
        if len(idxs):
            np.testing.assert_array_equal(got, data[idxs])


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_stats_match_oracle(store, n, length, page_size):
    """Same classified I/O and head movement as the loop oracle."""
    for pattern in INDEX_PATTERNS:
        idxs = pattern(n)
        d1, r1, _ = make_raw(n, length, page_size, store)
        d2, r2, _ = make_raw(n, length, page_size, store)
        for d in (d1, d2):
            d.reset_stats()
            d.park_head()
        np.testing.assert_array_equal(r1.get_many(idxs), loop_get_many(r2, idxs))
        assert d1.stats == d2.stats
        assert d1.head_position == d2.head_position


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_out_of_range_raises_before_io(store, n, length, page_size):
    """Regression: OOB indexes used to silently gather padded zeros."""
    disk, raw, _ = make_raw(n, length, page_size, store)
    for bad in ([n], [-1], [0, n], [n + 100], [0, -1, 1]):
        for fn in (RawSeriesFile.get_many, loop_get_many):
            snap = disk.snapshot()
            with pytest.raises(IndexError):
                fn(raw, np.array(bad))
            assert disk.stats_since(snap).total_reads == 0


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_scan_matches_data_everywhere(store, n, length, page_size):
    _, raw, data = make_raw(n, length, page_size, store)
    for chunk in (None, 1, 3, n, 10 * n):
        kwargs = {} if chunk is None else {"chunk_series": chunk}
        got = np.concatenate(
            [block for _, block in raw.scan(**kwargs)] or [data[:0]]
        )
        np.testing.assert_array_equal(got, data)
    for start, stop in [(0, n), (1, n - 1), (n // 2, n // 2 + 1), (n, n)]:
        parts = [b for _, b in raw.scan(chunk_series=3, start=start, stop=stop)]
        got = np.concatenate(parts) if parts else data[:0]
        np.testing.assert_array_equal(got, data[start:stop])


@pytest.mark.parametrize("store", DEVICES)
def test_multipage_get_many_visits_each_page_once(store):
    """Regression: the multi-page path re-read pages per record."""
    n, length, page_size = 9, 64, 128  # 2 pages per record
    disk, raw, data = make_raw(n, length, page_size, store)
    assert raw.pages_per_series == 2
    idxs = np.array([0, 1, 5, 5, 1])  # dups must not re-read
    disk.reset_stats()
    disk.park_head()
    np.testing.assert_array_equal(raw.get_many(idxs), data[idxs])
    # Distinct records {0, 1, 5}: 3 records x 2 pages, each read once.
    assert disk.stats.total_reads == 3 * raw.pages_per_series


@pytest.mark.parametrize("store", DEVICES)
def test_get_many_through_pool_matches_and_counts_like_oracle(store):
    n, length, page_size = 60, 12, 256
    disk, raw, data = make_raw(n, length, page_size, store)
    idxs = np.array([0, 7, 7, 30, 2, 59])
    pools = []
    results = []
    for fn in (RawSeriesFile.get_many, loop_get_many):
        d, r, _ = make_raw(n, length, page_size, store)
        pool = BufferPool(d, capacity_pages=4)
        r.attach_pool(pool)
        results.append(fn(r, idxs))
        results.append(fn(r, idxs))  # second pass: warm cache
        pools.append(pool)
    np.testing.assert_array_equal(results[0], data[idxs])
    np.testing.assert_array_equal(results[0], results[2])
    np.testing.assert_array_equal(results[1], results[3])
    assert (pools[0].hits, pools[0].misses) == (pools[1].hits, pools[1].misses)


@settings(max_examples=60, deadline=None)
@given(
    idxs=st.lists(st.integers(min_value=0, max_value=24), max_size=60),
    geometry=st.sampled_from([(25, 12, 256), (25, 7, 100), (25, 32, 128)]),
    store=st.sampled_from(sorted(DEVICES)),
)
def test_property_gather_equals_oracle(idxs, geometry, store):
    n, length, page_size = geometry
    d1, r1, data = make_raw(n, length, page_size, store, seed=5)
    d2, r2, _ = make_raw(n, length, page_size, store, seed=5)
    idxs = np.array(idxs, dtype=np.int64)
    for d in (d1, d2):
        d.reset_stats()
        d.park_head()
    got = r1.get_many(idxs)
    oracle = loop_get_many(r2, idxs)
    np.testing.assert_array_equal(got, oracle)
    if len(idxs):
        np.testing.assert_array_equal(got, data[idxs])
    assert d1.stats == d2.stats


# ------------------------------------------------------- refine kernel
def _naive(query, block):
    """The one-shot formula the tiled kernel must reproduce bitwise."""
    b64 = np.asarray(block, dtype=np.float64)
    q64 = np.asarray(query, dtype=np.float64)
    return np.sqrt(np.sum((b64 - q64[None, :]) ** 2, axis=1))


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _check_block_contract(query, block, bound, got):
    """The narrowed contract of ``early_abandon_euclidean_block``."""
    naive = _naive(query, block)
    assert got.shape == naive.shape and got.dtype == np.float64
    kept = got != np.inf
    assert np.array_equal(_bits(got[kept]), _bits(naive[kept]))
    # inf only for a row provably above the bound.
    assert np.all(naive[~kept] > bound)
    assert np.all(np.isnan(got[np.isnan(naive)]))
    return naive


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_kind=st.sampled_from(["0", "1", "tile-1", "tile", "tile+1", "3tile+5"]),
    length=st.integers(min_value=1, max_value=1000),
    dtype=st.sampled_from([np.float32, np.float64]),
    layout=st.sampled_from(["contiguous", "row-sliced", "fancy"]),
    bound_kind=st.sampled_from(["inf", "nan", "zero", "median", "min", "max"]),
)
def test_property_block_kernel_pinned_to_scalar_loop(
    seed, n_kind, length, dtype, layout, bound_kind
):
    """Bitwise the naive formula; never abandons what the scalar keeps."""
    tile = max(1, TILE_BYTES // (8 * length))
    n = {
        "0": 0,
        "1": 1,
        "tile-1": tile - 1,
        "tile": tile,
        "tile+1": tile + 1,
        "3tile+5": 3 * tile + 5,
    }[n_kind]
    rng = np.random.default_rng(seed)
    query = rng.standard_normal(length).astype(dtype)
    if layout == "contiguous":
        block = rng.standard_normal((n, length)).astype(dtype)
    elif layout == "row-sliced":
        block = rng.standard_normal((2 * n, length + 3)).astype(dtype)[::2, 1:-2]
    else:
        pool = rng.standard_normal((max(1, n // 2), length)).astype(dtype)
        block = pool[rng.integers(0, len(pool), size=n)]
    full = _naive(query, block)
    bound = {
        "inf": np.inf,
        "nan": np.nan,
        "zero": 0.0,
        "median": float(np.median(full)) if n else 1.0,
        "min": float(full.min()) if n else 0.5,
        "max": float(full.max()) if n else 2.0,
    }[bound_kind]
    got = early_abandon_euclidean_block(query, block, bound)
    _check_block_contract(query, block, bound, got)
    assert np.array_equal(_bits(euclidean_batch(query, block)), _bits(full))
    # The scalar UCR loop on the rows around every tile boundary: where
    # it returns a finite distance the block kernel returns the same
    # bits, never ``inf``.
    edges = {0, n - 1, tile - 1, tile, 2 * tile - 1, 2 * tile, 3 * tile}
    for i in sorted(e for e in edges if 0 <= e < n):
        scalar = early_abandon_euclidean(query, block[i], bound)
        if scalar != np.inf:
            assert _bits(got[i : i + 1]) == _bits([scalar])
        else:
            assert full[i] > bound


def test_block_kernel_peak_allocation_is_one_tile():
    """Refining a 4 MB block allocates a scratch tile and the output —
    the property the kernel's speed rests on (the chunked kernel peaked
    at 26 MB here, the one-shot formula at 17 MB)."""
    rng = np.random.default_rng(3)
    block = rng.standard_normal((4096, 256)).astype(np.float32)
    query = rng.standard_normal(256)
    for bound in (np.inf, float(np.median(_naive(query, block)))):
        early_abandon_euclidean_block(query, block, bound)  # warm imports
        tracemalloc.start()
        try:
            early_abandon_euclidean_block(query, block, bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak


def test_block_kernel_inf_bound_is_plain_batch():
    rng = np.random.default_rng(9)
    block = rng.standard_normal((40, 256)).astype(np.float32)
    query = rng.standard_normal(256).astype(np.float32)
    got = early_abandon_euclidean_block(query, block, np.inf)
    ref = euclidean_batch(query, block)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_block_kernel_shape_mismatch():
    query = np.zeros(16)
    with pytest.raises(ValueError):
        early_abandon_euclidean_block(query, np.zeros((3, 15)), 1.0)
    with pytest.raises(ValueError):
        early_abandon_euclidean_block(query, np.zeros(16), 1.0)  # 1-D block


def test_block_kernel_empty_block():
    got = early_abandon_euclidean_block(np.zeros(8), np.empty((0, 8)), 1.0)
    assert got.shape == (0,)


def test_block_kernel_nan_rows_survive_like_scalar():
    """NaN payloads must come back NaN (kept), never inf (abandoned)."""
    query = np.zeros(64)
    block = np.zeros((2, 64))
    block[0, 40] = np.nan  # NaN after the scalar loop's first chunk
    block[1, :] = 100.0  # the scalar loop abandons this row
    got = early_abandon_euclidean_block(query, block, 1.0)
    scalar = [
        early_abandon_euclidean(query, block[i], 1.0, chunk=32)
        for i in range(2)
    ]
    assert np.isnan(got[0]) and np.isnan(scalar[0])
    assert scalar[1] == float("inf")
    # Abandoning is allowed, not required: inf or the exact distance.
    naive = _check_block_contract(query, block, 1.0, got)
    assert got[1] in (float("inf"), naive[1]) and naive[1] == 800.0
