"""Tests for Coconut-Tree (Algorithm 3-5): build, search, updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CoconutTree
from repro.series import euclidean, euclidean_batch, random_walk
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)


def build_index(n=500, materialized=False, leaf_size=32, memory=1 << 20,
                fill_factor=1.0, seed=0, page_size=2048):
    disk = SimulatedDisk(page_size=page_size)
    data = random_walk(n, length=64, seed=seed)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(
        disk,
        memory_bytes=memory,
        config=CONFIG,
        leaf_size=leaf_size,
        fill_factor=fill_factor,
        materialized=materialized,
    )
    report = index.build(raw)
    return disk, index, data, report


def brute_force_nn(query, data):
    distances = euclidean_batch(query, data.astype(np.float64))
    best = int(np.argmin(distances))
    return best, float(distances[best])


def test_build_report_basics():
    _, index, data, report = build_index()
    assert report.n_series == 500
    assert report.n_leaves == index.leaf_stats()[0]
    assert report.index_bytes > 0
    assert report.simulated_io_ms > 0


def test_leaves_are_full_with_unit_fill_factor():
    _, index, _, report = build_index(n=512, leaf_size=32)
    n_leaves, fill = index.leaf_stats()
    assert n_leaves == 16
    assert fill == pytest.approx(1.0)


def test_fill_factor_controls_packing():
    _, index, _, _ = build_index(n=512, leaf_size=32, fill_factor=0.5)
    n_leaves, fill = index.leaf_stats()
    assert n_leaves == 32
    assert fill == pytest.approx(0.5)


def test_leaf_level_is_contiguous():
    """Bulk loading writes the leaf level as one extent."""
    _, index, _, _ = build_index()
    assert index._leaf_file.n_extents == 1


def test_records_sorted_across_leaves():
    _, index, _, _ = build_index(n=300)
    previous = b""
    for leaf in index._leaves:
        records = index._read_leaf_records(leaf)
        keys = [bytes(k).ljust(CONFIG.key_bytes, b"\x00") for k in records["k"]]
        assert all(keys[i] <= keys[i + 1] for i in range(len(keys) - 1))
        assert previous <= keys[0]
        previous = keys[-1]


def test_every_series_lands_in_exactly_one_leaf():
    _, index, data, _ = build_index(n=277)
    seen = []
    for leaf in index._leaves:
        seen.extend(int(off) for off in index._read_leaf_records(leaf)["off"])
    assert sorted(seen) == list(range(277))


def test_materialized_leaves_store_series():
    _, index, data, _ = build_index(n=100, materialized=True)
    for leaf in index._leaves:
        records = index._read_leaf_records(leaf)
        for row in records:
            np.testing.assert_array_almost_equal(
                row["series"], data[int(row["off"])], decimal=5
            )


def test_build_with_tight_memory_spills_runs():
    _, _, _, report = build_index(n=800, memory=2048)
    assert report.extra["sort_runs"] > 1


def test_approximate_search_returns_valid_answer():
    _, index, data, _ = build_index(n=400, seed=1)
    query = random_walk(1, length=64, seed=123)[0]
    result = index.approximate_search(query)
    assert 0 <= result.answer_idx < 400
    assert result.distance == pytest.approx(
        euclidean(query.astype(np.float64), data[result.answer_idx])
    )
    assert result.visited_leaves == 1


def test_approximate_radius_improves_or_matches_quality():
    _, index, data, _ = build_index(n=600, seed=2)
    queries = random_walk(20, length=64, seed=99)
    narrow = [index.approximate_search(q, radius_leaves=1).distance for q in queries]
    wide = [index.approximate_search(q, radius_leaves=9).distance for q in queries]
    assert all(w <= n + 1e-9 for w, n in zip(wide, narrow))
    assert np.mean(wide) < np.mean(narrow)


ENTRY_POINTS = {
    "approximate_search": lambda index, q, r: index.approximate_search(q, r),
    "exact_search": lambda index, q, r: index.exact_search(q, r),
    "exact_knn": lambda index, q, r: index.exact_knn(q, 3, r),
    # The radius reaches the probe only at k = 1, but is checked at any k.
    "exact_knn_k1": lambda index, q, r: index.exact_knn(q, 1, r),
}


@pytest.mark.parametrize("radius", [-1, -3, 2.5, True])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_radius_is_refused_before_anything_is_read(entry, radius):
    """A negative radius used to answer "no match, -1 leaves visited"
    and a fractional one to die inside ``range()``."""
    disk, index, _, _ = build_index(n=300, seed=28)
    query = random_walk(1, length=64, seed=29)[0]
    before = disk.snapshot()
    with pytest.raises(ValueError, match="radius_leaves"):
        ENTRY_POINTS[entry](index, query, radius)
    assert disk.snapshot() == before


@pytest.mark.parametrize("radius", [2.5, True, False, "2", None, -1])
def test_a_bad_default_radius_is_refused_at_construction(radius):
    """A fractional default radius used to build, then fail every
    query: ``TypeError`` in the probe, ``ValueError`` in the scan."""
    with pytest.raises(ValueError, match="default_radius"):
        CoconutTree(SimulatedDisk(), 1 << 20, CONFIG, default_radius=radius)


@pytest.mark.parametrize("radius", [0, 1, 3, np.int64(2)])
def test_an_integer_default_radius_is_kept(radius):
    index = CoconutTree(SimulatedDisk(), 1 << 20, CONFIG, default_radius=radius)
    assert index.default_radius == max(1, int(radius))
    assert type(index.default_radius) is int


@pytest.mark.parametrize("materialized", [False, True])
def test_radius_none_and_zero_mean_the_default(materialized):
    _, index, data, _ = build_index(
        n=300, leaf_size=16, seed=28, materialized=materialized
    )
    index.default_radius = 2
    query = random_walk(1, length=64, seed=29)[0]
    n_leaves = len(index._leaves)
    for call in ENTRY_POINTS.values():
        by_radius = {}
        for radius in (None, 0, 1, 2, 10**6):
            out = call(index, query, radius)
            answers = getattr(out, "answer_ids", None) or [out.answer_idx]
            by_radius[radius] = (answers, out.visited_records)
            if hasattr(out, "visited_leaves"):
                assert out.visited_leaves == min(radius or 2, n_leaves)
        assert by_radius[None] == by_radius[0] == by_radius[2]
    # Every leaf probed: the approximate answer is the exact one.
    everything = index.approximate_search(query, 10**6)
    assert everything.visited_records == 300
    assert everything.answer_idx == brute_force_nn(query, data)[0]


@pytest.mark.parametrize("materialized", [False, True])
def test_exact_search_matches_brute_force(materialized):
    _, index, data, _ = build_index(n=350, materialized=materialized, seed=3)
    queries = random_walk(15, length=64, seed=55)
    for query in queries:
        result = index.exact_search(query)
        expected_idx, expected_dist = brute_force_nn(query, data)
        assert result.distance == pytest.approx(expected_dist, rel=1e-6)
        assert euclidean(query.astype(np.float64), data[result.answer_idx]) == (
            pytest.approx(expected_dist, rel=1e-6)
        )


def test_exact_search_prunes_records():
    _, index, _, _ = build_index(n=1000, seed=4)
    query = random_walk(1, length=64, seed=77)[0]
    result = index.exact_search(query)
    assert result.visited_records < 1000
    assert result.pruned_fraction > 0.0


def test_exact_on_indexed_series_finds_itself():
    _, index, data, _ = build_index(n=200, seed=5)
    result = index.exact_search(data[42])
    assert result.distance == pytest.approx(0.0, abs=1e-5)


def test_query_length_validation():
    _, index, _, _ = build_index(n=50)
    with pytest.raises(ValueError):
        index.exact_search(np.zeros(32))


def test_query_before_build_fails():
    disk = SimulatedDisk()
    index = CoconutTree(disk, memory_bytes=1024, config=CONFIG)
    with pytest.raises(RuntimeError):
        index.exact_search(np.zeros(64))


def test_constructor_validation():
    disk = SimulatedDisk()
    with pytest.raises(ValueError):
        CoconutTree(disk, memory_bytes=0)
    with pytest.raises(ValueError):
        CoconutTree(disk, memory_bytes=1024, fill_factor=0.3)
    with pytest.raises(ValueError):
        CoconutTree(disk, memory_bytes=1024, leaf_size=0)


def test_insert_batch_then_exact_search():
    disk, index, data, _ = build_index(n=256, leaf_size=32, seed=6)
    extra = random_walk(64, length=64, seed=7)
    report = index.insert_batch(extra)
    assert report.n_series == 64
    all_data = np.vstack([data, extra])
    queries = random_walk(10, length=64, seed=8)
    for query in queries:
        result = index.exact_search(query)
        _, expected = brute_force_nn(query, all_data)
        assert result.distance == pytest.approx(expected, rel=1e-6)


def test_insert_batch_splits_keep_leaf_bounds():
    _, index, _, _ = build_index(n=200, leaf_size=16, seed=9)
    index.insert_batch(random_walk(100, length=64, seed=10))
    for leaf in index._leaves:
        assert 0 < leaf.count <= index.leaf_size


def test_insert_into_empty_index():
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(
        disk, np.empty((0, 64), dtype=np.float32)
    ) if False else None
    # Build over a tiny file, then grow it via inserts.
    data = random_walk(4, length=64, seed=11)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=8)
    index.build(raw)
    index.insert_batch(random_walk(40, length=64, seed=12))
    assert sum(l.count for l in index._leaves) == 44


def test_larger_radius_counts_more_visited_leaves():
    _, index, _, _ = build_index(n=600, seed=13)
    query = random_walk(1, length=64, seed=14)[0]
    assert index.approximate_search(query, radius_leaves=5).visited_leaves == 5


# ----------------------------------------------------------------------
# Bulk-load: convert once, pack linearly
# ----------------------------------------------------------------------
def file_bytes(paged_file):
    if not paged_file.n_pages:
        return b""
    return bytes(paged_file.read_stream(0, paged_file.n_pages))


class RechunkedTree(CoconutTree):
    """Feeds ``_bulk_load`` the same sorted records under another chunking."""

    def __init__(self, *args, cuts, **kwargs):
        super().__init__(*args, **kwargs)
        self.cuts = cuts

    def _bulk_load(self, sorted_chunks, rec):
        parts = list(sorted_chunks)
        keys = np.concatenate([k for k, _ in parts])
        payloads = np.concatenate([p for _, p in parts])
        edges = [0, *self.cuts(len(keys), self.target_leaf_records), len(keys)]
        super()._bulk_load(
            ((keys[a:b], payloads[a:b]) for a, b in zip(edges, edges[1:])),
            rec,
        )


CHUNKINGS = {
    "one_giant_chunk": lambda n, target: [],
    "sub_leaf_chunks": lambda n, target: list(range(3, n, 3)),
    "empty_chunks": lambda n, target: [0, 0, 5, 5, 5, n // 2, n // 2, n, n],
    "ends_on_leaf_boundary": lambda n, target: [2 * target, 5 * target],
}


def built_state(materialized, fill_factor, cuts=None):
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, random_walk(431, length=64, seed=21))
    # The sort fits in memory, so draining the stream before packing
    # (RechunkedTree) moves no I/O relative to streaming it.
    kwargs = dict(
        memory_bytes=1 << 20, config=CONFIG, leaf_size=16,
        fill_factor=fill_factor, materialized=materialized,
    )
    if cuts is None:
        index = CoconutTree(disk, **kwargs)
    else:
        index = RechunkedTree(disk, cuts=cuts, **kwargs)
    index.build(raw)
    after_build = disk.snapshot()
    index._ensure_summaries()
    return {
        "stats": (after_build, disk.snapshot()),
        "leaf_bytes": file_bytes(index._leaf_file),
        "sidecar_bytes": file_bytes(index._sidecar),
        "first_keys": index._first_keys.tobytes(),
        "directory": [(l.slot, l.count, l.first_key) for l in index._leaves],
        "words": index._column.words.tobytes(),
        "offsets": index._column.offsets.tobytes(),
    }


@pytest.mark.parametrize("fill_factor", [0.5, 1.0])
@pytest.mark.parametrize("materialized", [False, True])
def test_bulk_load_is_invariant_to_chunk_shape(materialized, fill_factor):
    expected = built_state(materialized, fill_factor)
    assert len(expected["directory"]) > 20
    for name, cuts in CHUNKINGS.items():
        assert built_state(materialized, fill_factor, cuts) == expected, name


def count_conversions(monkeypatch, leaf_size):
    import repro.core.invsax as invsax
    import repro.core.summary_column as summary_column

    # Each kernel is spied where its one caller binds it: ``invsax_keys``
    # and the ``SummaryColumn`` constructor.
    callers = {"interleave_words": invsax, "deinterleave_keys": summary_column}
    calls = {name: 0 for name in callers}

    def spy(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name, module in callers.items():
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, random_walk(600, length=64, seed=22))
    index = CoconutTree(
        disk, memory_bytes=1 << 13, config=CONFIG, leaf_size=leaf_size
    )
    index.build(raw)
    index.exact_search(random_walk(1, length=64, seed=23)[0])
    n_blocks = sum(1 for _ in raw.scan())
    return calls, n_blocks, len(index._leaves)


def test_build_converts_once_whatever_the_leaf_count(monkeypatch):
    """Keys <-> words conversions do not scale with the number of leaves.

    The regression this pins: one ``deinterleave_keys`` per emitted leaf
    and one ``interleave_words`` per leaf when writing the sidecar.
    """
    few, n_blocks, few_leaves = count_conversions(monkeypatch, leaf_size=300)
    monkeypatch.undo()
    many, _, many_leaves = count_conversions(monkeypatch, leaf_size=4)
    assert few_leaves == 2 and many_leaves == 150
    assert many == few
    assert many["deinterleave_keys"] == 1
    # One per scan block of the build, plus the query's own key:
    # ``query_key`` goes through ``invsax_keys``, the spied call site.
    assert many["interleave_words"] == n_blocks + 1


@pytest.mark.parametrize("materialized", [False, True])
def test_summary_column_mirrors_disk_after_merges_and_splits(materialized):
    """Whatever the in-memory layout, it is the leaf file's, in order."""
    from repro.core import deinterleave_keys

    _, index, _, _ = build_index(
        n=300, leaf_size=16, seed=24, materialized=materialized,
        fill_factor=0.75,
    )
    sidecar_dtype = np.dtype([("k", CONFIG.key_dtype), ("off", "<i8")])
    # A leaf merge without splits (few rows, 3/4-full leaves), then
    # median splits (more rows than the free slots), then both again.
    for n_rows, seed in ((6, 25), (260, 26), (40, 27)):
        n_leaves = len(index._leaves)
        index.insert_batch(random_walk(n_rows, length=64, seed=seed))
        assert (len(index._leaves) > n_leaves) == (n_rows > 6)
        index._ensure_summaries()
        records = [index._read_leaf_records(leaf) for leaf in index._leaves]
        keys = np.concatenate([r["k"] for r in records])
        offsets = np.concatenate([r["off"] for r in records])
        assert np.all(keys[:-1] <= keys[1:])
        np.testing.assert_array_equal(
            index._column.words, deinterleave_keys(keys, CONFIG)
        )
        np.testing.assert_array_equal(index._column.offsets, offsets)
        np.testing.assert_array_equal(
            index._leaf_starts, np.cumsum([0] + [len(r) for r in records])
        )
        sidecar = np.frombuffer(
            file_bytes(index._sidecar)[: len(keys) * sidecar_dtype.itemsize],
            dtype=sidecar_dtype,
        )
        np.testing.assert_array_equal(sidecar["k"], keys)
        np.testing.assert_array_equal(sidecar["off"], offsets)


#: The pool the property below draws its batches from; a narrow word
#: (8-bit keys) makes equal keys common, and repeated pool rows make
#: exact duplicates.
POOL_CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=4)
POOL = random_walk(48, length=32, seed=41).astype(np.float32)


@settings(max_examples=40, deadline=None)
@given(
    base=st.lists(st.integers(0, len(POOL) - 1), max_size=40),
    batches=st.lists(
        st.sampled_from([[], [0], [7]])
        | st.lists(st.integers(0, len(POOL) - 1), max_size=30),
        max_size=6,
    ),
    materialized=st.booleans(),
    fill_factor=st.sampled_from([0.5, 1.0]),
)
def test_property_tree_column_is_the_stable_sort_of_every_row(
    base, batches, materialized, fill_factor
):
    """After the build and after every ``insert_batch`` (empty and
    single-row batches, duplicate rows, merges and median splits): the
    summary column's keys and offsets are the stable sort of every row
    appended so far — ties in offset order — and each leaf on disk holds
    exactly its slice of the column (and the rows, when materialized)."""
    from repro.core import invsax_keys

    disk = SimulatedDisk(page_size=512)
    tree = CoconutTree(
        disk, memory_bytes=1 << 11, config=POOL_CONFIG, leaf_size=6,
        fill_factor=fill_factor, materialized=materialized,
    )
    rows = POOL[base]
    tree.build(RawSeriesFile.create(disk, rows))
    for batch in [None, *batches]:
        if batch is not None:
            tree.insert_batch(POOL[batch])
            rows = np.concatenate([rows, POOL[batch]])
        order = np.argsort(invsax_keys(rows, POOL_CONFIG), kind="stable")
        column = tree._column
        assert column.offsets.tolist() == order.tolist()
        assert (
            column.keys.tobytes()
            == invsax_keys(rows, POOL_CONFIG)[order].tobytes()
        )
        starts = tree._leaf_starts
        assert starts[-1] == len(rows) == len(column)
        for i, leaf in enumerate(tree._leaves):
            records = tree._read_leaf_records(leaf)
            assert 0 < len(records) <= tree.leaf_size
            assert records["k"].tobytes() == column.keys[starts[i] : starts[i + 1]].tobytes()
            assert records["off"].tolist() == column.offsets[starts[i] : starts[i + 1]].tolist()
            if materialized:
                assert records["series"].tobytes() == rows[records["off"]].tobytes()
