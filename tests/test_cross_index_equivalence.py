"""Cross-index equivalence: every engine returns the same exact answers.

The serial scan is the ground-truth oracle.  Every Coconut variant —
tree/trie x materialized/secondary, plus the LSM — and both execution
styles (per-query and the batched shared-scan executor) must agree
with it on exact (id, distance) answers, for 1-NN and for kNN.  This
is the safety net under the parallel/batched machinery: any pruning
bug, any mis-seeded bound, any batching shortcut shows up here as a
disagreement with brute force.
"""

import numpy as np
import pytest

from repro import QueryBatch, RawSeriesFile, SerialScan, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.bulk_index import BulkLoadedIndex
from repro.core.sims import SIMSIndex
from repro.indexes import ADSIndex, DSTree, ISAX2Index, RTreeIndex, VerticalIndex
from repro.series import query_workload
from repro.summaries import SAXConfig

from rig import default_config

CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
N_SERIES = 700
N_QUERIES = 6
MEMORY = 1 << 20

INDEX_MAKERS = {
    "CTree": lambda disk: CoconutTree(
        disk, MEMORY, config=CONFIG, leaf_size=32
    ),
    "CTreeFull": lambda disk: CoconutTree(
        disk, MEMORY, config=CONFIG, leaf_size=32, materialized=True
    ),
    "CTrie": lambda disk: CoconutTrie(
        disk, MEMORY, config=CONFIG, leaf_size=32
    ),
    "CTrieFull": lambda disk: CoconutTrie(
        disk, MEMORY, config=CONFIG, leaf_size=32, materialized=True
    ),
    "LSM": lambda disk: CoconutLSM(disk, MEMORY, config=CONFIG),
    "Serial": lambda disk: SerialScan(disk, MEMORY),
}


@pytest.fixture(scope="module", params=["randomwalk", "seismic"])
def workload(request):
    data = make_dataset(request.param, N_SERIES, length=48, seed=21)
    queries = query_workload(request.param, N_QUERIES, length=48, seed=21)
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, data)
    oracle = SerialScan(disk, MEMORY)
    oracle.build(raw)
    return disk, raw, queries, oracle


def _built(name, workload):
    disk, raw, _, _ = workload
    index = INDEX_MAKERS[name](disk)
    index.build(raw)
    return index


@pytest.mark.parametrize("name", sorted(INDEX_MAKERS))
def test_exact_search_matches_serial_oracle(name, workload):
    _, _, queries, oracle = workload
    index = _built(name, workload)
    for query in queries:
        want = oracle.exact_search(query)
        got = index.exact_search(query)
        assert got.answer_idx == want.answer_idx
        assert got.distance == pytest.approx(want.distance, rel=1e-9)


@pytest.mark.parametrize("name", sorted(INDEX_MAKERS))
@pytest.mark.parametrize("k", [1, 5])
def test_exact_knn_matches_serial_oracle(name, workload, k):
    _, _, queries, oracle = workload
    index = _built(name, workload)
    if name == "Serial" and k > 1:
        pytest.skip("the oracle is the thing under comparison")
    for query in queries:
        want = oracle.exact_knn(query, k)
        got = index.exact_knn(query, k)
        assert got.answer_ids == want.answer_ids
        np.testing.assert_allclose(got.distances, want.distances, rtol=1e-9)


@pytest.mark.parametrize("name", sorted(INDEX_MAKERS))
@pytest.mark.parametrize("k", [1, 4])
def test_batched_executor_matches_per_query(name, workload, k):
    """The ISSUE acceptance gate: batched == per-query, all variants."""
    _, _, queries, _ = workload
    index = _built(name, workload)
    report = index.query_batch(QueryBatch(queries=queries, k=k))
    assert len(report) == len(queries)
    for i, query in enumerate(queries):
        solo = index.exact_knn(query, k)
        assert report.knn_ids[i] == solo.answer_ids
        np.testing.assert_allclose(
            report.knn_distances[i], solo.distances, rtol=1e-9
        )
        assert report.results[i].answer_idx == solo.answer_ids[0]


@pytest.mark.parametrize("name", sorted(set(INDEX_MAKERS) - {"Serial"}))
def test_batched_executor_matches_oracle_batch(name, workload):
    """All indexes' batch reports carry one identical answer set."""
    _, _, queries, oracle = workload
    index = _built(name, workload)
    batch = QueryBatch(queries=queries, k=3)
    want = oracle.query_batch(batch)
    got = index.query_batch(batch)
    assert got.knn_ids == want.knn_ids
    for got_d, want_d in zip(got.knn_distances, want.knn_distances):
        np.testing.assert_allclose(got_d, want_d, rtol=1e-9)


def test_approximate_batch_matches_per_query(workload):
    """Approximate mode falls back to the per-query path, unchanged."""
    _, _, queries, _ = workload
    index = _built("CTreeFull", workload)
    report = index.query_batch(QueryBatch(queries=queries, mode="approximate"))
    for i, query in enumerate(queries):
        solo = index.approximate_search(query)
        assert report.results[i].answer_idx == solo.answer_idx
        assert report.results[i].distance == pytest.approx(solo.distance)


ENTRY_POINTS = ("approximate_search", "exact_search", "exact_knn", "query_batch")


def test_entry_points_are_defined_once():
    """Every SIMS index answers through ``SIMSIndex``'s four entry points.

    ``CoconutTree`` alone overrides three of them, each to pass its
    ``radius_leaves`` on to the probe; no other SIMS index (ADS
    included) or intermediate class defines one."""
    from repro.service.snapshot import _FrozenLSM  # the served view

    assert set(ENTRY_POINTS) <= set(vars(SIMSIndex))
    assert issubclass(ADSIndex, SIMSIndex)
    for cls in (BulkLoadedIndex, CoconutTrie, CoconutLSM, _FrozenLSM, ADSIndex):
        assert not set(ENTRY_POINTS) & set(vars(cls)), cls
    assert set(ENTRY_POINTS) & set(vars(CoconutTree)) == set(ENTRY_POINTS[:3])


def test_query_batch_validation():
    with pytest.raises(ValueError):
        QueryBatch(queries=np.zeros((2, 8)), k=0)
    with pytest.raises(ValueError):
        QueryBatch(queries=np.zeros((2, 8)), mode="fuzzy")


@pytest.mark.parametrize("cls", [ADSIndex, ISAX2Index])
def test_default_loop_fallback_agrees(workload, cls):
    """ADS batches through ``SIMSIndex``; iSAX2.0, without a shared-scan
    override, through the per-query loop.  Both answer as the oracle."""
    disk, raw, queries, oracle = workload
    index = cls(disk, MEMORY, config=default_config(48), leaf_size=32)
    index.build(raw)
    report = index.query_batch(QueryBatch(queries=queries, k=1))
    for i, query in enumerate(queries):
        want = oracle.exact_search(query)
        assert report.results[i].answer_idx == want.answer_idx
        assert report.results[i].distance == pytest.approx(want.distance)


@pytest.mark.parametrize("cls", [ADSIndex, ISAX2Index])
def test_default_knn_fallback_matches_oracle(workload, cls):
    """Indexes without a SIMS k-NN override fall back to a ground-truth
    scan of the raw file (regression: they used to raise for k > 1);
    ADS answers k > 1 with the pruned SIMS engine, equally exact."""
    disk, raw, queries, oracle = workload
    index = cls(disk, MEMORY, config=default_config(48), leaf_size=32)
    index.build(raw)
    report = index.query_batch(QueryBatch(queries=queries, k=3))
    want = oracle.query_batch(QueryBatch(queries=queries, k=3))
    assert report.knn_ids == want.knn_ids


def test_approximate_knn_batch_rejected():
    """Regression: approximate + k>1 silently returned one answer."""
    with pytest.raises(ValueError):
        QueryBatch(queries=np.zeros((2, 8)), k=5, mode="approximate")


def test_oversized_batch_splits_without_changing_answers(workload, monkeypatch):
    """Batches past the mindist-matrix cap split recursively and still
    return exactly the per-query answers."""
    from repro.parallel import batch as batch_module

    _, _, queries, _ = workload
    index = _built("CTree", workload)
    whole = index.query_batch(QueryBatch(queries=queries, k=2))
    monkeypatch.setattr(batch_module, "MAX_MINDIST_CELLS", N_SERIES + 1)
    split = index.query_batch(QueryBatch(queries=queries, k=2))
    assert split.knn_ids == whole.knn_ids
    for a, b in zip(split.knn_distances, whole.knn_distances):
        np.testing.assert_allclose(a, b, rtol=1e-12)


# ----------------------------------------------------------------------
# The edge contract, once, for every index and every way of asking:
# empty index, k > n, tying (duplicate / constant) series.
# ----------------------------------------------------------------------
COCONUT = sorted(set(INDEX_MAKERS) - {"Serial"})

# ADS+ answers through SIMSIndex's entry points, as the Coconut indexes
# do; the other baselines through the base class's per-query loop.
BASELINE_MAKERS = {
    "ADS+": lambda disk: ADSIndex(disk, MEMORY, config=CONFIG, leaf_size=32),
    "iSAX2.0": lambda disk: ISAX2Index(disk, MEMORY, config=CONFIG, leaf_size=32),
    "DSTree": lambda disk: DSTree(disk, MEMORY, leaf_size=32),
    "R-tree": lambda disk: RTreeIndex(disk, MEMORY, leaf_size=32),
    "Vertical": lambda disk: VerticalIndex(disk, MEMORY),
}
EDGE = COCONUT + sorted(BASELINE_MAKERS) + ["Serial"]


def _length(name):
    """VerticalIndex's Haar levels need a power-of-two series length."""
    return 64 if name == "Vertical" else 48


def _knn_per_query(index, queries, k):
    outcomes = [index.exact_knn(query, k) for query in queries]
    return [o.answer_ids for o in outcomes], [o.distances for o in outcomes]


def _knn_batch(**kwargs):
    def ask(index, queries, k):
        report = index.query_batch(QueryBatch(queries=queries, k=k), **kwargs)
        return report.knn_ids, report.knn_distances

    return ask


STYLES = {
    "per_query": _knn_per_query,
    "query_batch": _knn_batch(),
    "query_batch_workers2": _knn_batch(query_workers=2),
}


def _index_over(name, data):
    disk = SimulatedDisk(page_size=2048)
    index = {**INDEX_MAKERS, **BASELINE_MAKERS}[name](disk)
    index.build(RawSeriesFile.create(disk, np.asarray(data, dtype=np.float32)))
    return index


def _true_distances(query, rows):
    rows = np.asarray(rows, dtype=np.float32).astype(np.float64)
    return np.sqrt(((rows - query) ** 2).sum(axis=1))


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("name", EDGE)
def test_empty_index_answers_no_match(name, style):
    length = _length(name)
    queries = query_workload("randomwalk", 2, length=length, seed=5)
    index = _index_over(name, np.empty((0, length)))
    assert index.storage_bytes() == 0
    for query in queries:
        for result in (index.approximate_search(query), index.exact_search(query)):
            assert result.answer_idx == -1 and result.distance == float("inf")
            assert result.visited_leaves == 0 and result.visited_records == 0
            assert result.io.total_ios == 0
    assert STYLES[style](index, queries, 5) == ([[], []], [[], []])
    if style != "per_query":
        kwargs = {"query_workers": 2} if style.endswith("2") else {}
        approx = index.query_batch(
            QueryBatch(queries=queries, mode="approximate"), **kwargs
        )
        assert approx.knn_ids == [[], []]
        assert [r.answer_idx for r in approx.results] == [-1, -1]


@pytest.mark.parametrize("materialized", [False, True])
def test_empty_tree_accepts_inserts(materialized):
    rows = make_dataset("randomwalk", 40, length=48, seed=6)
    index = _index_over("CTreeFull" if materialized else "CTree", rows[:0])
    index.insert_batch(rows)
    query = query_workload("randomwalk", 1, length=48, seed=6)[0]
    distances = _true_distances(query, rows)
    got = index.exact_knn(query, 3)
    assert got.answer_ids == np.argsort(distances, kind="stable")[:3].tolist()


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("name", EDGE)
def test_k_larger_than_n_returns_every_series_in_order(name, style):
    rows = make_dataset("randomwalk", 3, length=_length(name), seed=7)
    queries = query_workload("randomwalk", 2, length=_length(name), seed=7)
    index = _index_over(name, rows)
    ids, distances = STYLES[style](index, queries, 5)
    for query, got_ids, got_distances in zip(queries, ids, distances):
        want = _true_distances(query, rows)
        assert got_ids == np.argsort(want, kind="stable").tolist()
        np.testing.assert_allclose(got_distances, np.sort(want), rtol=1e-9)


def _tying_datasets(length):
    walks = make_dataset("randomwalk", 30, length=length, seed=8)
    duplicated = walks.copy()
    duplicated[5:15] = walks[5]
    return {
        "identical": (np.tile(walks[0], (40, 1)), walks[0]),
        "constant": (np.zeros((40, length)), np.zeros(length)),
        "duplicates": (duplicated, walks[5]),
    }


#: Exact answers on these come from heaps that rank ``(distance, id)``
#: and prune only rows whose bound is above the threshold, so they
#: name brute force's smallest tying ids.
SMALLEST_TIES = COCONUT + ["ADS+", "Serial"]


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("dataset", ["identical", "constant", "duplicates"])
@pytest.mark.parametrize("name", EDGE)
def test_tying_series_give_k_distinct_nearest(name, dataset, style):
    """``k`` distinct ids at the brute-force k-NN distances (all 0 here),
    for ``k`` of 1 and 3.

    On the SIMS-backed indexes and ``SerialScan`` the ids are brute
    force's smallest, in every style: however the probe seeds the heap,
    every row whose bound ties the threshold is still fetched, and the
    heap keeps the smallest ``(distance, id)`` pairs.  ``exact_search``
    (``repro.core.sims.sims_scan``, the engine's seeded ``k = 1`` call)
    names the smallest id too.  The other baselines run their own exact
    search and are held to distinct ids at the right distances.
    """
    rows, query = _tying_datasets(_length(name))[dataset]
    index = _index_over(name, rows)
    query = np.asarray(query, dtype=np.float64)
    distances_all = _true_distances(query, rows)
    for k in (1, 3):
        ids, distances = STYLES[style](index, query[None, :], k)
        want = np.sort(distances_all)[:k]
        assert len(set(ids[0])) == k
        if name in SMALLEST_TIES:
            smallest = np.argsort(distances_all, kind="stable")[:k].tolist()
            assert ids[0] == smallest
            if k == 1:
                assert index.exact_search(query).answer_idx == smallest[0]
        np.testing.assert_allclose(distances_all[ids[0]], want, atol=1e-6)
        np.testing.assert_allclose(distances[0], want, atol=1e-6)
        assert np.all(want == 0.0)
