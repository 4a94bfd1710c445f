"""Tests for k-nearest-neighbor search (core.knn)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_sax import reference_mindist_paa_to_words

from repro import CoconutService, QueryBatch, SerialScan, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.knn import _BoundedMaxHeap, sims_knn_scan
from repro.core.summary_column import WordColumn
from repro.series import euclidean_batch, query_workload, random_walk
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig, sax_words

CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)


def brute_force_knn(query, data, k):
    distances = euclidean_batch(query, data.astype(np.float64))
    order = np.argsort(distances, kind="stable")[:k]
    return list(order), [float(distances[i]) for i in order]


def build_index(n=400, seed=0, materialized=False):
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(n, length=64, seed=seed)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(
        disk, memory_bytes=1 << 20, config=CONFIG, leaf_size=32,
        materialized=materialized,
    )
    index.build(raw)
    return index, data


# ---------------------------------------------------------------- heap
def test_heap_keeps_k_smallest():
    heap = _BoundedMaxHeap(3)
    for distance, identifier in [(5, 1), (2, 2), (9, 3), (1, 4), (3, 5)]:
        heap.offer(distance, identifier)
    items = heap.sorted_items()
    assert [i for _, i in items] == [4, 2, 5]


def test_heap_threshold_is_inf_until_full():
    heap = _BoundedMaxHeap(2)
    heap.offer(1.0, 1)
    assert heap.threshold == float("inf")
    heap.offer(2.0, 2)
    assert heap.threshold == 2.0


def test_heap_deduplicates_identifiers():
    heap = _BoundedMaxHeap(2)
    heap.offer(1.0, 7)
    heap.offer(0.5, 7)
    heap.offer(2.0, 8)
    items = heap.sorted_items()
    assert [i for _, i in items] == [7, 8]


def test_heap_rejects_bad_k():
    with pytest.raises(ValueError):
        _BoundedMaxHeap(0)


# ---------------------------------------------------------------- k
@pytest.fixture(scope="module")
def k_entry_points():
    """name -> (disk, ask(k)) for every entry point that takes a ``k``."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(300, length=64, seed=3)
    raw = RawSeriesFile.create(disk, data)
    query = data[0].astype(np.float64)
    indexes = {
        "CTree": CoconutTree(disk, 1 << 20, config=CONFIG, leaf_size=32),
        "CTrie": CoconutTrie(disk, 1 << 20, config=CONFIG, leaf_size=32),
        "LSM": CoconutLSM(disk, 1 << 20, config=CONFIG),
        "Serial": SerialScan(disk, 1 << 20),
    }
    entries = {}
    for name, index in indexes.items():
        index.build(raw)
        entries[name] = (disk, lambda k, index=index: index.exact_knn(query, k))
    entries["QueryBatch"] = (
        disk, lambda k: QueryBatch(queries=query[None, :], k=k)
    )
    service_disk = SimulatedDisk(page_size=2048)
    service = CoconutService(
        service_disk, RawSeriesFile.create(service_disk, data), 1 << 20,
        sax_config=CONFIG,
    )
    service.bootstrap()
    entries["Service"] = (service_disk, lambda k: service.submit(query, k=k))
    return entries, service


K_ENTRIES = ["CTree", "CTrie", "LSM", "Serial", "QueryBatch", "Service"]


@pytest.mark.parametrize("k", [0, -2, 2.5, 3.0, "3", None, True])
@pytest.mark.parametrize("entry", K_ENTRIES)
def test_k_must_be_an_integer_of_at_least_one(k_entry_points, entry, k):
    """Refused with ``ValueError`` before a page is read or a ticket is
    admitted (a ``k=2.5`` ticket used to kill the serving thread)."""
    entries, service = k_entry_points
    disk, ask = entries[entry]
    before, submitted = disk.snapshot(), service.stats_snapshot()["submitted"]
    with pytest.raises(ValueError, match="k must be an integer"):
        ask(k)
    assert disk.snapshot() == before
    assert service.stats_snapshot()["submitted"] == submitted


@pytest.mark.parametrize("entry", K_ENTRIES)
def test_numpy_integer_k_is_accepted(k_entry_points, entry):
    entries, service = k_entry_points
    _, ask = entries[entry]
    got = ask(np.int64(3))
    if entry == "QueryBatch":
        assert got.k == 3 and type(got.k) is int
    elif entry == "Service":
        service.serve_pending()
        assert got.status == "served" and len(got.knn_ids) == 3
    else:
        assert len(got.answer_ids) == 3


def reference_offer_block(heap, distances, identifiers):
    """The per-row admission loop ``offer_block`` replaced."""
    for distance, identifier in zip(distances, identifiers):
        heap.offer(float(distance), int(identifier))


def _heap_state(heap):
    return sorted(heap.items()), set(heap._ids), heap.threshold


@settings(max_examples=400, deadline=None)
@given(
    k=st.integers(1, 6),
    true_distances=st.lists(
        # Few distinct values: ties at the k-th place across ids.
        st.sampled_from([0.0, 1.0, 1.0, 2.5, 2.5, 4.0, float("inf")]),
        max_size=40,
    ),
    seed=st.integers(0, 2**16),
)
def test_property_offer_block_equals_the_per_row_offer_loop(
    k, true_distances, seed
):
    """Same ``items()``, ``_ids`` and ``threshold`` after every block.

    Shaped like an engine pass: some ids seed the heap (at a distance
    that may differ from the one refined later, as the approximate
    probe's does in the last bits), then every id — the seeds again,
    as revisits — arrives exactly once across blocks of any size,
    empty ones and ones larger or smaller than ``k`` included, at its
    true distance or abandoned to ``inf``.  The contract is quantified
    over passes whose revisits change nothing in the per-row loop.
    """
    rng = np.random.default_rng(seed)
    true_distances = np.array(true_distances, dtype=np.float64)
    n = len(true_distances)
    blocked, looped = _BoundedMaxHeap(k), _BoundedMaxHeap(k)
    finite = np.nonzero(np.isfinite(true_distances))[0]
    seeds = rng.permutation(finite)[: rng.integers(0, k + 2)]
    for identifier in seeds:
        seeded_at = true_distances[identifier] + rng.choice([-0.5, 0.0, 0.0, 1.5])
        for heap in (blocked, looped):
            heap.offer(float(seeded_at), int(identifier))
    order = rng.permutation(n)
    cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(0, 5)))
    for identifiers in np.split(order, cuts):
        distances = true_distances[identifiers].copy()
        distances[rng.random(len(identifiers)) < 0.2] = np.inf
        blocked.offer_block(distances, identifiers)
        for distance, identifier in zip(distances, identifiers):
            before = _heap_state(looped)
            reference_offer_block(looped, [distance], [identifier])
            assume(identifier not in seeds or _heap_state(looped) == before)
        assert _heap_state(blocked) == _heap_state(looped)


def test_offer_block_cuts_a_block_to_the_pairs_that_can_be_retained(monkeypatch):
    offered = []
    original = _BoundedMaxHeap.offer

    def counting(self, distance, identifier):
        offered.append(identifier)
        original(self, distance, identifier)

    monkeypatch.setattr(_BoundedMaxHeap, "offer", counting)
    heap = _BoundedMaxHeap(3)
    heap.offer(2.0, 7)  # the seed, revisited below
    offered.clear()
    distances = np.array([5.0, 2.0, 9.0, 1.0, 2.0, 8.0, 2.0, 7.0])
    identifiers = np.array([10, 7, 11, 12, 4, 13, 3, 14])
    heap.offer_block(distances, identifiers)
    # k + len(heap) = 4 smallest pairs, distance ties ranked by id.
    assert offered == [7, 12, 4, 3]
    assert heap.sorted_items() == [(1.0, 12), (2.0, 3), (2.0, 4)]
    offered.clear()
    heap.offer_block(distances + 10.0, identifiers + 100)
    assert offered == []  # nothing at or below the threshold


# ---------------------------------------------------------------- scan
def test_sims_knn_scan_matches_brute_force():
    rng = np.random.default_rng(0)
    data = random_walk(200, length=64, seed=1)
    words = WordColumn(CONFIG, sax_words(data, CONFIG))

    def fetch(positions):
        return data[positions].astype(np.float64), positions

    query = random_walk(1, length=64, seed=2)[0]
    for k in (1, 3, 10):
        outcome = sims_knn_scan(query, k, words, CONFIG, fetch)
        want_ids, want_dists = brute_force_knn(query, data, k)
        np.testing.assert_allclose(outcome.distances, want_dists, rtol=1e-6)
        assert set(outcome.answer_ids) == set(want_ids)


def test_knn_distances_sorted_ascending():
    data = random_walk(100, length=64, seed=3)
    words = WordColumn(CONFIG, sax_words(data, CONFIG))
    query = random_walk(1, length=64, seed=4)[0]
    outcome = sims_knn_scan(
        query, 5, words, CONFIG,
        lambda p: (data[p].astype(np.float64), p),
    )
    assert outcome.distances == sorted(outcome.distances)


# --------------------------------------------------------------- index
@pytest.mark.parametrize("materialized", [False, True])
def test_index_exact_knn_matches_brute_force(materialized):
    index, data = build_index(n=300, seed=5, materialized=materialized)
    query = random_walk(1, length=64, seed=6)[0]
    for k in (1, 5):
        outcome = index.exact_knn(query, k)
        want_ids, want_dists = brute_force_knn(query, data, k)
        np.testing.assert_allclose(outcome.distances, want_dists, rtol=1e-6)


def test_index_knn_k1_equals_exact_search():
    index, _ = build_index(n=250, seed=7)
    query = random_walk(1, length=64, seed=8)[0]
    knn = index.exact_knn(query, 1)
    exact = index.exact_search(query)
    assert knn.distances[0] == pytest.approx(exact.distance, rel=1e-9)
    assert knn.answer_ids[0] == exact.answer_idx


def test_index_knn_prunes_and_charges_io():
    index, _ = build_index(n=600, seed=9)
    query = random_walk(1, length=64, seed=10)[0]
    outcome = index.exact_knn(query, 3)
    assert outcome.pruned_fraction > 0.0
    assert outcome.simulated_io_ms > 0.0


def test_knn_with_k_exceeding_dataset():
    index, data = build_index(n=20, seed=11)
    query = random_walk(1, length=64, seed=12)[0]
    outcome = index.exact_knn(query, 50)
    assert len(outcome.answer_ids) == 20
    assert outcome.distances == sorted(outcome.distances)


# ------------------------------------------------- exact-path identity
ENGINE_CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
ENGINE_MAKERS = {
    "CTree": lambda disk: CoconutTree(
        disk, 1 << 20, config=ENGINE_CONFIG, leaf_size=32
    ),
    "CTreeFull": lambda disk: CoconutTree(
        disk, 1 << 20, config=ENGINE_CONFIG, leaf_size=32, materialized=True
    ),
    "CTrie": lambda disk: CoconutTrie(
        disk, 1 << 20, config=ENGINE_CONFIG, leaf_size=32
    ),
    "LSM": lambda disk: CoconutLSM(disk, 1 << 12, config=ENGINE_CONFIG),
}


def _reference_mindist_block(query_paa, index, config):
    """The per-cell reference behind ``WordColumn.lower_bounds``, which
    hands the kernel a (range of a) ``CellIndex``: decode its words."""
    segment_base = np.arange(len(index.cells)) * config.cardinality
    words = (index.cells - segment_base[:, None]).T
    query_paa = np.asarray(query_paa, dtype=np.float64)
    if query_paa.ndim == 1:
        return reference_mindist_paa_to_words(query_paa, words, config)
    return np.stack(
        [reference_mindist_paa_to_words(row, words, config) for row in query_paa]
    ).reshape(len(query_paa), len(words))


def _use_reference_kernels(monkeypatch):
    import repro.core.summary_column

    # The one binding every engine's scan passes through.
    monkeypatch.setattr(
        repro.core.summary_column, "mindist_paa_to_words", _reference_mindist_block
    )
    monkeypatch.setattr(_BoundedMaxHeap, "offer_block", reference_offer_block)


@pytest.mark.parametrize("name", sorted(ENGINE_MAKERS))
def test_exact_batches_visit_and_answer_as_the_reference_kernels_do(name):
    """New kernels vs the ones they replaced, through ``query_batch``.

    Answers, per-query visited counts and every ``DiskStats`` counter
    must be equal: the lower bounds are the same floats and the heaps
    hold the same pairs after every block, so no engine decision moves.
    """
    disk = SimulatedDisk(page_size=2048)
    # More than one refine block, so thresholds tighten between blocks
    # in every cell.
    data = make_dataset("randomwalk", 9300, length=48, seed=17)
    raw = RawSeriesFile.create(disk, data[:9000])
    index = ENGINE_MAKERS[name](disk)
    index.build(raw)
    if name == "LSM":  # several runs plus a memtable
        for start in range(9000, 9300, 100):
            index.insert_batch(data[start : start + 100])
        assert index.n_runs > 1 and index._mem_records
    queries = query_workload("randomwalk", 6, length=48, seed=19)
    index.query_batch(QueryBatch(queries=queries, k=1))  # summary-load warmup

    def run(k):
        disk.park_head()
        report = index.query_batch(QueryBatch(queries=queries, k=k))
        return (
            report.knn_ids,
            report.knn_distances,
            [result.visited_records for result in report.results],
            report.io,
        )

    cells = (1, 3, 10)
    got = [run(k) for k in cells]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _use_reference_kernels(monkeypatch)
        want = [run(k) for k in cells]
    for cell, new, reference in zip(cells, got, want):
        assert new == reference, (name, cell)
    for _, _, visited, io in got:
        assert io.bytes_read and min(visited) < 9000  # pruned


def test_a_batch_offers_a_few_pairs_per_query_not_every_refined_row(monkeypatch):
    """64 queries, k = 10, 15 000 records: < 10 000 ``offer`` calls
    (335 370 when every refined row was offered)."""
    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    disk = SimulatedDisk(page_size=8192)
    raw = RawSeriesFile.create(
        disk, make_dataset("randomwalk", 15_000, length=256, seed=7)
    )
    index = CoconutTree(disk, 1 << 24, config=config, leaf_size=100)
    index.build(raw)
    queries = query_workload("randomwalk", 64, length=256, seed=7)
    calls = [0]
    original = _BoundedMaxHeap.offer

    def counting(self, distance, identifier):
        calls[0] += 1
        original(self, distance, identifier)

    monkeypatch.setattr(_BoundedMaxHeap, "offer", counting)
    report = index.query_batch(QueryBatch(queries=queries, k=10))
    assert all(len(ids) == 10 for ids in report.knn_ids)
    assert 0 < calls[0] < 10_000
