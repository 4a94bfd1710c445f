"""One query engine: ``query_workers`` is inert, and the batched pass.

Every ``query_batch`` runs on the calling thread: the paper's single
forward SIMS pass for exact batches, the shared-probe pass for
approximate ones, the brute-force scan's one pass for ``SerialScan``.
Pinned here:

* **``query_workers`` is inert** — on the Tree (secondary and
  materialized), the Trie, the LSM and ``SerialScan``, for exact and
  approximate batches and ``k`` in {1, 4}, every accepted
  ``query_workers`` gives the ids, distance bits, tie order,
  ``report.io`` and ``disk.trace`` of ``query_workers=1``.  The service
  serves the same tickets and ``DiskStats`` at ``query_workers=2`` as
  at 1.
* **It is still checked** — anything but an integer or ``None`` raises
  ``ValueError`` on every index before a page is read
  (``ServiceConfig``: ``tests/test_service.py``), and so do a batch
  of the wrong length and seeds no heap can hold, before any fetch.
* **The engine's plumbing** — the ``MAX_MINDIST_CELLS`` sub-batch split
  (odd sizes, seed routing) and the offer-order-independent heap.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CoconutService,
    QueryBatch,
    RawSeriesFile,
    SerialScan,
    ServiceConfig,
    SimulatedDisk,
    make_dataset,
)
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.knn import _BoundedMaxHeap
from repro.core.sims import sims_scan
from repro.indexes import ADSIndex, DSTree, ISAX2Index, RTreeIndex, VerticalIndex
from repro.parallel import resolve_workers
from repro.parallel import batch as batch_module
from repro.parallel.batch import batched_exact_knn
from repro.series import query_workload
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
N_SERIES = 600
MEMORY = 1 << 20

INDEX_MAKERS = {
    "CTree": lambda disk: CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32),
    "CTreeFull": lambda disk: CoconutTree(
        disk, MEMORY, config=CONFIG, leaf_size=32, materialized=True
    ),
    "CTrie": lambda disk: CoconutTrie(disk, MEMORY, config=CONFIG, leaf_size=32),
    "LSM": lambda disk: CoconutLSM(disk, MEMORY, config=CONFIG),
    "Serial": lambda disk: SerialScan(disk, MEMORY),
}
INERT_WORKERS = [None, 0, -1, 2, 3]
CASES = {"exact-k1": ("exact", 1), "exact-k4": ("exact", 4), "approximate": ("approximate", 1)}


def _built(name, n_series=N_SERIES, n_duplicated=0):
    """``name`` over ``n_series`` rows, the first ``n_duplicated`` of
    them stored twice (the copies last)."""
    disk = SimulatedDisk(page_size=2048, trace=True)
    data = make_dataset("randomwalk", n_series - n_duplicated, length=48, seed=11)
    data = np.concatenate([data, data[:n_duplicated]])
    index = INDEX_MAKERS[name](disk)
    index.build(RawSeriesFile.create(disk, data))
    return index


# ----------------------------------------------------------------------
# query_workers is inert
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(INDEX_MAKERS))
def test_query_workers_changes_nothing(name, case):
    mode, k = CASES[case]
    index = _built(name, n_duplicated=60)
    disk = index.disk
    # Rows 5 and 77 are stored twice: their copies tie at distance 0.
    queries = np.concatenate([
        query_workload("randomwalk", 4, length=48, seed=13),
        [index.raw.get(5), index.raw.get(77)],
    ])
    batch = QueryBatch(queries=queries, k=k, mode=mode)
    index.query_batch(batch)  # summary-load warmup

    def run(workers):
        disk.park_head()
        mark = len(disk.trace)
        report = index.query_batch(batch, query_workers=workers)
        return (
            report.knn_ids,
            [[distance.hex() for distance in row] for row in report.knn_distances],
            report.io,
            disk.trace[mark:],
        )

    serial = run(1)
    assert serial[3]  # the batch read pages
    for workers in INERT_WORKERS:
        assert run(workers) == serial, (name, case, workers)


def _served(workers):
    disk = SimulatedDisk(page_size=2048, trace=True)
    data = make_dataset("randomwalk", 900, length=48, seed=17)
    queries = query_workload("randomwalk", 5, length=48, seed=19)
    service = CoconutService(
        disk, RawSeriesFile.create(disk, data[:500]), 1 << 14, sax_config=CONFIG,
        config=ServiceConfig(query_workers=workers), size_ratio=2,
    )
    service.bootstrap()
    answers = []
    for lo in range(500, len(data), 100):
        service.ingest(data[lo : lo + 100])
        tickets = [service.submit(query, k=k) for query in queries for k in (1, 4)]
        tickets += [service.submit(query, mode="approximate") for query in queries]
        service.serve_pending()
        answers.append([
            (t.status, t.degraded, t.snapshot_series, t.knn_ids, t.knn_distances)
            for t in tickets
        ])
    service.stop()
    return answers, disk.stats, disk.trace


def test_service_query_workers_changes_nothing():
    serial = _served(1)
    assert all(t[0] == "served" for batch in serial[0] for t in batch)
    assert _served(2) == serial


# ----------------------------------------------------------------------
# ... and still checked
# ----------------------------------------------------------------------
CHECK_CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)
EVERY_INDEX = {
    "CTree": lambda disk: CoconutTree(disk, MEMORY, config=CHECK_CONFIG, leaf_size=32),
    "CTrie": lambda disk: CoconutTrie(disk, MEMORY, config=CHECK_CONFIG, leaf_size=32),
    "LSM": lambda disk: CoconutLSM(disk, MEMORY, config=CHECK_CONFIG),
    "Serial": lambda disk: SerialScan(disk, MEMORY),
    "ADS+": lambda disk: ADSIndex(disk, MEMORY, config=CHECK_CONFIG, leaf_size=32),
    "iSAX2.0": lambda disk: ISAX2Index(disk, MEMORY, config=CHECK_CONFIG, leaf_size=32),
    "DSTree": lambda disk: DSTree(disk, MEMORY, leaf_size=32),
    "R-tree": lambda disk: RTreeIndex(disk, MEMORY, leaf_size=32),
    "Vertical": lambda disk: VerticalIndex(disk, MEMORY),
}


@pytest.mark.parametrize("mode", ["exact", "approximate"])
@pytest.mark.parametrize("name", sorted(EVERY_INDEX))
def test_non_integer_query_workers_is_refused_before_any_read(name, mode):
    disk = SimulatedDisk(page_size=2048)
    data = make_dataset("randomwalk", 100, length=64, seed=3)
    index = EVERY_INDEX[name](disk)
    index.build(RawSeriesFile.create(disk, data))
    batch = QueryBatch(queries=data[:2], mode=mode)
    before = disk.snapshot()
    for workers in (2.5, "2", True):
        with pytest.raises(ValueError, match="workers"):
            index.query_batch(batch, query_workers=workers)
    assert disk.snapshot() == before


@pytest.mark.parametrize("name", sorted(EVERY_INDEX))
def test_wrong_length_batch_is_refused_before_any_read(name):
    disk = SimulatedDisk(page_size=2048)
    data = make_dataset("randomwalk", 100, length=64, seed=3)
    index = EVERY_INDEX[name](disk)
    index.build(RawSeriesFile.create(disk, data))
    before = disk.snapshot()
    with pytest.raises(ValueError):
        index.query_batch(QueryBatch(queries=data[:2, :32], k=2))
    assert disk.snapshot() == before


@pytest.mark.parametrize(
    "requested,expected",
    [
        (None, os.cpu_count() or 1), (0, os.cpu_count() or 1),
        (-1, os.cpu_count() or 1), (1, 1), (3, 3), (np.int64(2), 2),
        (2.5, ValueError), ("2", ValueError), (True, ValueError),
    ],
)
def test_resolve_workers(requested, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(requested)
    else:
        assert resolve_workers(requested) == expected


# ----------------------------------------------------------------------
# MAX_MINDIST_CELLS sub-batch splitting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_queries", [3, 5, 7])  # odd sizes split unevenly
def test_split_batches_pin_to_unsplit_answers(monkeypatch, n_queries):
    queries = query_workload("randomwalk", n_queries, length=48, seed=29)
    index = _built("CTree")
    batch = QueryBatch(queries=queries, k=3)
    whole = index.query_batch(batch)
    # Force every recursion level to split: cap just above one query row.
    monkeypatch.setattr(batch_module, "MAX_MINDIST_CELLS", N_SERIES + 1)
    split = index.query_batch(batch)
    assert split.knn_ids == whole.knn_ids
    assert split.knn_distances == whole.knn_distances


def test_split_batches_route_seeds_with_their_queries(monkeypatch):
    """Seeds must follow their query through the recursion halves."""
    index = _built("CTree", n_series=300)
    queries = query_workload("randomwalk", 5, length=48, seed=19)
    words, fetch = index._prepare_sims()
    # Distinct, asymmetric seeds per query: if the split mis-routed
    # them, some query would start from the wrong bound and visit (or
    # prune) differently enough to change its heap.
    seeds = [
        [(float(i) * 0.25 + 0.5, i * 3)] for i in range(len(queries))
    ]
    whole = batched_exact_knn(queries, 2, words, index.config, fetch, seeds)
    monkeypatch.setattr(batch_module, "MAX_MINDIST_CELLS", 300 + 1)
    split = batched_exact_knn(queries, 2, words, index.config, fetch, seeds)
    assert [o.answer_ids for o in split] == [o.answer_ids for o in whole]
    assert [o.distances for o in split] == [o.distances for o in whole]


def test_split_preserves_seed_identity_in_answers(monkeypatch):
    """A seeded id that belongs in the top-k survives the split path."""
    index = _built("CTree")
    queries = np.asarray(
        [index.raw.get(7), index.raw.get(123), index.raw.get(256)],
        dtype=np.float64,
    )
    words, fetch = index._prepare_sims()
    seeds = [[(0.0, 7)], [(0.0, 123)], [(0.0, 256)]]
    monkeypatch.setattr(batch_module, "MAX_MINDIST_CELLS", N_SERIES + 1)
    outcomes = batched_exact_knn(queries, 1, words, index.config, fetch, seeds)
    assert [o.answer_ids[0] for o in outcomes] == [7, 123, 256]
    assert [o.distances[0] for o in outcomes] == [0.0, 0.0, 0.0]


def _seed_lists(n_seeds):
    seeds = [[(1.0, i)] for i in range(n_seeds)]
    return lambda queries, words, config, fetch: batched_exact_knn(
        queries, 2, words, config, fetch, seeds
    )


#: Seeds no heap can hold, each once silently dropped.  Seed lists are
#: zipped with their queries: extra ones were dropped and missing ones
#: left heaps unseeded.  A ``sims_scan`` bound with no answer id let
#: the scan answer ``-1`` at a finite distance.
REFUSED_SEEDS = {
    "0": _seed_lists(0),
    "2": _seed_lists(2),
    "4": _seed_lists(4),
    "bound-without-answer": lambda queries, words, config, fetch: sims_scan(
        queries[0], words, config, fetch, initial_bsf=1.0
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_SEEDS))
def test_seeds_no_heap_can_hold_are_refused_before_any_fetch(case):
    index = _built("CTree", n_series=300)
    queries = query_workload("randomwalk", 3, length=48, seed=19)
    words, fetch = index._prepare_sims()
    fetched = []

    def logging_fetch(positions):
        fetched.append(positions)
        return fetch(positions)

    with pytest.raises(ValueError, match="seed|initial_answer"):
        REFUSED_SEEDS[case](queries, words, index.config, logging_fetch)
    assert fetched == []


# ----------------------------------------------------------------------
# The bounded heap
# ----------------------------------------------------------------------
def test_bounded_heap_is_offer_order_independent():
    """Retained set = k lex-smallest (distance, id), however offered."""
    pairs = [(5.0, 2), (5.0, 8), (3.0, 4), (5.0, 1), (7.0, 0), (3.0, 9)]
    reference = None
    for permutation in itertools.permutations(pairs):
        heap = _BoundedMaxHeap(3)
        for distance, identifier in permutation:
            heap.offer(distance, identifier)
        items = heap.sorted_items()
        if reference is None:
            reference = items
        assert items == reference
    assert reference == [(3.0, 4), (3.0, 9), (5.0, 1)]


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 8),
    pairs=st.lists(
        st.tuples(st.integers(0, 5).map(float), st.integers(0, 60)),
        unique_by=lambda pair: pair[1],
        max_size=40,
    ),
    data=st.data(),
)
def test_any_permutation_of_the_same_offers_leaves_the_same_heap(k, pairs, data):
    """The engines rely on it: a heap is a function of the multiset of
    offers, never of their order — the k smallest ``(distance, id)``
    pairs, distance ties ranked by id, a repeated offer counted once."""
    offers = list(pairs)
    if pairs:
        offers += data.draw(st.lists(st.sampled_from(pairs), max_size=10))
    permuted = data.draw(st.permutations(offers))
    heaps = [_BoundedMaxHeap(k), _BoundedMaxHeap(k)]
    for heap, stream in zip(heaps, (offers, permuted)):
        for distance, identifier in stream:
            heap.offer(distance, identifier)
    assert heaps[0].sorted_items() == heaps[1].sorted_items() == sorted(pairs)[:k]
