"""The parallel query engine's equivalence and determinism contract.

Three guarantees, each pinned here:

* **Answers** — ids, distances and tie order of the multi-worker
  batched engine are bit-identical to the serial batched engine (and
  therefore, transitively through the cross-index suite, to the
  brute-force oracle) for every index variant, worker count, pool kind
  and batch shape.
* **I/O determinism** — the reconciled ``DiskStats`` of a thread-pooled
  run are bit-identical to the serial replay of the same per-worker
  plans (``query_pool_kind="serial"``), the PR 3 contract extended to
  the query path.
* **Engine plumbing** — the ``MAX_MINDIST_CELLS`` sub-batch split
  (odd sizes, seed routing), the order-independent bounded heap and
  the candidate-union partitioning behave as documented.

Worker counts can be widened from CI via ``REPRO_QUERY_WORKERS``
(comma-separated), mirroring the sharded-storage suite.
"""

import os

import numpy as np
import pytest

from repro import QueryBatch, RawSeriesFile, SerialScan, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.knn import _BoundedMaxHeap
from repro.series import query_workload
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
N_SERIES = 600
N_QUERIES = 5
MEMORY = 1 << 20

WORKER_COUNTS = [
    int(w)
    for w in os.environ.get("REPRO_QUERY_WORKERS", "2,3").split(",")
]

INDEX_MAKERS = {
    "CTree": lambda disk: CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32),
    "CTreeFull": lambda disk: CoconutTree(
        disk, MEMORY, config=CONFIG, leaf_size=32, materialized=True
    ),
    "CTrie": lambda disk: CoconutTrie(disk, MEMORY, config=CONFIG, leaf_size=32),
    "CTrieFull": lambda disk: CoconutTrie(
        disk, MEMORY, config=CONFIG, leaf_size=32, materialized=True
    ),
    "LSM": lambda disk: CoconutLSM(disk, MEMORY, config=CONFIG),
    "Serial": lambda disk: SerialScan(disk, MEMORY),
}


@pytest.fixture(scope="module")
def workload():
    data = make_dataset("randomwalk", N_SERIES, length=48, seed=11)
    queries = query_workload("randomwalk", N_QUERIES, length=48, seed=13)
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, data)
    return disk, raw, queries


def _built(name, workload):
    disk, raw, _ = workload
    index = INDEX_MAKERS[name](disk)
    index.build(raw)
    return index


# ----------------------------------------------------------------------
# Answer equivalence: parallel == serial batched, any workers/pool kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(INDEX_MAKERS))
@pytest.mark.parametrize("k", [1, 4])
def test_parallel_answers_bit_identical_for_any_workers(name, workload, k):
    _, _, queries = workload
    index = _built(name, workload)
    batch = QueryBatch(queries=queries, k=k)
    serial = index.query_batch(batch)
    for workers in WORKER_COUNTS + [N_SERIES + 7]:
        for pool_kind in ("thread", "serial"):
            got = index.query_batch(
                batch, query_workers=workers, query_pool_kind=pool_kind
            )
            assert got.knn_ids == serial.knn_ids, (name, k, workers, pool_kind)
            assert got.knn_distances == serial.knn_distances, (
                name, k, workers, pool_kind,
            )
            assert [r.answer_idx for r in got.results] == [
                r.answer_idx for r in serial.results
            ]


@pytest.mark.parametrize("name", ["CTree", "Serial"])
def test_parallel_answers_with_process_and_auto_pools(name, workload):
    """The process pool and its chooser are gone: both kinds are
    rejected before anything is read, whatever the worker count."""
    _, _, queries = workload
    index = _built(name, workload)
    batch = QueryBatch(queries=queries, k=2)
    before = index.disk.snapshot()
    for pool_kind in ("process", "auto"):
        for workers in (1, 2):
            with pytest.raises(ValueError):
                index.query_batch(
                    batch, query_workers=workers, query_pool_kind=pool_kind
                )
    assert index.disk.stats == before


def test_parallel_answers_survive_duplicate_series(workload):
    """Exact ties: duplicated records keep answers worker-invariant."""
    disk = SimulatedDisk(page_size=2048)
    data = make_dataset("randomwalk", 200, length=48, seed=3)
    data = np.concatenate([data, data[:60], data[:20]])  # heavy duplicates
    raw = RawSeriesFile.create(disk, data)
    queries = np.concatenate([data[:2], query_workload("randomwalk", 2, length=48, seed=5)])
    for name in ("Serial", "CTree"):
        index = INDEX_MAKERS[name](disk)
        index.build(raw)
        batch = QueryBatch(queries=queries, k=5)
        serial = index.query_batch(batch)
        for workers in WORKER_COUNTS:
            got = index.query_batch(batch, query_workers=workers)
            assert got.knn_ids == serial.knn_ids, (name, workers)
            assert got.knn_distances == serial.knn_distances, (name, workers)


# ----------------------------------------------------------------------
# I/O determinism: pooled stats == serial replay of the same plans
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(INDEX_MAKERS))
def test_parallel_query_stats_match_serial_replay(name, workload):
    disk, _, queries = workload
    index = _built(name, workload)
    batch = QueryBatch(queries=queries, k=3)
    # The contract quantifies over identical starting states: warm the
    # summary cache (its one-off load is charged to whichever batch
    # runs first) and park the head before each run so the first
    # access of both runs classifies from the same position.
    index.query_batch(batch)
    for workers in WORKER_COUNTS:
        disk.park_head()
        replay = index.query_batch(
            batch, query_workers=workers, query_pool_kind="serial"
        )
        disk.park_head()
        pooled = index.query_batch(
            batch, query_workers=workers, query_pool_kind="thread"
        )
        assert pooled.io == replay.io, (name, workers)
        assert pooled.simulated_io_ms == replay.simulated_io_ms


def test_parallel_query_leaves_parent_disk_consistent(workload):
    """After a parallel batch the parent device accepts ordinary I/O."""
    disk, _, queries = workload
    index = _built("CTree", workload)
    index.query_batch(QueryBatch(queries=queries, k=1), query_workers=2)
    assert not disk.sharded
    page = disk.allocate()
    disk.write_page(page, b"still-writable")
    assert disk.read_page(page)[:14] == b"still-writable"


def test_parallel_query_workers_one_is_the_serial_engine(workload):
    """query_workers=1 must route to the serial batched code path."""
    disk, _, queries = workload
    index = _built("CTree", workload)
    batch = QueryBatch(queries=queries, k=2)
    index.query_batch(batch)  # summary-load warmup
    disk.park_head()
    a = index.query_batch(batch)
    disk.park_head()
    b = index.query_batch(batch, query_workers=1)
    assert a.knn_ids == b.knn_ids
    assert a.io == b.io  # same plan, not just same answers


# ----------------------------------------------------------------------
# Satellite: MAX_MINDIST_CELLS sub-batch splitting
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_queries", [3, 5, 7])  # odd sizes split unevenly
def test_split_batches_pin_to_unsplit_answers(workload, monkeypatch, n_queries):
    from repro.parallel import batch as batch_module

    _, _, _ = workload
    queries = query_workload("randomwalk", n_queries, length=48, seed=29)
    index = _built("CTree", workload)
    batch = QueryBatch(queries=queries, k=3)
    whole = index.query_batch(batch)
    # Force every recursion level to split: cap just above one query row.
    monkeypatch.setattr(batch_module, "MAX_MINDIST_CELLS", N_SERIES + 1)
    split = index.query_batch(batch)
    assert split.knn_ids == whole.knn_ids
    assert split.knn_distances == whole.knn_distances
    # The parallel engine applies the same cap to its per-worker slices.
    parallel_split = index.query_batch(batch, query_workers=2)
    assert parallel_split.knn_ids == whole.knn_ids
    assert parallel_split.knn_distances == whole.knn_distances


def test_split_batches_route_seeds_with_their_queries(monkeypatch):
    """Seeds must follow their query through the recursion halves."""
    from repro.parallel import batch as batch_module
    from repro.parallel.batch import batched_exact_knn

    disk = SimulatedDisk(page_size=2048)
    data = make_dataset("randomwalk", 300, length=48, seed=17)
    raw = RawSeriesFile.create(disk, data)
    index = CoconutTree(disk, MEMORY, config=CONFIG, leaf_size=32)
    index.build(raw)
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


def test_split_preserves_seed_identity_in_answers(workload, monkeypatch):
    """A seeded id that belongs in the top-k survives the split path."""
    from repro.parallel import batch as batch_module
    from repro.parallel.batch import batched_exact_knn

    _, raw, _ = workload
    index = _built("CTree", workload)
    queries = np.asarray(
        [raw.get(7), raw.get(123), raw.get(256)], dtype=np.float64
    )
    words, fetch = index._prepare_sims()
    seeds = [[(0.0, 7)], [(0.0, 123)], [(0.0, 256)]]
    monkeypatch.setattr(batch_module, "MAX_MINDIST_CELLS", N_SERIES + 1)
    outcomes = batched_exact_knn(queries, 1, words, index.config, fetch, seeds)
    assert [o.answer_ids[0] for o in outcomes] == [7, 123, 256]
    assert [o.distances[0] for o in outcomes] == [0.0, 0.0, 0.0]


# ----------------------------------------------------------------------
# Engine internals
# ----------------------------------------------------------------------
def test_bounded_heap_is_offer_order_independent():
    """Retained set = k lex-smallest (distance, id), however offered."""
    import itertools

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


def test_bounded_heap_merge_equals_union_offers():
    rng = np.random.default_rng(0)
    distances = rng.integers(0, 6, size=40).astype(float)
    ids = rng.permutation(40)
    pairs = list(zip(distances.tolist(), ids.tolist()))
    whole = _BoundedMaxHeap(5)
    for d, i in pairs:
        whole.offer(d, i)
    left, right = _BoundedMaxHeap(5), _BoundedMaxHeap(5)
    for d, i in pairs[:23]:
        left.offer(d, i)
    for d, i in pairs[23:]:
        right.offer(d, i)
    left.merge(right)
    assert left.sorted_items() == whole.sorted_items()


def test_partition_ranges_cover_and_order():
    from repro.parallel import partition_ranges

    for n, parts in [(0, 3), (1, 4), (10, 3), (7, 7), (5, 9)]:
        ranges = partition_ranges(n, parts)
        assert len(ranges) == parts
        flat = [i for lo, hi in ranges for i in range(lo, hi)]
        assert flat == list(range(n))


def test_parallel_lower_bound_scan_matches_serial(workload):
    from repro.parallel import parallel_lower_bound_scan
    from repro.summaries.paa import paa
    from repro.summaries.sax import mindist_paa_to_words

    _, _, queries = workload
    index = _built("CTree", workload)
    column, _ = index._prepare_sims()
    query_paa = paa(np.asarray(queries, dtype=np.float64), CONFIG.word_length)
    serial = np.stack(
        [
            mindist_paa_to_words(query_paa[i], column.words, CONFIG)
            for i in range(len(queries))
        ]
    )
    thresholds = np.full(len(queries), np.inf)
    serial_union = np.nonzero((serial < thresholds[:, None]).any(axis=0))[0]
    for workers in [1, 2, 3, 5, len(column) + 3]:
        mindists, union = parallel_lower_bound_scan(
            query_paa, column, thresholds, workers, pool_kind="thread"
        )
        np.testing.assert_array_equal(mindists, serial)
        np.testing.assert_array_equal(union, serial_union)
        assert np.all(np.diff(union) > 0)  # ascending storage order


@pytest.mark.parametrize("name", ["CTree", "Serial"])
def test_parallel_query_rejects_unknown_pool_kind(name, workload):
    _, _, queries = workload
    index = _built(name, workload)
    with pytest.raises(ValueError):
        index.query_batch(
            QueryBatch(queries=queries, k=1),
            query_workers=2,
            query_pool_kind="fuzzy",
        )


def test_parallel_batch_on_approximate_mode_stays_equivalent(workload):
    """SerialScan serves approximate batches through the same pass."""
    _, _, queries = workload
    index = _built("Serial", workload)
    batch = QueryBatch(queries=queries, mode="approximate")
    serial = index.query_batch(batch)
    got = index.query_batch(batch, query_workers=2)
    assert [r.answer_idx for r in got.results] == [
        r.answer_idx for r in serial.results
    ]
