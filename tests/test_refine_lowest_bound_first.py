"""Refine lowest bound first: a bounded block refines about k rows a query.

When the fetch step has bounded a query's kept rows
(``repro.core.sims.fetch_rows_that_can_win`` returns their bounds),
``repro.core.knn.refine_block`` refines the k rows with the lowest
bounds, then only the other kept rows whose bound is ``<=`` the
threshold the heap has after them.  ``tests/oracles.py::refine_kept_rows``
is the reference: every kept row refined in one kernel call and offered
in one ``offer_block``.  Pinned here:

* **Same heap** — one block refined both ways from copies of one heap
  (empty, or seeded from inside and outside the block), with duplicate
  rows tying the k-th distance and ``k`` in {1, 10, 64, 65, n + 5}:
  the same ids, distance bits and tie order, which are also those of
  every row offered on its own.
* **Same reports** — Tree, Trie and LSM ``exact_search``,
  ``exact_knn`` and ``query_batch``, and served exact tickets, on
  seismic data where the bound runs: ids, distance bits, visited
  counts and ``DiskStats`` (a served ticket's trace) equal a run with
  the reference patched in.
* **The saving** — a 4 000 x 256 seismic tree's 64-query ``k = 10``
  batch refines fewer than 1 000 rows in its walk (623; 12 733 when
  every kept row was refined); the prime's 4 096 are unchanged.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.knn
import repro.parallel.batch
from oracles import refine_every_row, refine_kept_rows
from repro import QueryBatch, RawSeriesFile, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.knn import _BoundedMaxHeap, refine_block
from repro.core.sims import bound_will_run, fetch_rows_that_can_win
from repro.series import euclidean_batch, query_workload
from repro.service import CoconutService, ServiceConfig
from repro.summaries import SAXConfig


def hexed(heap):
    """A heap's retained pairs in ``(distance, id)`` order, bits exact."""
    return [(distance.hex(), identifier) for distance, identifier in heap.sorted_items()]


def counting_kernel(patch):
    """Rows per call of the exact kernel the refine steps look up."""
    calls = []
    kernel = repro.core.knn.early_abandon_euclidean_block

    def counted(query, block, best_so_far):
        calls.append(len(block))
        return kernel(query, block, best_so_far)

    patch.setattr(repro.core.knn, "early_abandon_euclidean_block", counted)
    return calls


# ------------------------------------------------------------ the heap
LENGTH = 128  # 256 rows x 128 reach BOUND_MIN_ELEMENTS: the bound runs


@st.composite
def blocks(draw):
    """``(data, ids, query, rows, k, seeds)`` for one fetched block."""
    n = draw(st.integers(256, 320))
    choice = draw(st.sampled_from(["1", "10", "64", "65", "n+5"]))
    k = n + 5 if choice == "n+5" else int(choice)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = rng.standard_normal((n, LENGTH)).astype(np.float32)
    query = data[rng.integers(n)].astype(np.float64)
    query += draw(st.sampled_from([0.0, 1e-3, 0.3, 3.0])) * rng.standard_normal(LENGTH)
    # Copies of the rows ranked near k: distances that tie at the k-th
    # place, decided by id.
    ranked = np.argsort(euclidean_batch(query, data), kind="stable")
    near = ranked[max(0, min(k, n) - 3) : min(k, n) + 2]
    for _ in range(draw(st.integers(0, 40))):
        data[rng.integers(n)] = data[rng.choice(near)]
    ids = 2 * rng.permutation(n) + 1  # odd; seeds outside the block are even
    rows = np.sort(rng.choice(n, size=draw(st.integers(256, n)), replace=False))
    distances = euclidean_batch(query, data)
    # Distinct seed ids, so that a heap seeded with k pairs is full: rows
    # of the block at their exact distances, and ids outside it at
    # distances that tie a block distance or not.
    n_seeds = max(0, draw(st.sampled_from([0, k - 1, k, k + 3, 2 * k])))
    n_inside = min(n, int(n_seeds * draw(st.sampled_from([0.0, 0.5, 1.0]))))
    inside = rng.choice(n, size=n_inside, replace=False)
    outside = 2 * rng.choice(4 * n + 2 * k, size=n_seeds - n_inside, replace=False)
    scale = draw(st.sampled_from([1.0, 0.999, 1.01]))
    tied = distances[rng.integers(n, size=len(outside))] * scale
    seeds = list(zip(distances[inside].tolist(), ids[inside].tolist()))
    seeds += list(zip(tied.tolist(), outside.tolist()))
    return data, ids, query, rows, k, seeds


@settings(max_examples=200, deadline=None)
@given(block=blocks())
def test_property_lowest_bound_first_leaves_the_reference_heap(block):
    data, ids, query, rows, k, seeds = block
    heap = _BoundedMaxHeap(k)
    for distance, identifier in seeds:
        heap.offer(distance, identifier)
    threshold = heap.threshold
    series, identifiers, (kept,), (bounds,) = fetch_rows_that_can_win(
        lambda positions: (data[positions], ids[positions]),
        np.arange(len(data)),
        [(query, rows, threshold)],
    )
    assert (bounds is None) == (not bound_will_run(len(rows), LENGTH, threshold))
    reference, every_row, got = (copy.deepcopy(heap) for _ in range(3))
    refine_kept_rows(query, series, identifiers, kept, reference)
    refine_every_row(query, series, identifiers, rows, every_row)
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_kernel(patch)
        refine_block(query, series, identifiers, kept, got, bounds)
    assert hexed(got) == hexed(reference) == hexed(every_row)
    assert sum(calls) <= len(kept)
    if bounds is not None and len(kept) > k:
        assert calls[0] == k and len(calls) <= 2
    else:
        assert calls == [len(kept)]


def test_a_bounded_block_refines_its_k_lowest_bounds_first():
    """Two rows per distance, k = 3: the three lowest bounds are refined
    first; their threshold lets in only the rows that tie it."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((300, LENGTH)).astype(np.float32)
    data[150:] = data[:150]
    query = data[7].astype(np.float64) + 0.01
    identifiers = np.arange(300)
    rows = np.arange(300)
    distances = euclidean_batch(query, data)
    heap = _BoundedMaxHeap(3)
    for distance, identifier in zip(np.sort(distances)[200:203], [1000, 1001, 1002]):
        heap.offer(float(distance), identifier)
    _, _, (kept,), (bounds,) = fetch_rows_that_can_win(
        lambda positions: (data[positions], identifiers[positions]),
        rows,
        [(query, rows, heap.threshold)],
    )
    assert len(kept) > 100
    reference = copy.deepcopy(heap)
    refine_kept_rows(query, data, identifiers, kept, reference)
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_kernel(patch)
        refine_block(query, data, identifiers, kept, heap, bounds)
    assert hexed(heap) == hexed(reference)
    assert calls[0] == 3 and sum(calls) < 10


# ------------------------------------------------------------ the reports
CONFIG = SAXConfig(series_length=LENGTH, word_length=16, cardinality=256)
MAKERS = {
    "CTree": lambda disk: CoconutTree(disk, 1 << 20, config=CONFIG, leaf_size=64),
    "CTrie": lambda disk: CoconutTrie(disk, 1 << 20, config=CONFIG, leaf_size=64),
    "LSM": lambda disk: CoconutLSM(disk, 1 << 14, config=CONFIG),
}
KS = (1, 10, 65)


def bound_first_refines(patch):
    """Counts of ``refine_block`` calls that take the two steps."""
    taken = [0]
    refine = repro.parallel.batch.refine_block

    def counted(query, series, identifiers, rows, heap, bounds=None):
        taken[0] += bounds is not None and len(rows) > heap.k
        refine(query, series, identifiers, rows, heap, bounds)

    patch.setattr(repro.parallel.batch, "refine_block", counted)
    return taken


@pytest.fixture(scope="module")
def seismic():
    data = make_dataset("seismic", 3200, length=LENGTH, seed=41)
    queries = query_workload("seismic", 6, length=LENGTH, seed=43)
    return data, queries


def run_twice(run):
    """``run()`` as is (asserting the two steps were taken), then with
    the reference refine patched in."""
    with pytest.MonkeyPatch.context() as patch:
        taken = bound_first_refines(patch)
        got = run()
    assert taken[0] > 0  # the bound ran and the two steps were taken
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.parallel.batch, "refine_block", refine_kept_rows)
        want = run()
    return got, want


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_indexes_answer_as_the_reference_refine(name, seismic):
    data, queries = seismic
    disk = SimulatedDisk(page_size=8192)
    index = MAKERS[name](disk)
    index.build(RawSeriesFile.create(disk, data[:3000]))
    if name == "LSM":  # several runs plus a memtable
        for start in range(3000, 3200, 50):
            index.insert_batch(data[start : start + 50])
    index.query_batch(QueryBatch(queries=queries, k=10))  # summary-load warmup

    def run():
        out = []
        for query in queries:
            disk.park_head()
            result = index.exact_search(query)
            out.append((
                result.answer_idx, result.distance.hex(), result.visited_records,
                result.io,
            ))
            for k in KS:
                disk.park_head()
                outcome = index.exact_knn(query, k)
                out.append((
                    outcome.answer_ids, [d.hex() for d in outcome.distances],
                    outcome.visited_records, outcome.io,
                ))
        for k in KS:
            disk.park_head()
            report = index.query_batch(QueryBatch(queries=queries, k=k))
            out.append((
                report.knn_ids,
                [[d.hex() for d in row] for row in report.knn_distances],
                [result.visited_records for result in report.results],
                report.io,
            ))
        return out

    got, want = run_twice(run)
    assert got == want


def test_served_tickets_answer_as_the_reference_refine(seismic):
    data, queries = seismic
    disk = SimulatedDisk(page_size=8192, trace=True)
    raw = RawSeriesFile.create(disk, data[:2000])
    service = CoconutService(
        disk,
        raw,
        512 * 2 * (CONFIG.key_bytes + 8),
        sax_config=CONFIG,
        config=ServiceConfig(verified_reads=True),
    )
    service.bootstrap()
    for start in range(2000, 3200, 400):
        service.ingest(data[start : start + 400])
    snapshot = service.current_snapshot()
    service.query(queries[0], mode="exact", k=10)  # loads the summaries

    def run():
        out = []
        for query in queries:
            for k in KS:
                mark = len(snapshot.shard.trace)
                ticket = service.query(query, mode="exact", k=k)
                assert ticket.status == "served" and not ticket.degraded
                out.append((
                    list(ticket.knn_ids), [d.hex() for d in ticket.knn_distances],
                    snapshot.shard.trace[mark:],
                ))
        return out

    got, want = run_twice(run)
    assert got == want


# ------------------------------------------------------------ the saving
def test_a_seismic_batch_walk_refines_under_1000_rows():
    """The 4 000 x 256 seismic tree of the ``query_seismic`` geometry:
    its 64-query ``k = 10`` batch fetches one block of ~3 900 rows
    that the SAX bounds cannot prune.  The prime refines 64 rows a
    query; the walk after it refined 12 733 rows when every row the
    Gram bound kept was refined, and refines 623 lowest bound first."""
    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    data = make_dataset("seismic", 4000, length=256, seed=7)
    queries = query_workload("seismic", 64, length=256, seed=11)
    disk = SimulatedDisk(page_size=8192)
    tree = CoconutTree(disk, 4000 * 256 * 4 // 20, config=config, leaf_size=100)
    tree.build(RawSeriesFile.create(disk, data))
    batch = QueryBatch(queries=queries, k=10)
    tree.query_batch(batch)  # loads the summaries
    phase = ["walk"]
    rows = {"prime": 0, "walk": 0}
    kernel = repro.core.knn.early_abandon_euclidean_block
    prime = repro.parallel.batch.prime_short_heaps

    def counted(query, block, best_so_far):
        rows[phase[0]] += len(block)
        return kernel(query, block, best_so_far)

    def priming(*args):
        phase[0] = "prime"
        try:
            return prime(*args)
        finally:
            phase[0] = "walk"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.core.knn, "early_abandon_euclidean_block", counted)
        patch.setattr(repro.parallel.batch, "prime_short_heaps", priming)
        report = tree.query_batch(batch)
    assert rows["prime"] == 64 * 64
    assert sum(result.visited_records for result in report.results) > 64 * 3000
    assert rows["walk"] < 1_000, rows
