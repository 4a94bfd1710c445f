"""Bound-ordered refine against the refine-every-row oracle.

``repro.core.knn.refine_block`` refines a fetched block's lowest-bound
rows first while a heap is short of k entries, then only the rows whose
bound can still enter it.  ``tests/oracles.py::refine_every_row`` is the
step it replaced: one distance per fetched row.  Pinned here:

* **Same heaps** — ``walk_candidate_blocks`` (from ``seeded_heaps``)
  and ``sims_knn_scan`` keep the same ``(distance, id)`` pairs, bit for
  bit and in the same tie order, visit the same rows and fetch the same
  positions as the oracle, over random walks with duplicated and
  constant rows, any ``k``, seed lists and block size.
* **Same reports** — ``exact_knn`` and ``query_batch`` of the Tree,
  Trie and LSM return the ids, distances, visited counts and
  ``DiskStats`` of a run with the oracle patched in.
* **The saving** — with a short heap the distance kernel sees fewer
  than half the fetched rows; with a heap the seeds already fill, it
  sees exactly the oracle's rows in one call per query per block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import repro.core.knn
import repro.parallel.batch
from oracles import refine_every_row
from repro import QueryBatch, RawSeriesFile, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.knn import sims_knn_scan
from repro.core.summary_column import WordColumn
from repro.parallel.batch import batched_exact_knn, seeded_heaps, walk_candidate_blocks
from repro.series import euclidean_batch, query_workload, random_walk
from repro.summaries import SAXConfig, paa, sax_words

def use_refine(monkeypatch, refine):
    """Route both callers of ``refine_block`` to ``refine``."""
    monkeypatch.setattr(repro.core.knn, "refine_block", refine)
    monkeypatch.setattr(repro.parallel.batch, "refine_block", refine)


def exact_pairs(heap):
    """Retained pairs in tie order, distances as their exact bits."""
    return [(distance.hex(), identifier) for distance, identifier in heap.sorted_items()]


# ------------------------------------------------------------ the heaps
PROPERTY_CONFIGS = {
    "loose": SAXConfig(series_length=16, word_length=4, cardinality=8),
    # One segment per point: bounds close to the distances, so the
    # threshold filter decides rows right at the k-th distance.
    "tight": SAXConfig(series_length=16, word_length=16, cardinality=256),
}


@settings(max_examples=200, deadline=None)
@given(
    n_walks=st.integers(1, 150),
    n_duplicated=st.integers(0, 40),
    n_constant=st.integers(0, 10),
    n_queries=st.integers(1, 3),
    k_choice=st.sampled_from(["1", "2", "10", "n+3"]),
    block_records=st.sampled_from([7, 64, 4096]),
    first_rows=st.sampled_from([1, 3, repro.core.knn.REFINE_FIRST_ROWS]),
    bounds=st.sampled_from(sorted(PROPERTY_CONFIGS)),
    seed=st.integers(0, 2**16),
)
def test_property_bound_ordered_refine_matches_refine_oracle(
    n_walks, n_duplicated, n_constant, n_queries, k_choice, block_records,
    first_rows, bounds, seed,
):
    config = PROPERTY_CONFIGS[bounds]
    rng = np.random.default_rng(seed)
    walks = random_walk(n_walks, length=16, seed=seed).astype(np.float32)
    data = np.concatenate([
        walks,
        walks[rng.integers(0, n_walks, size=n_duplicated)],
        np.full((n_constant, 16), rng.standard_normal(), dtype=np.float32),
    ])
    data = data[rng.permutation(len(data))]
    n = len(data)
    k = n + 3 if k_choice == "n+3" else int(k_choice)
    queries = random_walk(n_queries, length=16, seed=seed + 1).astype(np.float64)
    queries[0] = data[rng.integers(0, n)]  # exact hits and their duplicates
    seeds = []
    for query in queries:
        # Probe-style seeds at their refined distance; the block
        # revisits every one of them.
        ids = rng.choice(n, size=min(int(rng.integers(0, k + 3)), n), replace=False)
        distances = euclidean_batch(query, data[ids])
        seeds.append([(float(d), int(i)) for d, i in zip(distances, ids)])
    column = WordColumn(config, sax_words(data, config))
    mindists = column.lower_bounds(paa(queries, config.word_length))
    thresholds = np.array([h.threshold for h in seeded_heaps(n_queries, k, seeds)])
    union = np.nonzero((mindists < thresholds[:, None]).any(axis=0))[0]

    def fetching(log):
        def fetch(positions):
            log.append(positions.tolist())
            return data[positions], positions
        return fetch

    def walk():
        """The batched engine's fetch phase over the candidate union."""
        heaps = seeded_heaps(n_queries, k, seeds)
        log = []
        visited = walk_candidate_blocks(
            queries, heaps, mindists, union, fetching(log), block_records
        )
        return [exact_pairs(h) for h in heaps], visited.tolist(), log

    def scan(query, query_seeds):
        log = []
        outcome = sims_knn_scan(
            query, k, column, config, fetching(log),
            seed_distances=query_seeds, block_records=block_records,
        )
        pairs = [(d.hex(), i) for d, i in zip(outcome.distances, outcome.answer_ids)]
        return pairs, outcome.visited_records, log

    def run():
        return walk(), [scan(query, s) for query, s in zip(queries, seeds)]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(repro.core.knn, "REFINE_FIRST_ROWS", first_rows)
        got = run()
        use_refine(monkeypatch, refine_every_row)
        want = run()
    assert got == want


# ------------------------------------------------------------ the reports
TABLE_CONFIG = SAXConfig(series_length=48, word_length=8, cardinality=64)
TABLE_MAKERS = {
    "CTree": lambda disk: CoconutTree(disk, 1 << 20, config=TABLE_CONFIG, leaf_size=32),
    "CTrie": lambda disk: CoconutTrie(disk, 1 << 20, config=TABLE_CONFIG, leaf_size=32),
    "LSM": lambda disk: CoconutLSM(disk, 1 << 12, config=TABLE_CONFIG),
}


@pytest.mark.parametrize("name", sorted(TABLE_MAKERS))
def test_exact_knn_and_batches_equal_the_refine_oracle(name, monkeypatch):
    """k = 10 over 6 000 records: two refine blocks, so thresholds
    tighten between blocks as well as inside the first one."""
    disk = SimulatedDisk(page_size=2048)
    data = make_dataset("randomwalk", 6200, length=48, seed=23)
    index = TABLE_MAKERS[name](disk)
    index.build(RawSeriesFile.create(disk, data[:6000]))
    if name == "LSM":  # several runs plus a memtable
        for start in range(6000, 6200, 100):
            index.insert_batch(data[start : start + 100])
    queries = query_workload("randomwalk", 5, length=48, seed=29)
    batch = QueryBatch(queries=queries, k=10)
    index.query_batch(batch)  # summary-load warmup

    def run():
        outcomes = []
        for query in queries:
            disk.park_head()
            outcome = index.exact_knn(query, 10)
            outcomes.append((
                outcome.answer_ids,
                [d.hex() for d in outcome.distances],
                outcome.visited_records,
                outcome.io,
            ))
        disk.park_head()
        report = index.query_batch(batch)
        return outcomes, (
            report.knn_ids,
            [[d.hex() for d in row] for row in report.knn_distances],
            [result.visited_records for result in report.results],
            report.io,
        )

    got = run()
    use_refine(monkeypatch, refine_every_row)
    assert got == run()
    assert all(len(ids) == 10 for ids in got[1][0])


# ------------------------------------------------------------ the saving
SAVING_CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)


@pytest.fixture(scope="module")
def probed():
    """2 000 random-walk rows, 8 queries and each query's probe seed."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(2000, length=64, seed=31)
    tree = CoconutTree(disk, 1 << 20, config=SAVING_CONFIG, leaf_size=32)
    tree.build(RawSeriesFile.create(disk, data))
    queries = random_walk(8, length=64, seed=37)
    seeds = []
    for query in queries:
        probe = tree.approximate_search(query)
        seeds.append([(probe.distance, probe.answer_idx)])
    column = WordColumn(SAVING_CONFIG, sax_words(data, SAVING_CONFIG))
    return data, queries, seeds, column


def kernel_rows(monkeypatch, refine, run):
    """Rows per distance-kernel call and rows fetched while ``run()``."""
    calls, fetched = [], [0]
    kernel = repro.core.knn.early_abandon_euclidean_block

    def counting(query, block, best_so_far):
        calls.append(len(block))
        return kernel(query, block, best_so_far)

    with pytest.MonkeyPatch.context() as patch:
        for module in (repro.core.knn, oracles):
            patch.setattr(module, "early_abandon_euclidean_block", counting)
        if refine is not None:
            use_refine(patch, refine)
        run(fetched)
    return calls, fetched[0]


def scan_all(data, queries, seeds, column, k):
    def run(fetched):
        def fetch(positions):
            fetched[0] += len(positions)
            return data[positions], positions
        for query, query_seeds in zip(queries, seeds):
            sims_knn_scan(query, k, column, SAVING_CONFIG, fetch, seed_distances=query_seeds)
    return run


def batch_all(data, queries, seeds, column, k):
    def run(fetched):
        outcomes = batched_exact_knn(
            queries, k, column, SAVING_CONFIG, lambda p: (data[p], p), seeds
        )
        fetched[0] += sum(outcome.visited_records for outcome in outcomes)
    return run


ENGINES = {"sims_knn_scan": scan_all, "batched_exact_knn": batch_all}


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_short_heap_refines_under_half_the_fetched_rows(probed, engine, monkeypatch):
    """k = 10 from one probe seed: the heap is short for the first
    block, which holds every record."""
    run = ENGINES[engine](*probed, k=10)
    calls, fetched = kernel_rows(monkeypatch, None, run)
    want_calls, want_fetched = kernel_rows(monkeypatch, refine_every_row, run)
    assert fetched == want_fetched == sum(want_calls)
    assert 0 < sum(calls) < fetched / 2


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_full_heap_refines_as_the_oracle_in_one_call_per_block(
    probed, engine, monkeypatch
):
    """k = 1 from one probe seed: the heap starts full, so every block
    is refined in the one call the oracle makes, with the same rows."""
    _, queries, _, _ = probed
    run = ENGINES[engine](*probed, k=1)
    calls, _ = kernel_rows(monkeypatch, None, run)
    want_calls, _ = kernel_rows(monkeypatch, refine_every_row, run)
    assert calls == want_calls
    assert len(calls) == len(queries)  # 2 000 records: one block
