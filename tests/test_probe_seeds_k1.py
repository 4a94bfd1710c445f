"""Only a 1-NN exact search is seeded from the approximate probe.

Algorithm 5 seeds SIMS with the probe's one answer, which fills a 1-NN
heap.  A heap of ``k > 1`` would still be short after it, and the engine
primes a short heap from its lowest-bound rows anyway, so every Coconut
index's ``k > 1`` exact batch and ``exact_knn`` run unseeded
(``SIMSIndex._probe_seeds``), as a served exact ticket does.  Pinned
here on Tree, Tree-Full, Trie and LSM:

* **No probe at k > 1** — with ``_seed`` and ``_approximate_batch``
  made to raise, ``query_batch`` and ``exact_knn`` answer brute force
  for ``k`` in {2, 10, 65, n + 5}, with duplicate rows tying the k-th
  distance ranked by id.
* **A probe at k = 1** — the exact batch runs one shared probe pass,
  ``exact_knn`` one probe per query, and both answer as
  ``exact_search`` does.
* **The saving** — a ``k = 10`` exact batch on a 4 000-row random-walk
  Tree reads no leaf-file page, and its ``DiskStats`` are those of the
  summary load plus an unseeded ``batched_exact_knn``.
"""

import numpy as np
import pytest
from test_served_verification import pages_read
from test_service import _lex_knn

from repro import QueryBatch, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.parallel.batch import batched_exact_knn
from repro.series import query_workload, random_walk
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=32, word_length=8, cardinality=64)
MAKERS = {
    "CTree": lambda disk: CoconutTree(disk, 1 << 20, config=CONFIG, leaf_size=24),
    "CTreeFull": lambda disk: CoconutTree(
        disk, 1 << 20, config=CONFIG, leaf_size=24, materialized=True
    ),
    "CTrie": lambda disk: CoconutTrie(disk, 1 << 20, config=CONFIG, leaf_size=24),
    "LSM": lambda disk: CoconutLSM(disk, 1 << 12, config=CONFIG),
}
#: Rows: at most 64 (the walk alone, nothing primed) and more (primed).
SIZES = [40, 300]
N_TIES = 3


def tied_rows(n, k, seed):
    """``n`` rows and three queries; the first query's k-th nearest row is
    stored ``N_TIES + 1`` times, so the cut there is a tie decided by id."""
    walks = random_walk(n - N_TIES, length=32, seed=seed).astype(np.float32)
    queries = random_walk(3, length=32, seed=seed + 1).astype(np.float64)
    queries[0] = walks[n // 2] + 0.01
    distances = np.sum((walks.astype(np.float64) - queries[0]) ** 2, axis=1)
    kth = np.argsort(distances, kind="stable")[min(k, len(walks)) - 1]
    rows = np.concatenate([walks, np.repeat(walks[kth : kth + 1], N_TIES, axis=0)])
    return rows[np.random.default_rng(seed).permutation(n)], queries


def build(make, rows):
    disk = SimulatedDisk(page_size=1024)
    index = make(disk)
    index.build(RawSeriesFile.create(disk, rows))
    return index


def refuse(*args, **kwargs):
    raise AssertionError("the approximate probe ran")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("k_choice", ["2", "10", "65", "n+5"])
@pytest.mark.parametrize("name", MAKERS)
def test_a_k_above_one_runs_no_probe_and_answers_brute_force(name, k_choice, n):
    k = n + 5 if k_choice == "n+5" else int(k_choice)
    rows, queries = tied_rows(n, k, seed=n + k)
    index = build(MAKERS[name], rows)
    index._seed = index._approximate_batch = refuse
    expected = [_lex_knn(rows, query, k) for query in queries]
    report = index.query_batch(QueryBatch(queries, k=k, mode="exact"))
    assert list(zip(report.knn_ids, report.knn_distances)) == [
        tuple(pair) for pair in expected
    ]
    for query, (ids, distances) in zip(queries, expected):
        outcome = index.exact_knn(query, k)
        assert (list(outcome.answer_ids), list(outcome.distances)) == (ids, distances)
        assert outcome.visited_records <= n


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", MAKERS)
def test_a_one_nn_search_still_probes_and_answers_as_exact_search(name, n):
    rows, queries = tied_rows(n, 1, seed=n)
    index = build(MAKERS[name], rows)
    calls = {"_seed": 0, "_approximate_batch": 0}

    def counting(verb):
        real = getattr(index, verb)

        def wrapper(*args, **kwargs):
            calls[verb] += 1
            return real(*args, **kwargs)

        return wrapper

    for verb in calls:
        setattr(index, verb, counting(verb))
    singles = [index.exact_search(query) for query in queries]
    calls.update(_seed=0, _approximate_batch=0)
    report = index.query_batch(QueryBatch(queries, k=1, mode="exact"))
    assert calls["_approximate_batch"] == 1
    calls.update(_seed=0, _approximate_batch=0)
    outcomes = [index.exact_knn(query, 1) for query in queries]
    assert calls == {"_seed": len(queries), "_approximate_batch": 0}
    for query, single, ids, outcome in zip(queries, singles, report.knn_ids, outcomes):
        assert ids == list(outcome.answer_ids) == [single.answer_idx]
        assert outcome.distances == [single.distance]
        assert ids == _lex_knn(rows, query, 1)[0]


def rw_tree():
    """The ``query_rw`` geometry at 4 000 rows: length 256, 100-record
    leaves, 8 KiB pages, memory 5 % of the raw bytes."""
    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    disk = SimulatedDisk(page_size=8192, trace=True)
    data = make_dataset("randomwalk", 4_000, length=256, seed=7)
    tree = CoconutTree(disk, int(data.nbytes * 0.05), config=config, leaf_size=100)
    tree.build(RawSeriesFile.create(disk, data))
    disk.park_head()
    return tree, disk


def test_a_k10_batch_reads_no_leaf_page_and_only_the_unseeded_engine_reads():
    queries = query_workload("randomwalk", 64, length=256, seed=7)

    def run(answer):
        """Answers, ``DiskStats`` and leaf-file pages read of ``answer``
        on a fresh tree."""
        tree, disk = rw_tree()
        leaves = tree._leaf_file
        leaf_pages = {leaves.physical_page(p) for p in range(leaves.n_pages)}
        before, mark = disk.snapshot(), len(disk.trace)
        ids = answer(tree)
        return ids, disk.stats_since(before), pages_read(disk.trace[mark:]) & leaf_pages

    def batch(k):
        return lambda tree: tree.query_batch(QueryBatch(queries, k=k)).knn_ids

    def unseeded(tree):
        column, fetch = tree._prepare_sims()
        outcomes = batched_exact_knn(queries, 10, column, tree.config, fetch)
        return [outcome.answer_ids for outcome in outcomes]

    ids, stats, leaf_reads = run(batch(10))
    assert not leaf_reads
    assert (ids, stats) == run(unseeded)[:2]
    # A 1-NN batch still probes the leaves.
    assert run(batch(1))[2]
