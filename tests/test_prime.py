"""The prime pass of the exact kNN engines.

When the candidate union holds more than ``REFINE_FIRST_ROWS`` rows,
every short heap (threshold ``inf``, ``k <= REFINE_FIRST_ROWS``) first
refines its ``REFINE_FIRST_ROWS`` lowest-bound rows, and the walk runs
over the union recomputed at the primed thresholds
(``repro.parallel.batch.prime_short_heaps``).  Pinned here:

* **Exact** — the primed batch, the one-query scan behind every
  ``exact_knn`` and, at ``k = 1``, ``exact_search``'s ``sims_scan``
  keep the brute-force ``(distance, id)`` pairs, bit for bit and in
  tie order by id, seeded or not and with the Gram bound on every
  block or at its cutoff; they equal the refine-every-row oracle and
  the unprimed walk, and fetch ascending positions only; duplicates
  tie the k-th distance and ``k`` runs from 1 past ``n``.
* **Counted once** — a primed heap is full, so a primed row (its bound
  set to ``inf``) is not fetched again for its query:
  ``visited_records <= n`` and ``0 <= pruned_fraction <= 1`` even on an
  unprunable corpus.
* **The saving** — a 64-query ``k = 10`` batch over 15 000 random-walk
  rows fetches under 1 000 rows per query (over 4 000 unprimed), with
  no more random reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.sims
import repro.parallel.batch
from oracles import refine_every_row
from repro import CoconutTree, QueryBatch, RawSeriesFile, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTrie
from repro.core.sims import sims_scan
from repro.core.summary_column import WordColumn
from repro.indexes import ADSIndex
from repro.parallel.batch import (
    batched_exact_knn,
    candidate_union,
    prime_short_heaps,
    seeded_heaps,
    walk_candidate_blocks,
)
from repro.series import euclidean_batch, query_workload, random_walk
from repro.summaries import SAXConfig, paa, sax_words

CONFIGS = {
    "loose": SAXConfig(series_length=16, word_length=4, cardinality=8),
    "tight": SAXConfig(series_length=16, word_length=16, cardinality=256),
}


def outcome_pairs(outcome):
    return [(d.hex(), i) for d, i in zip(outcome.distances, outcome.answer_ids)]


def primed_heaps_are_full(queries, heaps, short, *rest):
    """The prime pass, checked: every heap it primes leaves it full, so
    the ``inf`` bound it gives a primed row meets a finite threshold
    and ``inf <= threshold`` never fetches that row again."""
    visited = prime_short_heaps(queries, heaps, short, *rest)
    assert short and all(heaps[i].threshold < float("inf") for i in short)
    return visited


def unprimed(monkeypatch):
    """Switch the prime pass off: the walk covers the seeded union."""
    monkeypatch.setattr(
        repro.parallel.batch,
        "prime_short_heaps",
        lambda queries, heaps, *rest: [0] * len(heaps),
    )


@settings(max_examples=150, deadline=None)
@given(
    n_walks=st.integers(2, 150),
    n_ties=st.integers(1, 6),
    n_queries=st.integers(1, 4),
    k_choice=st.sampled_from(["1", "10", "64", "65", "n", "n+5"]),
    block_records=st.sampled_from([1, 7, 32]),
    bounds=st.sampled_from(sorted(CONFIGS)),
    seeded=st.booleans(),
    gram=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_property_primed_engines_equal_the_refine_oracle_and_brute_force(
    n_walks, n_ties, n_queries, k_choice, block_records, bounds, seeded, gram, seed
):
    config = CONFIGS[bounds]
    rng = np.random.default_rng(seed)
    walks = random_walk(n_walks, length=16, seed=seed).astype(np.float32)
    queries = random_walk(n_queries, length=16, seed=seed + 1).astype(np.float64)
    queries[0] = walks[rng.integers(0, n_walks)]
    n = n_walks + n_ties
    k = {"n": n, "n+5": n + 5}.get(k_choice) or int(k_choice)
    # The row at the first query's k-th distance is stored n_ties + 1
    # times, so the cut there is a tie decided by id.
    ranked = np.argsort(euclidean_batch(queries[0], walks), kind="stable")
    kth = ranked[min(k, n_walks) - 1]
    data = np.concatenate([walks, np.repeat(walks[kth : kth + 1], n_ties, axis=0)])
    data = data[rng.permutation(n)]
    seeds = [[] for _ in queries]
    if seeded:  # one probe-style seed per heap, at its refined distance
        for query, query_seeds in zip(queries, seeds):
            i = int(rng.integers(0, n))
            query_seeds.append((float(euclidean_batch(query, data[i : i + 1])[0]), i))
    column = WordColumn(config, sax_words(data, config))

    def run():
        logs = []

        def fetch(positions):
            logs.append(positions.tolist())
            return data[positions], positions

        batch = batched_exact_knn(
            queries, k, column, config, fetch, seeds, block_records
        )
        single = [
            batched_exact_knn(
                query[None], k, column, config, fetch, [query_seeds], block_records
            )[0]
            for query, query_seeds in zip(queries, seeds)
        ]
        nearest = [  # exact_search's engine, at k = 1
            sims_scan(
                query, column, config, fetch,
                *(query_seeds[0] if query_seeds else ()),
                block_records=block_records,
            )
            for query, query_seeds in zip(queries, seeds)
            if k == 1
        ]
        return (
            [outcome_pairs(o) for o in batch + single]
            + [[(o.distance.hex(), o.answer_idx)] for o in nearest],
            [(o.visited_records, o.pruned_fraction) for o in batch + single + nearest],
            logs,
        )

    with pytest.MonkeyPatch.context() as monkeypatch:
        if gram:  # the Gram bound on every block at a finite threshold
            monkeypatch.setattr(repro.core.sims, "BOUND_MIN_ELEMENTS", 0)
        monkeypatch.setattr(
            repro.parallel.batch, "prime_short_heaps", primed_heaps_are_full
        )
        got = run()
        monkeypatch.setattr(repro.parallel.batch, "refine_block", refine_every_row)
        assert run() == got
    pairs, counts, logs = got
    for qi, query in enumerate(queries):
        distances = euclidean_batch(query, data).tolist()
        brute = sorted(zip(distances, range(n)))[:k]
        assert pairs[qi] == pairs[n_queries + qi] == [(d.hex(), i) for d, i in brute]
        if k == 1:
            assert pairs[2 * n_queries + qi] == pairs[qi]
    for visited, pruned in counts:
        assert 0 <= visited <= n
        assert 0.0 <= pruned <= 1.0
    for positions in logs:
        assert positions == sorted(set(positions))
    # The walk the prime replaced keeps the same pairs.
    mindists = column.lower_bounds(paa(queries, config.word_length))
    heaps = seeded_heaps(n_queries, k, seeds)
    walk_candidate_blocks(
        queries, heaps, mindists, candidate_union(mindists, heaps),
        lambda p: (data[p], p), block_records,
    )
    assert [[(d.hex(), i) for d, i in h.sorted_items()] for h in heaps] == pairs[:n_queries]


def test_a_multi_block_union_is_primed_with_the_lowest_bound_rows():
    """No seeds and k = 10 over 300 rows in blocks of 200: the first
    fetch is the prime, each query's 64 lowest-bound rows in ascending
    order, and the walk after it fetches only part of the rest."""
    config = CONFIGS["loose"]
    data = random_walk(300, length=16, seed=5).astype(np.float32)
    queries = random_walk(2, length=16, seed=6)
    column = WordColumn(config, sax_words(data, config))
    mindists = column.lower_bounds(paa(queries, config.word_length))
    calls = []

    def fetch(positions):
        calls.append(positions.copy())
        return data[positions], positions

    outcomes = batched_exact_knn(queries, 10, column, config, fetch, None, 200)
    primed = calls[0]
    assert primed.tolist() == sorted(set(primed.tolist())) and len(primed) <= 2 * 64
    for row in mindists:  # holds, however ties at the 64th bound fall
        assert (row[primed] <= np.sort(row)[63]).sum() >= 64
    walked = np.concatenate(calls[1:])
    assert 0 < len(walked) < len(data) - 64
    for outcome, query in zip(outcomes, queries):
        brute = np.sort(euclidean_batch(query, data))[:10]
        assert np.array(outcome.distances).tobytes() == brute.tobytes()
        assert 64 <= outcome.visited_records <= len(data)


CONFIG_128 = SAXConfig(series_length=128, word_length=16, cardinality=256)
MAKERS_128 = {
    "CTree": lambda disk: CoconutTree(disk, 1 << 20, config=CONFIG_128, leaf_size=100),
    "CTrie": lambda disk: CoconutTrie(disk, 1 << 20, config=CONFIG_128, leaf_size=100),
    "LSM": lambda disk: CoconutLSM(disk, 1 << 16, config=CONFIG_128),
    "ADS+": lambda disk: ADSIndex(disk, 1 << 20, config=CONFIG_128, leaf_size=100),
    "ADSFull": lambda disk: ADSIndex(
        disk, 1 << 20, config=CONFIG_128, leaf_size=100, plus=False
    ),
}


@pytest.mark.parametrize("name", sorted(MAKERS_128))
def test_an_unprunable_multi_block_corpus_counts_each_row_once(name):
    """Seismic data over 9 000 rows: the heaps are primed, then the walk
    visits nearly every row.  Counting a primed row again would push
    ``visited_records`` past ``n`` and ``pruned_fraction`` below 0."""
    disk = SimulatedDisk(page_size=8192)
    data = make_dataset("seismic", 9_000, length=128, seed=7)
    index = MAKERS_128[name](disk)
    index.build(RawSeriesFile.create(disk, data))
    queries = query_workload("seismic", 4, length=128, seed=7)
    report = index.query_batch(QueryBatch(queries, k=10))
    singles = [index.exact_knn(query, 10) for query in queries]
    for qi, query in enumerate(queries):
        brute = np.sort(euclidean_batch(query, data))[:10]
        for distances in (report.knn_distances[qi], singles[qi].distances):
            assert np.array(distances).tobytes() == brute.tobytes()
        assert report.knn_ids[qi] == singles[qi].answer_ids
        result = report.results[qi]
        assert 0 <= result.visited_records <= len(data)
        assert 0.0 <= result.pruned_fraction <= 1.0
        assert 0.0 <= singles[qi].pruned_fraction <= 1.0
    assert max(r.visited_records for r in report.results) > len(data) - 64


@pytest.mark.parametrize("name", sorted(MAKERS_128))
def test_a_k10_search_on_a_random_walk_prunes_on_every_sims_index(name):
    """10 000 random-walk rows: ``exact_knn(q, 10)`` and an 8-query
    ``k = 10`` batch are pruned on every SIMS index, ADS included (it
    scanned every row before it answered through the SIMS engine:
    10 000 visited records, 5 000 pages per batch), and both equal
    brute force in id order."""
    disk = SimulatedDisk(page_size=8192)
    data = make_dataset("randomwalk", 10_000, length=128, seed=7)
    index = MAKERS_128[name](disk)
    index.build(RawSeriesFile.create(disk, data))
    queries = query_workload("randomwalk", 8, length=128, seed=7)
    brute = [
        sorted(zip(euclidean_batch(query, data).tolist(), range(len(data))))[:10]
        for query in queries
    ]
    single = index.exact_knn(queries[0], 10)
    assert list(zip(single.distances, single.answer_ids)) == brute[0]
    assert single.visited_records < len(data)
    before = disk.snapshot()
    report = index.query_batch(QueryBatch(queries, k=10))
    stats = disk.stats_since(before)
    assert stats.random_reads + stats.sequential_reads < 5_000
    for ids, distances, want in zip(report.knn_ids, report.knn_distances, brute):
        assert list(zip(distances, ids)) == want


def test_a_primed_batch_fetches_under_a_thousand_rows_per_query(monkeypatch):
    """The ``query_rw`` geometry: 15 000 random-walk rows of length 256,
    100-record leaves, 8 KiB pages, memory 5 % of the raw bytes, and a
    64-query ``k = 10`` batch (unseeded: only a 1-NN search probes).  The
    parent's walk fetched ~5 500 rows per query here (5 239 on the
    benchmark's queries); the primed batch fetches ~300."""
    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    disk = SimulatedDisk(page_size=8192)
    data = make_dataset("randomwalk", 15_000, length=256, seed=7)
    tree = CoconutTree(disk, int(data.nbytes * 0.05), config=config, leaf_size=100)
    tree.build(RawSeriesFile.create(disk, data))
    batch = QueryBatch(query_workload("randomwalk", 64, length=256, seed=7), k=10)
    tree.query_batch(batch)  # summary-load warmup

    def run():
        disk.park_head()
        before = disk.snapshot()
        report = tree.query_batch(batch)
        fetched = np.mean([r.visited_records for r in report.results])
        return report, fetched, disk.stats_since(before)

    primed, primed_rows, primed_io = run()
    unprimed(monkeypatch)
    walked, walked_rows, walked_io = run()
    assert primed.knn_ids == walked.knn_ids
    assert primed.knn_distances == walked.knn_distances
    assert primed_rows < 1_000 < 4_000 < walked_rows
    assert primed_io.random_reads <= walked_io.random_reads
