"""The refine step against the refine-every-row oracle.

``repro.core.knn.refine_block`` refines a fetched block's rows against
the heap's threshold and offers them in one call; a heap short of k
entries is filled first by the prime pass
(``repro.parallel.batch.prime_short_heaps``), not inside the block.
``tests/oracles.py::refine_every_row`` is the reference step: one
distance per fetched row, each offered to the heap on its own, where
``refine_block`` offers the block through ``offer_block``'s cut.
Pinned here:

* **Same reports** — ``exact_knn`` and ``query_batch`` of the Tree,
  Trie and LSM return the ids, distances, visited counts and
  ``DiskStats`` of a run with the oracle patched in.
* **The saving** — with a heap the seeds already fill, the refine
  gets exactly the oracle's rows in one call per query per block, and
  the kernel sees them in one call, or, where the Gram bound ran, the
  lowest-bound row first and then at most the rest; a
  one-block union of more than ``REFINE_FIRST_ROWS`` rows is primed,
  and the walk after the prime fetches a few hundred rows per query
  where the unprimed walk fetches every record.

Tie order by id, seeded or not, is pinned against brute force in
``tests/test_prime.py``.
"""

import pytest

import oracles
import repro.core.knn
import repro.parallel.batch
from oracles import refine_every_row
from repro import QueryBatch, RawSeriesFile, SimulatedDisk, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.summary_column import WordColumn
from repro.parallel.batch import batched_exact_knn
from repro.series import query_workload, random_walk
from repro.summaries import SAXConfig, sax_words
from test_prime import unprimed


def use_refine(monkeypatch, refine):
    """Route the engine's refine step (prime and walk) to ``refine``."""
    monkeypatch.setattr(repro.parallel.batch, "refine_block", refine)


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
            batched_exact_knn(query[None], k, column, SAVING_CONFIG, fetch, [query_seeds])
    return run


def batch_all(data, queries, seeds, column, k):
    def run(fetched):
        outcomes = batched_exact_knn(
            queries, k, column, SAVING_CONFIG, lambda p: (data[p], p), seeds
        )
        fetched[0] += sum(outcome.visited_records for outcome in outcomes)
    return run


ENGINES = {"one_query_calls": scan_all, "batched_exact_knn": batch_all}


def refines(monkeypatch, run):
    """Per ``refine_block`` call of the engine while ``run()``: its rows,
    whether it got their bounds, and the rows of each kernel call it
    made."""
    seen = []
    refine = repro.parallel.batch.refine_block
    kernel = repro.core.knn.early_abandon_euclidean_block

    def counting_refine(query, series, identifiers, rows, heap, bounds=None):
        seen.append((len(rows), bounds is not None, []))
        refine(query, series, identifiers, rows, heap, bounds)

    def counting_kernel(query, block, best_so_far):
        seen[-1][2].append(len(block))
        return kernel(query, block, best_so_far)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.parallel.batch, "refine_block", counting_refine)
        patch.setattr(repro.core.knn, "early_abandon_euclidean_block", counting_kernel)
        run([0])
    return seen


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_full_heap_refines_as_the_oracle_in_one_call_per_block(
    probed, engine, monkeypatch
):
    """k = 1 from one probe seed: the heap starts full, so every block
    is handed to the refine in one call, with the oracle's rows.  A
    refine without bounds is the oracle's one kernel call; one with
    bounds refines its lowest-bound row first and then at most the rows
    its new threshold lets in, never more than the oracle."""
    _, queries, _, _ = probed
    run = ENGINES[engine](*probed, k=1)
    seen = refines(monkeypatch, run)
    want_calls, _ = kernel_rows(monkeypatch, refine_every_row, run)
    assert [rows for rows, _, _ in seen] == want_calls
    assert len(want_calls) == len(queries)  # 2 000 records: one block
    for rows, bounded, calls in seen:
        if bounded and rows > 1:
            assert calls[0] == 1 and len(calls) <= 2 and sum(calls) <= rows
        else:
            assert calls == [rows]
    assert any(bounded for _, bounded, _ in seen)
    assert sum(sum(calls) for _, _, calls in seen) < sum(want_calls)


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_one_block_union_of_more_than_64_rows_is_primed(probed, engine, monkeypatch):
    """k = 10 from one probe seed over 2 000 rows, one block: the prime
    refines each heap's 64 lowest-bound rows first, and the walk after
    it fetches a few hundred rows per query where the unprimed walk
    fetches every record."""
    data, queries, _, _ = probed
    run = ENGINES[engine](*probed, k=10)
    primed = [0]
    run(primed)
    unprimed(monkeypatch)
    walked = [0]
    run(walked)
    assert walked[0] == len(queries) * len(data)
    assert primed[0] < 1_000 * len(queries)
