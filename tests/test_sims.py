"""Unit tests for the shared SIMS scan engine."""

import numpy as np
import pytest

from repro.core import sims_scan
from repro.core.summary_column import WordColumn
from repro.series import euclidean_batch, random_walk
from repro.summaries import SAXConfig, sax_words

CONFIG = SAXConfig(series_length=64, word_length=8, cardinality=16)


def make_corpus(n=300, seed=0):
    data = random_walk(n, length=64, seed=seed)
    words = WordColumn(CONFIG, sax_words(data, CONFIG))
    calls = []

    def fetch(positions):
        calls.append(np.array(positions))
        return data[positions].astype(np.float64), positions

    return data, words, fetch, calls


def test_finds_exact_nearest_neighbor():
    data, words, fetch, _ = make_corpus()
    query = random_walk(1, length=64, seed=1)[0]
    outcome = sims_scan(query, words, CONFIG, fetch)
    true = euclidean_batch(query.astype(np.float64), data.astype(np.float64))
    assert outcome.distance == pytest.approx(float(true.min()), rel=1e-9)
    assert outcome.answer_idx == int(np.argmin(true))


def test_good_seed_reduces_visits():
    """The nearer the seed, the more records are pruned (Fig. 9d-f).

    Both scans are seeded: an unseeded one is primed from its 64
    lowest-bound rows instead, which on this corpus beats a poor seed.
    """
    data, words, fetch, _ = make_corpus(seed=2)
    query = random_walk(1, length=64, seed=3)[0]
    true = euclidean_batch(query.astype(np.float64), data.astype(np.float64))
    order = np.argsort(true, kind="stable")

    def seeded_at(rank):
        return sims_scan(
            query,
            words,
            CONFIG,
            fetch,
            initial_bsf=float(true[order[rank]]),
            initial_answer=int(order[rank]),
        )

    good, poor = seeded_at(3), seeded_at(len(true) // 2)
    assert good.visited_records < poor.visited_records
    assert good.distance == poor.distance == float(true[order[0]])
    assert good.answer_idx == poor.answer_idx == int(order[0])


def test_perfect_seed_visits_almost_nothing():
    data, words, fetch, _ = make_corpus(seed=4)
    query = data[17]
    outcome = sims_scan(
        query, words, CONFIG, fetch, initial_bsf=1e-9, initial_answer=17
    )
    assert outcome.answer_idx == 17
    # Only the query's own summary can tie the zero bound.
    assert outcome.visited_records <= 1
    assert outcome.pruned_fraction == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("block_records", [16, 4096])
def test_distance_ties_go_to_the_smallest_identifier(block_records):
    """Three copies of the nearest record, stored against identifier
    order: the smallest identifier wins, unseeded or seeded at the tie
    with a larger one, as in the k-NN heap."""
    data = random_walk(300, length=64, seed=11)
    data[[150, 260]] = data[40]
    words = WordColumn(CONFIG, sax_words(data, CONFIG))

    def fetch(positions):
        return data[positions].astype(np.float64), 1000 - positions

    for seed in ({}, {"initial_bsf": 0.0, "initial_answer": 960}):
        outcome = sims_scan(
            data[40], words, CONFIG, fetch, block_records=block_records, **seed
        )
        assert (outcome.answer_idx, outcome.distance) == (740, 0.0)


def test_fetch_receives_ascending_positions():
    _, words, fetch, calls = make_corpus(seed=5)
    query = random_walk(1, length=64, seed=6)[0]
    sims_scan(query, words, CONFIG, fetch, block_records=32)
    for block in calls:
        assert np.all(np.diff(block) > 0)


def test_blocks_refiltered_as_bsf_shrinks():
    """Later blocks must respect the improved best-so-far."""
    data, words, fetch, calls = make_corpus(n=500, seed=7)
    query = random_walk(1, length=64, seed=8)[0]
    small_blocks = sims_scan(query, words, CONFIG, fetch, block_records=16)
    calls.clear()
    one_block = sims_scan(query, words, CONFIG, fetch, block_records=10**6)
    # Same answer, but the incremental scan can only fetch fewer rows.
    assert small_blocks.distance == pytest.approx(one_block.distance, rel=1e-9)
    assert small_blocks.visited_records <= one_block.visited_records


def test_empty_corpus():
    words = WordColumn(CONFIG, np.empty((0, CONFIG.word_length), dtype=np.uint16))

    def fetch(positions):  # pragma: no cover - never called
        raise AssertionError("fetch must not be called on empty corpus")

    query = random_walk(1, length=64, seed=9)[0]
    outcome = sims_scan(query, words, CONFIG, fetch)
    assert outcome.answer_idx == -1
    assert outcome.distance == float("inf")
    assert outcome.visited_records == 0
