"""Edge-case tests across configurations the main suites don't hit."""

import numpy as np
import pytest

from repro.core import CoconutTree, CoconutTrie
from repro.series import euclidean_batch, random_walk, z_normalize
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig


def brute(query, data):
    return float(
        euclidean_batch(
            np.asarray(query, dtype=np.float64), data.astype(np.float64)
        ).min()
    )


def test_long_series_span_multiple_pages_in_materialized_index():
    """Records larger than a page must survive the leaf round-trip."""
    disk = SimulatedDisk(page_size=512)  # 512-float series = 2 KB record
    data = random_walk(60, length=512, seed=0)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=512, word_length=8, cardinality=16)
    index = CoconutTree(
        disk, memory_bytes=1 << 22, config=config, leaf_size=8,
        materialized=True,
    )
    index.build(raw)
    query = random_walk(1, length=512, seed=1)[0]
    assert index.exact_search(query).distance == pytest.approx(
        brute(query, data), rel=1e-6
    )


@pytest.mark.parametrize("word_length", [2, 4, 16])
def test_ctree_works_across_word_lengths(word_length):
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(150, length=64, seed=2)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(
        series_length=64, word_length=word_length, cardinality=64
    )
    index = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=16)
    index.build(raw)
    query = random_walk(1, length=64, seed=3)[0]
    assert index.exact_search(query).distance == pytest.approx(
        brute(query, data), rel=1e-6
    )


@pytest.mark.parametrize("cardinality", [2, 4, 1024])
def test_ctree_works_across_cardinalities(cardinality):
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(120, length=64, seed=4)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(
        series_length=64, word_length=8, cardinality=cardinality
    )
    index = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=16)
    index.build(raw)
    query = random_walk(1, length=64, seed=5)[0]
    assert index.exact_search(query).distance == pytest.approx(
        brute(query, data), rel=1e-6
    )


def test_outlier_query_far_from_all_data():
    """A query outside the indexed distribution still answers exactly."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(200, length=64, seed=6)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    index = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=16)
    index.build(raw)
    # A spike series: z-normalized but extreme in SAX space.
    spike = np.zeros(64)
    spike[0] = 10.0
    spike = z_normalize(spike).astype(np.float64)
    assert index.exact_search(spike).distance == pytest.approx(
        brute(spike, data), rel=1e-6
    )


def test_constant_series_in_dataset():
    """All-zero (constant) series quantize to the middle symbol."""
    disk = SimulatedDisk(page_size=2048)
    walks = random_walk(50, length=64, seed=7)
    data = np.vstack([walks, np.zeros((3, 64), dtype=np.float32)])
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    index = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=8)
    index.build(raw)
    result = index.exact_search(np.zeros(64))
    assert result.distance == pytest.approx(0.0, abs=1e-6)
    assert result.answer_idx >= 50  # one of the constant rows


def test_trie_rejects_updates():
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(40, length=64, seed=8)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    index = CoconutTrie(disk, memory_bytes=1 << 20, config=config)
    index.build(raw)
    with pytest.raises(NotImplementedError):
        index.insert_batch(random_walk(4, length=64, seed=9))


def test_sequential_batches_of_identical_series():
    """Repeated inserts of the same series pile into overflow leaves."""
    disk = SimulatedDisk(page_size=2048)
    base = random_walk(8, length=64, seed=10)
    raw = RawSeriesFile.create(disk, base)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    index = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=4)
    index.build(raw)
    clone = np.tile(base[0], (30, 1)).astype(np.float32)
    index.insert_batch(clone)
    total = sum(leaf.count for leaf in index._leaves)
    assert total == 38
    result = index.exact_search(base[0])
    assert result.distance == pytest.approx(0.0, abs=1e-5)


def test_tiny_pages_force_multi_page_leaves():
    disk = SimulatedDisk(page_size=256)
    data = random_walk(80, length=32, seed=11)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=32, word_length=4, cardinality=16)
    index = CoconutTree(
        disk, memory_bytes=1 << 20, config=config, leaf_size=32,
        materialized=True,
    )
    index.build(raw)
    assert index.pages_per_leaf > 1
    query = random_walk(1, length=32, seed=12)[0]
    assert index.exact_search(query).distance == pytest.approx(
        brute(query, data), rel=1e-6
    )


def test_query_radius_larger_than_tree():
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(30, length=64, seed=13)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    index = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=8)
    index.build(raw)
    query = random_walk(1, length=64, seed=14)[0]
    result = index.approximate_search(query, radius_leaves=1000)
    assert result.visited_leaves == index.leaf_stats()[0]
    assert result.distance >= brute(query, data) - 1e-9


def test_rebuild_on_same_disk_is_independent():
    """Two indexes over the same raw file must not interfere."""
    disk = SimulatedDisk(page_size=2048)
    data = random_walk(100, length=64, seed=15)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    first = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=8)
    first.build(raw)
    second = CoconutTree(disk, memory_bytes=1 << 20, config=config, leaf_size=32)
    second.build(raw)
    query = random_walk(1, length=64, seed=16)[0]
    want = brute(query, data)
    assert first.exact_search(query).distance == pytest.approx(want, rel=1e-6)
    assert second.exact_search(query).distance == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_are_refused_not_answered(poison):
    """A NaN PAA value zeroes every lower bound and a NaN distance
    poisons the heap threshold: the answer used to be arbitrary ids at
    ``nan`` distance.  Every query entry point refuses instead."""
    from repro import QueryBatch, SerialScan
    from repro.core import CoconutLSM

    disk = SimulatedDisk(page_size=2048)
    data = random_walk(120, length=64, seed=21)
    raw = RawSeriesFile.create(disk, data)
    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    queries = random_walk(3, length=64, seed=22).astype(np.float64)
    queries[1, 5] = poison
    for index in (
        CoconutTree(disk, 1 << 20, config=config, leaf_size=16),
        CoconutTrie(disk, 1 << 20, config=config, leaf_size=16),
        CoconutLSM(disk, 1 << 20, config=config),
        SerialScan(disk, 1 << 20),
    ):
        index.build(raw)
        for call in (
            lambda: index.approximate_search(queries[1]),
            lambda: index.exact_search(queries[1]),
            lambda: index.exact_knn(queries[1], 3),
            lambda: index.query_batch(QueryBatch(queries=queries, k=3)),
            lambda: index.query_batch(
                QueryBatch(queries=queries, k=3), query_workers=2
            ),
            lambda: index.query_batch(
                QueryBatch(queries=queries, mode="approximate")
            ),
        ):
            with pytest.raises(ValueError, match="NaN or infinite"):
                call()
        # The finite rows of the same batch are still answered exactly.
        report = index.query_batch(QueryBatch(queries=queries[[0, 2]], k=1))
        for query, result in zip(queries[[0, 2]], report.results):
            assert result.distance == pytest.approx(brute(query, data), rel=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf, 1e39])
def test_non_finite_rows_are_refused_before_any_page_is_written(poison):
    """A NaN row used to be indexed and returned: after a 10-row
    ``CoconutLSM.insert_batch`` holding one NaN, ``exact_knn(row 0, 1)``
    answered another row at distance ``nan``.  ``RawSeriesFile`` now
    refuses NaN and infinite values (``1e39`` overflows float32) on
    every write path."""
    from repro.core import CoconutLSM

    config = SAXConfig(series_length=64, word_length=8, cardinality=16)
    data = random_walk(110, length=64, seed=23)
    bad = data[100:].astype(np.float64)
    bad[4, 7] = poison
    disk = SimulatedDisk(page_size=2048)
    with pytest.raises(ValueError, match="NaN or infinite"):
        RawSeriesFile.create(disk, bad)
    assert disk.pages_allocated == 0
    for make in (
        lambda disk: CoconutTree(disk, 1 << 20, config=config, leaf_size=16),
        lambda disk: CoconutLSM(disk, 1 << 20, config=config),
    ):
        disk = SimulatedDisk(page_size=2048)
        index = make(disk)
        index.build(RawSeriesFile.create(disk, data[:100]))
        before = disk.snapshot()
        with pytest.raises(ValueError, match="NaN or infinite"):
            index.insert_batch(bad)
        assert disk.snapshot() == before and index.raw.n_series == 100
        outcome = index.exact_knn(data[0].astype(np.float64), 1)
        assert (list(outcome.answer_ids), list(outcome.distances)) == ([0], [0.0])
