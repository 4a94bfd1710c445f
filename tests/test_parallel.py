"""Batched approximate search: leaf-sharing batches answer like the loop.

A batch groups its queries by target leaf and reads each distinct leaf
once; every query's answer, distance and visit counts must equal its
own ``approximate_search``, for both split policies and both variants.
"""

import pytest

from repro import CoconutTree, RawSeriesFile, SimulatedDisk, random_walk
from repro.core import CoconutTrie
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(600, length=32, seed=11)


# ------------------------------------------- batched approximate search
@pytest.mark.parametrize("cls", [CoconutTree, CoconutTrie])
@pytest.mark.parametrize("materialized", [False, True])
def test_batched_approximate_matches_per_query(cls, materialized):
    """Leaf-sharing approximate batches answer exactly like the loop.

    Same answer index, distance, visited counts per query — only the
    I/O shrinks, because each distinct leaf is read once per batch.
    """
    from repro.indexes import QueryBatch

    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA)
    index = cls(
        disk, memory_bytes=8 * 1024, config=CONFIG, leaf_size=40,
        materialized=materialized,
    )
    index.build(raw)
    queries = random_walk(25, length=32, seed=3)
    per_query = [index.approximate_search(query) for query in queries]
    per_query_io = sum(result.io.total_ios for result in per_query)
    report = index.query_batch(QueryBatch(queries=queries, mode="approximate"))
    assert len(report) == len(queries)
    for result, batched in zip(per_query, report.results):
        assert result.answer_idx == batched.answer_idx
        assert result.distance == pytest.approx(batched.distance, abs=1e-12)
        assert result.visited_records == batched.visited_records
        assert result.visited_leaves == batched.visited_leaves
    assert report.io.total_ios <= per_query_io
    # With 25 queries over a handful of leaves, sharing must show up.
    assert report.io.total_ios < per_query_io


def test_batched_approximate_single_query_and_knn_ids():
    from repro.indexes import QueryBatch

    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA)
    index = CoconutTree(disk, memory_bytes=8 * 1024, config=CONFIG, leaf_size=40)
    index.build(raw)
    query = random_walk(1, length=32, seed=9)
    report = index.query_batch(QueryBatch(queries=query, mode="approximate"))
    want = index.approximate_search(query[0])
    assert report.results[0].answer_idx == want.answer_idx
    assert report.knn_ids == [[want.answer_idx]]
    assert report.knn_distances[0][0] == pytest.approx(want.distance)
