"""Tests for the benchmark harness, workloads and reporting."""

import numpy as np
import pytest

from repro.bench.harness import INDEX_FACTORIES, default_config, make_environment
from repro.bench.report import format_table
from repro.bench.workloads import DatasetSpec, mixed_workload

TINY = DatasetSpec("randomwalk", n_series=300, length=64, seed=1)


# ------------------------------------------------------------- dataset
def test_dataset_spec_is_reproducible():
    a = TINY.generate()
    b = TINY.generate()
    np.testing.assert_array_equal(a, b)
    assert TINY.raw_bytes == 300 * 64 * 4


def test_dataset_scaling_preserves_everything_else():
    scaled = TINY.scaled(100)
    assert scaled.n_series == 100
    assert scaled.length == TINY.length
    assert scaled.name == TINY.name


def test_queries_differ_from_data():
    data = TINY.generate()
    queries = TINY.queries(5)
    assert queries.shape == (5, 64)
    assert not any(np.array_equal(q, row) for q in queries for row in data[:50])


# ------------------------------------------------------------ workload
def test_mixed_workload_event_stream():
    initial, events = mixed_workload(
        TINY, initial_fraction=0.5, batch_size=30, n_queries=6
    )
    events = list(events)
    inserts = [e for e in events if e.kind == "insert"]
    queries = [e for e in events if e.kind == "query"]
    assert len(initial) == 150
    assert sum(len(e.payload) for e in inserts) == 150
    assert len(queries) == 6
    # Queries are interleaved, not all bunched at one end.
    kinds = [e.kind for e in events]
    first_query = kinds.index("query")
    assert first_query < len(kinds) - 1


def test_mixed_workload_validation():
    with pytest.raises(ValueError):
        mixed_workload(TINY, initial_fraction=0.0, batch_size=10, n_queries=1)
    with pytest.raises(ValueError):
        mixed_workload(TINY, initial_fraction=0.5, batch_size=0, n_queries=1)


# ------------------------------------------------------------- harness
def test_default_config_adapts_to_length():
    assert default_config(128).word_length == 8
    assert default_config(8).word_length == 4


def test_all_factories_build_and_answer():
    """Every registered index builds on a tiny dataset and agrees with
    the serial-scan oracle on an exact query."""
    memory = TINY.raw_bytes
    oracle_env = make_environment("Serial", TINY, memory)
    oracle_env.index.build(oracle_env.raw)
    query = TINY.queries(1)[0]
    want = oracle_env.index.exact_search(query).distance
    for key in INDEX_FACTORIES:
        env = make_environment(key, TINY, memory)
        env.index.build(env.raw)
        got = env.index.exact_search(query)
        assert got.distance == pytest.approx(want, rel=1e-5), key


@pytest.mark.parametrize("key", ["CTree", "CTreeFull", "CTrie", "CTrieFull"])
def test_coconut_cells_sort_in_memory_sized_runs(key):
    """An experiment cell's build spills ``ceil(n / M)`` runs, ``M`` the
    rows its memory budget holds, whatever the index variant."""
    memory = TINY.raw_bytes // 20
    env = make_environment(key, TINY, memory)
    report = env.index.build(env.raw)
    rec = env.index._leaf_dtype
    mem_records = max(2, memory // rec.itemsize)
    assert report.extra["sort_runs"] == -(-TINY.n_series // mem_records) > 1
    assert report.n_series == TINY.n_series


# -------------------------------------------------------------- report
def test_format_table_alignment_and_values():
    rows = [
        {"name": "a", "value": 1.5, "count": 10},
        {"name": "bbb", "value": 1234.5678, "count": 2},
    ]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("name")
    assert "1,235" in text  # thousands formatting
    assert "1.500" in text


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_format_table_explicit_columns():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]
