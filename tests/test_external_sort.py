"""Tests for external merge sort under a memory budget."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CoconutTree, CoconutTrie, random_walk
from repro.storage import (
    ExternalSorter,
    PagedFile,
    RawSeriesFile,
    SimulatedDisk,
    sort_to_arrays,
)
from repro.summaries import SAXConfig


def make_records(n, key_bytes=8, payload="offset", seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 256, size=(n, key_bytes), dtype=np.uint8)
    keys = raw.view(f"S{key_bytes}").ravel()
    if payload == "offset":
        values = np.arange(n, dtype=np.int64)
    else:
        values = rng.standard_normal((n, 8)).astype(np.float32)
    return keys, values


def test_in_memory_sort_no_io():
    disk = SimulatedDisk()
    keys, values = make_records(100)
    sorter = ExternalSorter(disk, memory_bytes=1 << 20)
    sorted_keys, sorted_values = sort_to_arrays(sorter, keys, values)
    assert not sorter.report.spilled
    assert disk.stats.total_ios == 0
    assert np.all(sorted_keys[:-1] <= sorted_keys[1:])
    # Payloads permuted consistently with keys.
    np.testing.assert_array_equal(keys[sorted_values], sorted_keys)


def test_spilled_sort_is_correct():
    disk = SimulatedDisk(page_size=512)
    keys, values = make_records(1000)
    record_bytes = 16  # 8 key + 8 payload
    sorter = ExternalSorter(disk, memory_bytes=record_bytes * 100)
    sorted_keys, sorted_values = sort_to_arrays(sorter, keys, values)
    assert sorter.report.spilled
    assert sorter.report.n_runs == 10
    assert np.all(sorted_keys[:-1] <= sorted_keys[1:])
    np.testing.assert_array_equal(keys[sorted_values], sorted_keys)
    assert len(sorted_keys) == 1000


def test_spilled_sort_io_is_mostly_sequential():
    """With page-spanning merge buffers, streaming dominates seeking."""
    disk = SimulatedDisk(page_size=512)
    keys, values = make_records(4000)
    sorter = ExternalSorter(disk, memory_bytes=16 * 1000)
    list(sorter.sort(keys, values))
    stats = disk.stats
    assert stats.sequential_writes > stats.random_writes
    assert stats.sequential_reads > stats.random_reads


def test_sort_is_stable_on_equal_keys():
    disk = SimulatedDisk()
    keys = np.array([b"b", b"a", b"a", b"b", b"a"], dtype="S1")
    values = np.arange(5, dtype=np.int64)
    sorter = ExternalSorter(disk, memory_bytes=1 << 20)
    _, sorted_values = sort_to_arrays(sorter, keys, values)
    np.testing.assert_array_equal(sorted_values, [1, 2, 4, 0, 3])


def test_matrix_payloads_roundtrip():
    disk = SimulatedDisk(page_size=256)
    keys, values = make_records(300, payload="matrix")
    sorter = ExternalSorter(disk, memory_bytes=(8 + 32) * 50)
    sorted_keys, sorted_values = sort_to_arrays(sorter, keys, values)
    assert sorter.report.spilled
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(sorted_keys, keys[order])
    np.testing.assert_allclose(sorted_values, values[order])


def test_empty_input():
    disk = SimulatedDisk()
    sorter = ExternalSorter(disk, memory_bytes=1024)
    keys, values = make_records(0)
    chunks = list(sorter.sort(keys, values))
    assert chunks == []


def test_single_record():
    disk = SimulatedDisk()
    sorter = ExternalSorter(disk, memory_bytes=1024)
    keys = np.array([b"zz"], dtype="S2")
    values = np.array([7], dtype=np.int64)
    sorted_keys, sorted_values = sort_to_arrays(sorter, keys, values)
    assert bytes(sorted_keys[0]) == b"zz"
    assert sorted_values[0] == 7


def test_mismatched_lengths_rejected():
    disk = SimulatedDisk()
    sorter = ExternalSorter(disk, memory_bytes=1024)
    with pytest.raises(ValueError):
        list(sorter.sort(np.array([b"a"], dtype="S1"), np.arange(2)))


def test_bad_memory_budget_rejected():
    with pytest.raises(ValueError):
        ExternalSorter(SimulatedDisk(), memory_bytes=0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=400),
    memory_records=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_sorted_output_matches_numpy(n, memory_records, seed):
    """External sort equals argsort for any budget and input size."""
    disk = SimulatedDisk(page_size=256)
    keys, values = make_records(n, seed=seed)
    sorter = ExternalSorter(disk, memory_bytes=16 * memory_records)
    sorted_keys, sorted_values = sort_to_arrays(sorter, keys, values)
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(sorted_keys, keys[order])
    np.testing.assert_array_equal(sorted_values, values[order])


def test_zero_record_report_counts_no_runs():
    """Regression: an empty sort reports 0 runs, not a phantom one."""
    disk = SimulatedDisk()
    sorter = ExternalSorter(disk, memory_bytes=1024)
    keys, values = make_records(0)
    assert list(sorter.sort(keys, values)) == []
    assert sorter.report.n_runs == 0
    assert not sorter.report.spilled
    assert disk.stats.total_ios == 0


def test_spill_with_single_record_final_run():
    """Regression: a trailing 1-record run merges correctly."""
    disk = SimulatedDisk(page_size=256)
    keys, values = make_records(5)  # runs of 2, 2, and 1
    sorter = ExternalSorter(disk, memory_bytes=16 * 2)
    sorted_keys, sorted_values = sort_to_arrays(sorter, keys, values)
    assert sorter.report.spilled and sorter.report.n_runs == 3
    order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(sorted_keys, keys[order])
    np.testing.assert_array_equal(sorted_values, values[order])


# ------------------------------------------------- the paper's runs
LENGTH = 32
CONFIG = SAXConfig(series_length=LENGTH, word_length=4, cardinality=16)
DATA = random_walk(300, length=LENGTH, seed=5)


class RunSpy(PagedFile):
    """Counts the bytes the sorter writes into each ``sort-run-*`` file."""

    written: "dict[str, int]" = {}

    def write_stream(self, data, at_page=0):
        if self.name.startswith("sort-run-"):
            RunSpy.written[self.name] = RunSpy.written.get(self.name, 0) + len(data)
        return super().write_stream(data, at_page)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    memory_bytes=st.integers(min_value=1, max_value=50_000),
    materialized=st.booleans(),
    cls=st.sampled_from([CoconutTree, CoconutTrie]),
)
def test_property_a_spilled_sort_forms_runs_that_fit_the_budget(
    n, memory_bytes, materialized, cls
):
    """The paper's partition phase: ``ceil(n / M)`` runs of at most ``M``
    records, ``M`` the records ``memory_bytes`` holds (at least two).

    A build that presorted chunks of its own size would write fewer,
    larger runs — over the budget the sort is meant to respect.
    """
    record_bytes = CONFIG.key_bytes + 8 + (4 * LENGTH if materialized else 0)
    mem_records = max(2, memory_bytes // record_bytes)
    disk = SimulatedDisk(page_size=512)
    raw = RawSeriesFile.create(disk, DATA[:n]) if n else RawSeriesFile(disk, LENGTH)
    index = cls(
        disk, memory_bytes, config=CONFIG, leaf_size=20, materialized=materialized
    )
    RunSpy.written = {}
    with mock.patch("repro.storage.external_sort.PagedFile", RunSpy):
        report = index.build(raw)
    assert report.extra["sort_runs"] == -(-n // mem_records)
    spilled = n > mem_records
    assert len(RunSpy.written) == (report.extra["sort_runs"] if spilled else 0)
    for n_bytes in RunSpy.written.values():
        assert n_bytes % record_bytes == 0
        assert n_bytes // record_bytes <= mem_records
