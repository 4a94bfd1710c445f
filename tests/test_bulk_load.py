"""The bulk-load pipeline: one summarize pass, memory-sized runs, one merge.

A build runs one way, on the calling thread (PAPER.md, "Bottom-up
bulk-loading"): a sequential scan of the raw file summarizes every
series into its ``(key, offset[, series])`` row in file order, the
external sort partitions those rows into runs that fit the memory
budget, and the merge writes the leaves in one sequential pass.  The
load-bearing properties:

* the summarize pass is byte-identical to ``invsax_keys`` over the
  whole file, for any length including zero and fewer rows than a scan
  block, and reads each raw page exactly once;
* the leaf level does not depend on the memory budget — resident,
  spilled and two-record runs write the same leaves, byte for byte —
  while the number of runs is ``ceil(n / M)`` for the budget's ``M``;
* an empty raw file builds an empty index and sorts nothing.
"""

import numpy as np
import pytest

from repro import RawSeriesFile, SimulatedDisk, invsax_keys, random_walk
from repro.core import CoconutTree, CoconutTrie
from repro.summaries import SAXConfig

LENGTH = 32
CONFIG = SAXConfig(series_length=LENGTH, word_length=4, cardinality=16)
DATA = random_walk(600, length=LENGTH, seed=11)


def record_bytes(materialized):
    return CONFIG.key_bytes + 8 + (4 * LENGTH if materialized else 0)


# ------------------------------------------------------------ summarize
@pytest.mark.parametrize("materialized", [False, True])
@pytest.mark.parametrize("n", [0, 1, 3, 600])
def test_summarize_is_one_pass_in_file_order(n, materialized):
    disk = SimulatedDisk(page_size=512)
    raw = RawSeriesFile.create(disk, DATA[:n]) if n else RawSeriesFile(disk, LENGTH)
    index = CoconutTree(disk, 4096, config=CONFIG, materialized=materialized)
    disk.park_head()
    before = disk.snapshot()
    keys, payloads = index._summarize(raw)
    io = disk.stats_since(before)
    assert keys.dtype == CONFIG.key_dtype
    expected = invsax_keys(DATA[:n], CONFIG) if n else keys[:0]
    assert keys.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(payloads["off"], np.arange(n))
    if materialized:
        np.testing.assert_array_equal(payloads["series"], DATA[:n])
    # One sequential pass: every raw page read once, only the first seeks.
    assert io.total_reads == raw.file.n_pages
    assert io.random_reads == (1 if n else 0)
    assert io.total_writes == 0


# ------------------------------------------------ the memory budget
def leaf_level(cls, materialized, memory_bytes):
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA)
    index = cls(
        disk, memory_bytes, config=CONFIG, leaf_size=40, materialized=materialized
    )
    report = index.build(raw)
    leaves = [
        (leaf.first_key, leaf.count, index._read_leaf_records(leaf).tobytes())
        for leaf in index._leaves
    ]
    return leaves, report.extra["sort_runs"]


@pytest.mark.parametrize("materialized", [False, True])
@pytest.mark.parametrize("cls", [CoconutTree, CoconutTrie])
def test_leaf_level_is_independent_of_the_memory_budget(cls, materialized):
    """Runs change with the budget; the leaves they merge into do not."""
    resident, one_run = leaf_level(cls, materialized, 1 << 22)
    assert one_run == 1
    for memory_bytes in (2048, 1):
        spilled, n_runs = leaf_level(cls, materialized, memory_bytes)
        mem_records = max(2, memory_bytes // record_bytes(materialized))
        assert n_runs == -(-len(DATA) // mem_records) > 1
        assert spilled == resident, memory_bytes


# ----------------------------------------------------------- empty file
@pytest.mark.parametrize("materialized", [False, True])
@pytest.mark.parametrize("cls", [CoconutTree, CoconutTrie])
def test_empty_raw_file_builds_an_empty_index(cls, materialized):
    disk = SimulatedDisk(page_size=512)
    index = cls(disk, 4096, config=CONFIG, materialized=materialized)
    report = index.build(RawSeriesFile(disk, LENGTH))
    assert report.n_series == 0
    assert report.extra["sort_runs"] == 0
    assert index.leaf_stats() == (0, 0.0)
