"""The oracles themselves, and the options that used to select them.

Every reference in ``tests/oracles.py`` is checked here against an
independent definition (Python's stable ``sorted``, plain fancy
indexing, a flat ``bytearray`` page model), so a reference cannot rot
unnoticed while the equivalence suites keep passing against it.  The
removals of the knobs that selected these implementations inside
``src/`` are rows of ``tests/test_removed_names.py``.
"""

import numpy as np
import pytest

from oracles import (
    DEVICES,
    argsort_merge,
    heapq_merge_stream,
    loop_get_many,
    loop_read_pages,
    refine_every_row,
    searchsorted_symbols,
)
from repro import RawSeriesFile, SimulatedDisk
from repro.core.knn import _BoundedMaxHeap
from repro.series import euclidean
from repro.storage import PagedFile
from repro.summaries import breakpoints

REC = np.dtype([("k", "S2"), ("v", "<i8")])


def make_runs(n_runs, run_len, alphabet, seed):
    """Sorted (keys, payloads) runs; payloads are globally unique."""
    rng = np.random.default_rng(seed)
    runs = []
    for r in range(n_runs):
        raw = rng.integers(0, alphabet, size=(run_len, 2), dtype=np.uint8)
        keys = np.sort(raw.view("S2").ravel(), kind="stable")
        runs.append((keys, np.arange(run_len, dtype=np.int64) + 1000 * r))
    return runs


def sorted_reference(runs):
    """Stable merge by definition: Python's stable sort over records
    listed in (run, position) order."""
    records = [
        (bytes(key), int(payload))
        for keys, payloads in runs
        for key, payload in zip(keys, payloads)
    ]
    records.sort(key=lambda record: record[0])
    return [k for k, _ in records], [p for _, p in records]


# ------------------------------------------------------------ the merges
@pytest.mark.parametrize("alphabet", [1, 3, 256], ids=["all-equal", "dups", "wide"])
@pytest.mark.parametrize("buffer_records", [1, 7, 64])
def test_heap_merge_is_the_stable_merge(alphabet, buffer_records):
    runs = make_runs(n_runs=5, run_len=41, alphabet=alphabet, seed=alphabet)
    disk = SimulatedDisk(page_size=128)
    files = []
    for keys, payloads in runs:
        block = np.empty(len(keys), dtype=REC)
        block["k"], block["v"] = keys, payloads
        file = PagedFile(disk, name="run")
        file.write_stream(block.tobytes())
        files.append((file, len(keys)))
    chunks = list(heapq_merge_stream(files, REC, buffer_records))
    assert [len(k) for k, _ in chunks[:-1]] == [buffer_records] * (len(chunks) - 1)
    want_keys, want_payloads = sorted_reference(runs)
    assert [bytes(k) for ks, _ in chunks for k in ks] == want_keys
    assert [int(p) for _, ps in chunks for p in ps] == want_payloads


@pytest.mark.parametrize("alphabet", [1, 3, 256], ids=["all-equal", "dups", "wide"])
def test_argsort_merge_is_the_stable_merge(alphabet):
    runs = make_runs(n_runs=4, run_len=30, alphabet=alphabet, seed=7)
    keys, payloads = argsort_merge(runs)
    want_keys, want_payloads = sorted_reference(runs)
    assert [bytes(k) for k in keys] == want_keys
    assert payloads.tolist() == want_payloads


# ------------------------------------------------------------ the gather
@pytest.mark.parametrize(
    "n,length,page_size",
    [(50, 32, 512), (25, 12, 256), (9, 64, 128), (5, 96, 100)],
    ids=["divisor", "padded", "two-page", "multi-page-padded"],
)
def test_loop_gather_is_fancy_indexing(n, length, page_size):
    rng = np.random.default_rng(n)
    data = rng.standard_normal((n, length)).astype(np.float32)
    raw = RawSeriesFile.create(SimulatedDisk(page_size=page_size), data)
    for idxs in (
        np.arange(n)[::-1],
        np.array([n - 1, 0, n // 2, n // 2, 0, n - 1]),  # dups, unsorted
        rng.integers(0, n, size=3 * n),
        np.array([], dtype=np.int64),
    ):
        np.testing.assert_array_equal(loop_get_many(raw, idxs), data[idxs])
    with pytest.raises(IndexError):
        loop_get_many(raw, np.array([0, n]))


@pytest.mark.parametrize("store", DEVICES)
def test_loop_read_pages_is_page_at_a_time_reads(store):
    """The run-granular read loop against the page-granular one: same
    pages, and (the device contract) the same classified counters and
    head as one ``read_page`` per page; its trace is the per-page trace
    with consecutive ids folded into runs."""
    rng = np.random.default_rng(3)
    ps = 32
    twins = [DEVICES[store](page_size=ps, trace=True) for _ in range(2)]
    content = [bytes(rng.integers(0, 256, size=ps, dtype=np.uint8)) for _ in range(12)]
    for disk in twins:
        disk.allocate(len(content))
        for page, data in enumerate(content):
            disk.write_page(page, data)
        disk.reset_stats()
        disk.park_head()
    looped, paged = twins
    for pages in ([], [3], [0, 1, 2, 7, 8, 4, 4, 5, 11], [6, 7], [8, 9, 10, 0]):
        assert loop_read_pages(looped, pages) == [content[p] for p in pages]
        for page in pages:
            assert bytes(paged.read_page(page)) == content[page]
        assert looped.stats == paged.stats
        assert looped.head_position == paged.head_position
    assert looped.trace[:6] == [
        ("r", 3, 1), ("r", 0, 3), ("r", 7, 2), ("r", 4, 1), ("r", 4, 2), ("r", 11, 1),
    ]
    assert [(op, first + i, 1) for op, first, n in looped.trace for i in range(n)] == (
        paged.trace
    )


# ------------------------------------------------------------ the refine
@pytest.mark.parametrize("k", [1, 3, 40])
def test_refine_every_row_is_the_per_row_offer_loop(k):
    """Every selected row offered at its plain ``euclidean`` distance,
    one ``offer`` at a time; duplicated rows tie at the k-th place."""
    rng = np.random.default_rng(k)
    series = rng.standard_normal((30, 16)).astype(np.float32)
    series[10:20] = series[0]
    identifiers = np.arange(100, 130)
    query = rng.standard_normal(16)
    for rows in (np.arange(30), np.array([0, 3, 10, 11, 29]), np.array([], dtype=np.int64)):
        refined, looped = _BoundedMaxHeap(k), _BoundedMaxHeap(k)
        refined.offer(0.5, 7)  # a seed outside the block
        looped.offer(0.5, 7)
        refine_every_row(query, series, identifiers, rows, None, refined)
        for row in rows:
            looped.offer(euclidean(query, series[row]), int(identifiers[row]))
        assert refined.sorted_items() == looped.sorted_items()


# ------------------------------------------------------------ the symbols
@pytest.mark.parametrize("cardinality", [2, 4, 256])
def test_searchsorted_symbols_count_the_breakpoints_below(cardinality):
    """A symbol is how many breakpoints lie strictly below the value;
    NaN, which compares below nothing, takes the last symbol."""
    bps = breakpoints(cardinality).tolist()
    values = bps + [-np.inf, -3.0, -0.0, 0.0, 0.1, 3.0, np.inf, np.nan]
    want = [
        sum(b < v for b in bps) if v == v else cardinality - 1 for v in values
    ]
    assert searchsorted_symbols(values, cardinality).tolist() == want
    assert searchsorted_symbols(values, cardinality).dtype == np.uint16


# ------------------------------------------------------------ the device
@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("seed", range(4))
def test_device_reads_equal_a_flat_zero_filled_model(store, seed):
    """Padded-page read contract against a flat bytearray: short writes
    zero the rest of their page(s), never-written pages read as zeros."""
    rng = np.random.default_rng(seed)
    ps = 48
    disk = DEVICES[store](page_size=ps)
    model = bytearray()
    for _ in range(40):
        if not model or rng.integers(0, 4) == 0:
            n_new = int(rng.integers(1, 5))
            disk.allocate(n_new)
            model.extend(bytes(n_new * ps))
            continue
        allocated = len(model) // ps
        first = int(rng.integers(0, allocated))
        span = int(rng.integers(1, min(4, allocated - first) + 1))
        data = bytes(
            rng.integers(1, 256, size=int(rng.integers(0, span * ps + 1)), dtype=np.uint8)
        )
        if span == 1 and rng.integers(0, 2):
            disk.write_page(first, data)
        else:
            disk.write_run_bytes(first, data, span)
        model[first * ps : (first + span) * ps] = data.ljust(span * ps, b"\x00")
    allocated = len(model) // ps
    assert disk.pages_allocated == allocated
    for page in range(allocated):
        assert bytes(disk.read_page(page)) == bytes(model[page * ps : (page + 1) * ps])
        assert bytes(disk.page_view(page)) == bytes(model[page * ps : (page + 1) * ps])
    assert bytes(disk.read_run_bytes(0, allocated)) == bytes(model)
    assert b"".join(bytes(p) for p in disk.read_run(0, allocated)) == bytes(model)


# ------------------------------------------------------ the removed knobs
def test_the_one_page_store_keyword():
    """``store="arena"`` survives for ``bench_e2e/pipeline.py``; it is
    the same device as the default, and nothing else is accepted."""
    default = SimulatedDisk(page_size=8192)
    named = SimulatedDisk(page_size=8192, store="arena")
    assert type(default) is type(named)
    assert vars(default).keys() == vars(named).keys()
    assert not hasattr(named, "store")
    for store in ("dict", "mmap", None):
        with pytest.raises(ValueError, match="tests/oracles.py"):
            SimulatedDisk(store=store)
