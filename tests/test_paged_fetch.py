"""Bound before the gather: a dense block is bounded on its pages.

A SIMS fetch whose block will be bounded reads it through
``RawFetch.paged``: one plan decides, before any I/O, whether the block
is dense (``DENSE_FETCH_SHARE`` of the records on its pages) on a file
whose records fill their pages.  A dense block is read and hashed
exactly as ``get_many`` reads it, bounded on zero-copy views of the
pages it read, and only the rows that can win are copied; any other
block is gathered as before.  The answer must not notice: the same
surviving rows with the same bits, and the same ``DiskStats``, head
and trace as ``get_many`` followed by ``rows_that_can_win`` on the
copy.  Each kept row comes back with its bound, bit for bit the
bound of that row, or with ``None`` for a want no bound ran for.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.sims as sims_module
from oracles import DictDisk
from repro.core.invsax import invsax_keys
from repro.core.sims import (
    DENSE_FETCH_SHARE,
    RawFetch,
    bound_will_run,
    fetch_rows_that_can_win,
    rows_that_can_win,
    sims_scan,
)
from repro.core.summary_column import SummaryColumn
from repro.series import euclidean_batch, euclidean_lower_bounds, make_dataset
from repro.storage import DiskShard, RawSeriesFile, SimulatedDisk
from repro.storage.seriesfile import PagedRecords
from repro.summaries import SAXConfig


@st.composite
def layouts(draw):
    """``(length, page_size, appends)``: records packed back to back,
    packed with tail padding, or spanning 2..3 pages; the file grown in
    1..4 appends of ``(rows, foreign pages allocated first, pin the
    tail arena first)``, so it may span several arenas."""
    length = draw(st.integers(min_value=2, max_value=12))
    record = 4 * length
    shape = draw(st.sampled_from(["packed", "padded", "spanning"]))
    if shape == "spanning":
        pps = draw(st.integers(2, 3))
        page_size = -(-record // pps)
        assume(-(-record // page_size) == pps)
    else:
        page_size = draw(st.integers(1, 8)) * record
        if shape == "padded":
            page_size += draw(st.integers(1, record - 1))
    appends = draw(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 2), st.booleans()),
            min_size=1,
            max_size=4,
        )
    )
    return length, page_size, appends


def open_raw(kind, layout):
    """A raw file grown as ``layout`` says, read through a ``kind``
    device.  Returns ``(raw, device, rows, keep)``; deterministic, so
    two calls build twins."""
    length, page_size, appends = layout
    disk = (DictDisk if kind == "dict" else SimulatedDisk)(
        page_size=page_size, trace=True
    )
    raw = RawSeriesFile(disk, length)
    rng = np.random.default_rng(11)
    keep, blocks = [], []
    for rows, foreign, pin in appends:
        if foreign:
            disk.allocate(foreign)
        if pin and disk.pages_allocated:
            keep.append(disk.page_view(disk.pages_allocated - 1))
        blocks.append(rng.standard_normal((rows, length)).astype(np.float32))
        raw.append_batch(blocks[-1])
    device = disk
    if kind == "shard":
        device = DiskShard(disk)
        raw = raw.view(device)
    device.reset_stats()
    device.park_head()
    return raw, device, np.concatenate(blocks), keep


def io_state(device):
    """Counters, head and trace of the device under a raw file."""
    return device.stats.copy(), device.head_position, list(device.trace)


def requests(n):
    """Every record, shuffled, most records, or a few with repeats."""
    return st.one_of(
        st.just(list(range(n))),
        st.permutations(range(n)),
        st.lists(st.integers(0, n - 1), min_size=max(1, n * 3 // 4), max_size=n),
        st.lists(st.integers(0, n - 1), min_size=1, max_size=8),
    )


def one_query_at_a_time(queries, block):
    """The bound with a query block replaced by the 1-D calls it stands
    for.  A block's GEMM may round differently from those calls (each
    is rigorous: ``tests/test_gram_bound.py``), so with it the kept rows
    of a shared bound could differ from the reference at the margin."""
    if np.ndim(queries) == 1:
        return euclidean_lower_bounds(queries, block)
    return np.stack([euclidean_lower_bounds(query, block) for query in queries])


def assert_kept_bounds(wants, series, kept, bounds, bound=euclidean_lower_bounds):
    """Per want, ``None`` where :func:`bound_will_run` is false, else
    bit for bit ``bound(query, kept rows)``: the bound of each kept row.
    Call it while the module's ``BOUND_MIN_ELEMENTS`` is as the fetch
    saw it."""
    assert len(bounds) == len(kept) == len(wants)
    for (query, rows, threshold), rows_kept, row_bounds in zip(wants, kept, bounds):
        if not bound_will_run(len(rows), series.shape[1], threshold):
            assert row_bounds is None
            continue
        assert row_bounds.dtype == np.float64 and len(row_bounds) == len(rows_kept)
        assert row_bounds.tobytes() == bound(query, series[rows_kept]).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    layout=layouts(),
    kind=st.sampled_from(["arena", "shard", "dict"]),
    data=st.data(),
)
def test_property_paged_bound_equals_gather_then_bound(layout, kind, data):
    got_raw, got_dev, rows, _k1 = open_raw(kind, layout)
    ref_raw, ref_dev, _, _k2 = open_raw(kind, layout)
    ids = np.array(data.draw(requests(len(rows))), dtype=np.int64)
    positions = np.arange(len(ids))
    wants = []
    for _ in range(data.draw(st.integers(1, 3))):
        query = rows[data.draw(st.integers(0, len(rows) - 1))].astype(np.float64)
        query += data.draw(st.sampled_from([0.0, 1e-3, 0.5]))
        if data.draw(st.booleans()):
            mine = positions
        else:
            mask = st.lists(st.booleans(), min_size=len(ids), max_size=len(ids))
            mine = np.flatnonzero(data.draw(mask))
        distances = np.sort(euclidean_batch(query, rows[ids[mine]]))
        threshold = data.draw(
            st.one_of(
                st.just(float("inf")),
                st.sampled_from(list(distances) or [0.0]),
                st.floats(0.0, 10.0),
            )
        )
        wants.append((query, mine, threshold))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sims_module, "BOUND_MIN_ELEMENTS", 0)
        patch.setattr(sims_module, "euclidean_lower_bounds", one_query_at_a_time)
        series, identifiers, kept, bounds = fetch_rows_that_can_win(
            RawFetch(got_raw, ids), positions, wants
        )
        reference = ref_raw.get_many(ids)
        expected = [rows_that_can_win(q, reference, r, t) for q, r, t in wants]
        assert_kept_bounds(wants, series, kept, bounds)
    paged = (
        got_raw.records_fill_pages
        and any(t < float("inf") for _, _, t in wants)
        and got_raw.plan_fetch(ids).share >= DENSE_FETCH_SHARE
    )
    # A paged block copies only the union of the kept rows, in block
    # order; a gathered one is the whole block.
    copied = np.unique(np.concatenate(expected)) if paged else positions
    assert len(series) == len(copied)
    for rows_kept, rows_expected in zip(kept, expected):
        assert np.all(np.diff(rows_kept) > 0)
        np.testing.assert_array_equal(copied[rows_kept], rows_expected)
        assert series[rows_kept].tobytes() == reference[rows_expected].tobytes()
        np.testing.assert_array_equal(identifiers[rows_kept], ids[rows_expected])
    assert io_state(got_dev) == io_state(ref_dev)


# ---------------------------------------------------------------- routing
LENGTH = 16
PAGE = 8 * 4 * LENGTH  # eight records to a page, no padding


def _raw(page_size=PAGE, n=400, length=LENGTH):
    disk = SimulatedDisk(page_size=page_size)
    data = np.random.default_rng(5).standard_normal((n, length)).astype(np.float32)
    return disk, RawSeriesFile.create(disk, data), data


def _spy(monkeypatch, raw):
    """Counts of paged reads and gathers of ``raw``, and for each bound
    call whether it read page views (read-only) or a copy."""
    seen = {"paged": 0, "gathered": 0, "bound_views": []}
    read_records, get_many = raw.read_records, raw.get_many

    def paged(plan):
        seen["paged"] += 1
        return read_records(plan)

    def gathered(idxs):
        seen["gathered"] += 1
        return get_many(idxs)

    def bound(query, block):
        seen["bound_views"].append(not block.flags.writeable)
        return real_bound(query, block)

    real_bound = sims_module.euclidean_lower_bounds
    monkeypatch.setattr(raw, "read_records", paged)
    monkeypatch.setattr(raw, "get_many", gathered)
    monkeypatch.setattr(sims_module, "euclidean_lower_bounds", bound)
    monkeypatch.setattr(sims_module, "BOUND_MIN_ELEMENTS", 0)
    return seen


def _route(monkeypatch, raw, ids, threshold):
    """Which read served one single-query fetch, and what the bound saw;
    the kept rows' bounds are checked on the way."""
    seen = _spy(monkeypatch, raw)
    query = np.zeros(raw.length)
    positions = np.arange(len(ids))
    wants = [(query, positions, threshold)]
    series, identifiers, kept, bounds = fetch_rows_that_can_win(
        RawFetch(raw, ids), positions, wants
    )
    assert_kept_bounds(wants, series, kept, bounds)
    return seen, series, identifiers, kept[0]


def test_a_dense_block_at_a_finite_threshold_is_bounded_on_its_pages(monkeypatch):
    _, raw, data = _raw()
    ids = np.arange(40, 240)[::-1]  # 25 whole pages, unsorted
    seen, series, identifiers, rows = _route(monkeypatch, raw, ids, 4.0)
    assert seen["paged"] == 1 and seen["gathered"] == 0
    assert seen["bound_views"] == [True]
    assert len(series) == len(rows) < len(ids)  # only the kept rows are copied
    np.testing.assert_array_equal(rows, np.arange(len(series)))
    np.testing.assert_array_equal(series, data[identifiers])
    assert series.flags.writeable and series.flags.owndata


def test_a_query_needing_few_rows_of_a_dense_block_bounds_a_copy(monkeypatch):
    """The block is dense for the batch, not for every query in it: a
    query bounds the page views only when its own rows are dense."""
    _, raw, data = _raw()
    seen = _spy(monkeypatch, raw)
    positions = np.arange(200)
    few = positions[::10]
    wants = [
        (data[50].astype(np.float64), positions, 4.0),
        (np.zeros(LENGTH), few, 4.0),
    ]
    series, identifiers, kept, bounds = fetch_rows_that_can_win(
        RawFetch(raw, np.arange(40, 240)), positions, wants
    )
    assert seen["paged"] == 1
    assert seen["bound_views"] == [True, False]
    assert_kept_bounds(wants, series, kept, bounds)
    reference = data[40:240]
    for (query, rows, threshold), rows_kept in zip(wants, kept):
        expected = rows_that_can_win(query, reference, rows, threshold)
        np.testing.assert_array_equal(identifiers[rows_kept], 40 + expected)
        np.testing.assert_array_equal(series[rows_kept], reference[expected])


def test_dense_wants_share_one_bound_call_per_page_run(monkeypatch):
    """Every want that bounds a dense block whole is bounded in one call
    per page run, with the ``(Q, n)`` query block, on the read-only page
    views; each keeps its rows at its own threshold.  A want needing few
    rows still bounds its own copy."""
    _, raw, data = _raw()
    calls = []
    real_bound = sims_module.euclidean_lower_bounds

    def bound(queries, block):
        calls.append((np.shape(queries), block.flags.writeable, len(block)))
        return real_bound(queries, block)

    monkeypatch.setattr(sims_module, "euclidean_lower_bounds", bound)
    monkeypatch.setattr(sims_module, "BOUND_MIN_ELEMENTS", 0)
    # Pages 5..14 and 20..29: every record of two runs of pages.
    ids = np.concatenate([np.arange(40, 120), np.arange(160, 240)])
    positions = np.arange(len(ids))
    rng = np.random.default_rng(6)
    wants = []
    few = positions[::10]
    for j, rows in [(3, positions), (90, positions), (150, positions), (7, few)]:
        query = data[ids[j]].astype(np.float64) + 0.01 * rng.standard_normal(LENGTH)
        threshold = float(np.sort(euclidean_batch(query, data[ids[rows]]))[4])
        wants.append((query, rows, threshold))
    series, identifiers, kept, bounds = fetch_rows_that_can_win(
        RawFetch(raw, ids), positions, wants
    )
    assert calls == [((3, LENGTH), False, 80)] * 2 + [((LENGTH,), True, 16)]
    # The shared wants' bounds are the (Q, n) call's, one page run at a
    # time; the last want's are its own copy's.
    shared = np.stack([query for query, _, _ in wants[:3]])
    together = np.concatenate(
        [real_bound(shared, data[40:120]), real_bound(shared, data[160:240])], axis=1
    )
    for i, rows_kept in enumerate(kept[:3]):
        in_block = np.searchsorted(ids, identifiers[rows_kept])  # ``ids`` ascend
        assert bounds[i].tobytes() == together[i][in_block].tobytes()
    assert_kept_bounds(wants[3:], series, kept[3:], bounds[3:])
    for (query, rows, threshold), rows_kept in zip(wants, kept):
        winners = ids[rows][euclidean_batch(query, data[ids[rows]]) <= threshold]
        assert set(winners) <= set(identifiers[rows_kept])
        assert len(winners) <= len(rows_kept) < len(rows) / 2
        np.testing.assert_array_equal(series[rows_kept], data[identifiers[rows_kept]])


@pytest.mark.parametrize(
    "ids,threshold",
    [
        (np.arange(0, 400, 8), 4.0),  # one record per page: sparse
        (np.arange(0, 400, 3), 4.0),  # a third of each page: sparse
        (np.arange(40, 240), float("inf")),  # dense, but nothing to bound
    ],
    ids=["one-per-page", "a-third", "inf-threshold"],
)
def test_sparse_and_unbounded_blocks_take_the_gather(monkeypatch, ids, threshold):
    _, raw, data = _raw()
    seen, series, _, _ = _route(monkeypatch, raw, ids, threshold)
    assert seen["paged"] == 0 and seen["gathered"] == 1
    assert all(not view for view in seen["bound_views"])
    np.testing.assert_array_equal(series, data[ids])


@pytest.mark.parametrize(
    "page_size,length",
    [(PAGE + 12, LENGTH), (40, LENGTH)],
    ids=["padded", "page-spanning"],
)
def test_other_layouts_take_the_gather(monkeypatch, page_size, length):
    _, raw, data = _raw(page_size, n=120, length=length)
    seen, series, _, _ = _route(monkeypatch, raw, np.arange(len(data)), 4.0)
    assert not raw.records_fill_pages
    assert seen["paged"] == 0 and seen["gathered"] == 1 and len(series) == len(data)


def test_a_plain_fetch_is_called_as_it_is():
    data = np.random.default_rng(2).standard_normal((64, LENGTH)).astype(np.float32)
    calls = []

    def fetch(positions):
        calls.append(positions)
        return data[positions], positions

    series, _, _, bounds = fetch_rows_that_can_win(
        fetch, np.arange(64), [(np.zeros(LENGTH), np.arange(64), 1.0)]
    )
    assert len(calls) == 1 and series.shape == (64, LENGTH)
    assert bounds == [None]  # 64 x 16 elements: below BOUND_MIN_ELEMENTS


def test_no_view_outlives_the_call(monkeypatch):
    """The raw file is the tail arena: had a page view survived the
    fetch, growing the file would open a second arena."""
    monkeypatch.setattr(sims_module, "BOUND_MIN_ELEMENTS", 0)
    disk, raw, data = _raw()
    assert len(disk._arenas.arenas) == 1
    wants = [(data[3].astype(np.float64), np.arange(len(data)), 5.0)]
    series, _, kept, bounds = fetch_rows_that_can_win(
        RawFetch(raw), np.arange(len(data)), wants
    )
    assert len(series) < len(data)  # the paged path ran: only kept rows copied
    assert_kept_bounds(wants, series, kept, bounds)
    raw.append_batch(data[:100])
    assert len(disk._arenas.arenas) == 1 and raw.file.n_extents == 1
    records = raw.read_records(raw.plan_fetch(np.arange(8)))
    assert isinstance(records, PagedRecords)
    raw.append_batch(data[:100])  # a live view pins the tail arena
    assert len(disk._arenas.arenas) == 2
    del records


def test_paged_records_take_and_pick_across_arenas():
    """Several arenas, several runs: ``take`` and ``per_record`` find
    each requested record, duplicates and any order included."""
    disk = SimulatedDisk(page_size=PAGE)
    raw = RawSeriesFile(disk, LENGTH)
    data = np.random.default_rng(8).standard_normal((90, LENGTH)).astype(np.float32)
    for lo in range(0, 90, 30):
        disk.allocate(1)
        raw.append_batch(data[lo : lo + 30])
    ids = np.array([89, 0, 45, 45, 7, 31, 60, 88, 1])
    records = raw.read_records(raw.plan_fetch(ids))
    assert len(records.runs) >= 3
    assert all(not run.flags.writeable for run in records.runs)
    np.testing.assert_array_equal(records.take(np.arange(len(ids))), data[ids])
    np.testing.assert_array_equal(records.take(np.array([4, 2])), data[[7, 45]])
    np.testing.assert_array_equal(
        records.per_record(lambda run: run[:, 0]), data[ids, 0]
    )


# ------------------------------------------------------- copy regression
def test_a_dense_exact_block_copies_only_the_rows_that_can_win():
    """``sims_scan`` over a 4 096 x 256 float32 file whose SAX bounds
    prune nothing: gathering the block first allocated its 4 MiB;
    bounded on the pages, the scan's peak stays under a quarter."""
    n, length = 4096, 256
    config = SAXConfig(series_length=length, word_length=16, cardinality=256)
    data = make_dataset("seismic", n, length=length, seed=3).astype(np.float32)
    raw = RawSeriesFile.create(SimulatedDisk(page_size=8192), data)
    column = SummaryColumn(
        config, [invsax_keys(data, config)], [np.arange(n, dtype=np.int64)]
    )
    query = data[17].astype(np.float64) + 0.05
    distances = euclidean_batch(query, data)
    fourth = int(np.argsort(distances, kind="stable")[3])
    seed = dict(initial_bsf=float(distances[fourth]), initial_answer=fourth)
    fetch = column.raw_fetch(raw)
    sims_scan(query, column, config, fetch, **seed)  # warm caches
    tracemalloc.start()
    try:
        outcome = sims_scan(query, column, config, fetch, **seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.visited_records >= n // 2  # the block really is dense
    assert outcome.answer_idx == 17
    assert peak < data.nbytes / 4, peak
