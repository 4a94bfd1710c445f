"""Fetch oracle suite: vectorized gather vs loop-level oracle.

The vectorized ``RawSeriesFile.get_many`` / ``scan`` paths must be
indistinguishable from the loop-level oracle
(``tests/oracles.py::loop_get_many``) — same float32 payloads, same
classified :class:`DiskStats`, same head movement — on the product
device (zero-copy views) and on the dict oracle device (every read a
``bytes`` copy), for every layout the file supports: page-divisor and
non-divisor record sizes, records spanning multiple pages, duplicate /
unsorted / empty / out-of-range index arrays.  The vectored read under
the gather, ``read_pages``, is pinned the same way on every device
class to the loop of single reads it replaces
(``tests/oracles.py::loop_read_pages``), fault-plan op indices
included, and the two properties the gather's speed rests on — one
device call, no page copy — are pinned deterministically.  The refine kernel is
pinned to its contract: every value bitwise the naive one-shot formula
(or ``inf`` only strictly above the bound), never ``inf`` where the
scalar early-abandon loop keeps a row, and allocation-free per tile.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.series.distance import (
    TILE_BYTES,
    early_abandon_euclidean,
    early_abandon_euclidean_block,
    euclidean_batch,
)
from fault_injection import FaultPlan, FaultyDevice
from oracles import (
    DEVICES,
    DictDisk,
    loop_get_many,
    loop_read_pages,
    scatter_pages,
)
from repro.storage import PagedFile, RawSeriesFile, SimulatedDisk
from repro.storage.disk import DiskShard, PageError
from repro.storage.faults import TransientIOError

# (n_series, length, page_size): divisor and non-divisor single-page
# layouts, a page_size that is not a float32 multiple, and multi-page
# records (page_size < record_bytes).
GEOMETRIES = [
    (50, 32, 512),  # divisor: 4 records/page, no padding
    (25, 12, 256),  # non-divisor: 5 records + 16 B padding per page
    (137, 16, 1000),  # non-divisor, non-power-of-two page
    (3, 4, 70),  # page_size not a multiple of 4
    (9, 64, 128),  # multi-page: 2 pages per record
    (5, 96, 100),  # multi-page, padding in the last page of each record
]

INDEX_PATTERNS = [
    lambda n: np.arange(n),
    lambda n: np.arange(n)[::-1],  # descending
    lambda n: np.array([n - 1, 0, n // 2, n // 2, 0]),  # dup + unsorted
    lambda n: np.array([0]),
    lambda n: np.array([], dtype=np.int64),
    lambda n: np.arange(n)[::3],  # strided: non-consecutive pages
]


def make_raw(n, length, page_size, store, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, length)).astype(np.float32)
    disk = DEVICES[store](page_size=page_size)
    return disk, RawSeriesFile.create(disk, data), data


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_matches_oracle_and_data(store, n, length, page_size):
    _, raw, data = make_raw(n, length, page_size, store)
    for pattern in INDEX_PATTERNS:
        idxs = pattern(n)
        got = raw.get_many(idxs)
        oracle = loop_get_many(raw, idxs)
        assert got.shape == (len(idxs), length)
        np.testing.assert_array_equal(got, oracle)
        if len(idxs):
            np.testing.assert_array_equal(got, data[idxs])


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_stats_match_oracle(store, n, length, page_size):
    """Same classified I/O and head movement as the loop oracle."""
    for pattern in INDEX_PATTERNS:
        idxs = pattern(n)
        d1, r1, _ = make_raw(n, length, page_size, store)
        d2, r2, _ = make_raw(n, length, page_size, store)
        for d in (d1, d2):
            d.reset_stats()
            d.park_head()
        np.testing.assert_array_equal(r1.get_many(idxs), loop_get_many(r2, idxs))
        assert d1.stats == d2.stats
        assert d1.head_position == d2.head_position


@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_through_a_shard_costs_what_the_parent_would(n, length, page_size):
    """A view on a read-only shard gathers the same records, and its
    classified I/O, head and trace on the shard equal what the same
    request costs directly on the parent — so a served fetch is charged
    exactly what the cost model charges the disk."""
    for pattern in INDEX_PATTERNS:
        idxs = pattern(n)
        _, _, data = make_raw(n, length, page_size, "arena")
        disk = SimulatedDisk(page_size=page_size, trace=True)
        direct = SimulatedDisk(page_size=page_size, trace=True)
        raw, twin = RawSeriesFile.create(disk, data), RawSeriesFile.create(direct, data)
        shard = DiskShard(disk)
        view = raw.view(shard)
        direct.reset_stats()
        direct.park_head()
        before = disk.snapshot()
        got = view.get_many(idxs)
        np.testing.assert_array_equal(got, twin.get_many(idxs))
        np.testing.assert_array_equal(got, data[idxs].reshape(-1, length))
        assert shard.stats == direct.stats
        assert shard.head_position == direct.head_position
        assert shard.trace == direct.trace
        assert disk.snapshot() == before


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_out_of_range_raises_before_io(store, n, length, page_size):
    """Regression: OOB indexes used to silently gather padded zeros."""
    disk, raw, _ = make_raw(n, length, page_size, store)
    for bad in ([n], [-1], [0, n], [n + 100], [0, -1, 1]):
        for fn in (RawSeriesFile.get_many, loop_get_many):
            snap = disk.snapshot()
            with pytest.raises(IndexError):
                fn(raw, np.array(bad))
            assert disk.stats_since(snap).total_reads == 0


NON_INTEGER_INDICES = [
    # (call, argument): each used to return a record instead of failing.
    ("get_many", [2.7]),  # truncated to record 2
    ("get_many", np.array([True, False, True])),  # read as records 1, 0, 1
    ("get_many", np.array([1, 2], dtype=object)),
    ("get_many", np.array([1.0, 2.0])),
    ("get", True),  # read as record 1
    ("get", np.True_),
    ("get", 2.7),
    ("get", np.float64(1.0)),
    ("get", "1"),
]


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize(
    "call,argument",
    NON_INTEGER_INDICES,
    ids=[f"{call}-{i}" for i, (call, _) in enumerate(NON_INTEGER_INDICES)],
)
def test_non_integer_indices_are_refused_before_io(store, call, argument):
    disk, raw, data = make_raw(50, 32, 512, store)
    snap = disk.snapshot()
    with pytest.raises(TypeError, match="integer"):
        getattr(raw, call)(argument)
    assert disk.stats_since(snap).total_reads == 0
    # Integer indices of any width still read, and an empty request of
    # any dtype reads nothing.
    np.testing.assert_array_equal(raw.get(np.int32(2)), data[2])
    np.testing.assert_array_equal(raw.get_many(np.array([2], np.uint8)), data[[2]])
    assert raw.get_many([]).shape == (0, 32)


@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_scan_matches_data_everywhere(store, n, length, page_size):
    _, raw, data = make_raw(n, length, page_size, store)
    for chunk in (None, 1, 3, n, 10 * n):
        kwargs = {} if chunk is None else {"chunk_series": chunk}
        got = np.concatenate(
            [block for _, block in raw.scan(**kwargs)] or [data[:0]]
        )
        np.testing.assert_array_equal(got, data)
    for start, stop in [(0, n), (1, n - 1), (n // 2, n // 2 + 1), (n, n)]:
        parts = [b for _, b in raw.scan(chunk_series=3, start=start, stop=stop)]
        got = np.concatenate(parts) if parts else data[:0]
        np.testing.assert_array_equal(got, data[start:stop])


@pytest.mark.parametrize("store", DEVICES)
def test_multipage_get_many_visits_each_page_once(store):
    """Regression: the multi-page path re-read pages per record."""
    n, length, page_size = 9, 64, 128  # 2 pages per record
    disk, raw, data = make_raw(n, length, page_size, store)
    assert raw.pages_per_series == 2
    idxs = np.array([0, 1, 5, 5, 1])  # dups must not re-read
    disk.reset_stats()
    disk.park_head()
    np.testing.assert_array_equal(raw.get_many(idxs), data[idxs])
    # Distinct records {0, 1, 5}: 3 records x 2 pages, each read once.
    assert disk.stats.total_reads == 3 * raw.pages_per_series


@settings(max_examples=60, deadline=None)
@given(
    idxs=st.lists(st.integers(min_value=0, max_value=24), max_size=60),
    geometry=st.sampled_from([(25, 12, 256), (25, 7, 100), (25, 32, 128)]),
    store=st.sampled_from(sorted(DEVICES)),
)
def test_property_gather_equals_oracle(idxs, geometry, store):
    n, length, page_size = geometry
    d1, r1, data = make_raw(n, length, page_size, store, seed=5)
    d2, r2, _ = make_raw(n, length, page_size, store, seed=5)
    idxs = np.array(idxs, dtype=np.int64)
    for d in (d1, d2):
        d.reset_stats()
        d.park_head()
    got = r1.get_many(idxs)
    oracle = loop_get_many(r2, idxs)
    np.testing.assert_array_equal(got, oracle)
    if len(idxs):
        np.testing.assert_array_equal(got, data[idxs])
    assert d1.stats == d2.stats


# ------------------------------------------- the gather, on every device
DEVICE_KINDS = ["arena", "dict", "shard", "faulty"]


@st.composite
def layouts(draw):
    """(length, page_size, appends): 1..16 records per page with or
    without tail padding, or records spanning 2..3 pages; the file is
    grown in 1..6 appends of ``(rows, foreign pages allocated first,
    pin the tail arena first)``."""
    length = draw(st.integers(min_value=2, max_value=12))
    record = 4 * length
    pps = draw(st.integers(min_value=1, max_value=3))
    if pps == 1:
        spp = draw(st.integers(min_value=1, max_value=16))
        page_size = spp * record + draw(st.integers(0, record - 1))
    else:
        page_size = -(-record // pps)
        assume(-(-record // page_size) == pps)
    appends = draw(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(0, 3), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    return length, page_size, appends


def requests(n, spp):
    """Empty, duplicated + unsorted, dense, one per page, shuffled."""
    return st.one_of(
        st.just([]),
        st.lists(st.integers(0, n - 1), max_size=40),
        st.just(list(range(n))),
        st.just(list(range(0, n, spp))),
        st.permutations(range(n)),
    )


def open_raw(kind, layout, plan=None):
    """A raw file grown as ``layout`` says, bound to a ``kind`` device.

    Foreign allocations between appends split the file into several
    extents; a page view held across an append pins the tail arena, so
    the next extent opens a new arena.  Returns ``(raw, device, data,
    keep)``: ``device`` is where the counters move, ``keep`` what must
    stay referenced (the pins).  Deterministic, so
    two calls build twins.
    """
    length, page_size, appends = layout
    cls = DictDisk if kind == "dict" else SimulatedDisk
    disk = cls(page_size=page_size, trace=True)
    raw = RawSeriesFile(disk, length)
    rng = np.random.default_rng(5)
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
        # The read-only device: every page is served from the parent's
        # arenas, on the shard's own head and counters.
        device = DiskShard(disk)
        raw = raw.view(device)
    elif kind == "faulty":
        raw = raw.view(FaultyDevice(disk, plan))
    device.reset_stats()
    device.park_head()
    return raw, device, np.concatenate(blocks), keep


def io_state(device, per_page=False):
    """Counters, head and trace after some reads.  The loop oracle
    reads page by page and the gather run by run — the same pages in
    the same order — so those two compare their traces ``per_page``."""
    trace = device.trace
    if per_page:
        trace = [(op, first + i, 1) for op, first, n in trace for i in range(n)]
    return device.stats.copy(), device.head_position, trace


@settings(max_examples=150, deadline=None)
@given(
    layout=layouts(),
    kind=st.sampled_from(DEVICE_KINDS),
    data=st.data(),
)
def test_property_gather_equals_oracle_on_every_device(layout, kind, data):
    """Payload, DiskStats, head and trace of ``get_many`` are the loop
    oracle's — whatever the geometry, however many extents and arenas
    the file spans, on every device class."""
    got_raw, got_dev, rows, _k1 = open_raw(kind, layout)
    ref_raw, ref_dev, _, _k2 = open_raw(kind, layout)
    n = len(rows)
    # Two requests back to back: the second starts from wherever the
    # first left the head.
    for _ in range(2):
        idxs = data.draw(requests(n, got_raw.series_per_page))
        idxs = np.array(idxs, dtype=np.int64)
        got = got_raw.get_many(idxs)
        ref = loop_get_many(ref_raw, idxs)
        assert got.dtype == np.float32 and got.shape == (len(idxs), layout[0])
        assert got.flags.writeable and got.flags.c_contiguous
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(got, rows[idxs])
        assert io_state(got_dev, per_page=True) == io_state(ref_dev, per_page=True)


@settings(max_examples=150, deadline=None)
@given(
    layout=layouts(),
    kind=st.sampled_from(DEVICE_KINDS),
    data=st.data(),
)
def test_property_read_pages_equals_the_loop_of_single_reads(layout, kind, data):
    """``read_pages`` — native on the page stores, the run-replay
    adapter on everything else — is call for call the loop it replaces:
    any order, repeats, runs, a first page that continues the head."""
    got_raw, got_dev, _, _k1 = open_raw(kind, layout)
    ref_raw, ref_dev, _, _k2 = open_raw(kind, layout)
    # The file's last page is the device's last allocation.
    allocated = got_raw.file.physical_page(got_raw.file.n_pages - 1) + 1
    page = st.integers(0, allocated - 1)
    run = st.builds(
        lambda first, n: list(range(first, min(first + n, allocated))),
        page,
        st.integers(1, 6),
    )
    request = st.lists(st.one_of(page.map(lambda p: [p]), run), max_size=8).map(
        lambda parts: [p for part in parts for p in part]
    )
    for _ in range(3):
        pages = data.draw(request)
        head = got_dev.head_position
        if head is not None and head + 1 < allocated and data.draw(st.booleans()):
            pages = [head + 1] + pages  # continues the head: sequential
        scatter = got_raw.disk.read_pages(pages)
        assert all(not buffer.flags.writeable for buffer, _ in scatter)
        assert scatter_pages(scatter) == loop_read_pages(ref_raw.disk, pages)
        del scatter
        # Run for run, not merely page for page — fault-plan ops too.
        assert io_state(got_dev) == io_state(ref_dev)
        if kind == "faulty":
            assert got_raw.disk.reads_issued == ref_raw.disk.reads_issued


@settings(max_examples=100, deadline=None)
@given(
    layout=layouts(),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([0.1, 0.5, 0.9]),
    data=st.data(),
)
def test_property_gather_keeps_every_fault_plan_decision(layout, seed, p, data):
    """Under a seeded transient-read plan the gather consults the plan
    at the op indices of the per-run loop: same ``reads_issued``, same
    ``injected``, same reads reaching the disk, retries included."""
    plan = FaultPlan(seed=seed, p_transient_read=p)
    got_raw, got_disk, rows, _k1 = open_raw("faulty", layout, plan=plan)
    ref_raw, ref_disk, _, _k2 = open_raw("faulty", layout, plan=plan)
    spp, pps = got_raw.series_per_page, got_raw.pages_per_series
    for _ in range(3):  # a failed attempt moves the op index: retry
        idxs = data.draw(requests(len(rows), spp))
        plan_pages = sorted(
            {
                ref_raw.file.physical_page(idx // spp * pps + j)
                for idx in idxs
                for j in range(pps)
            }
        )
        outcomes = []
        for attempt in (
            lambda: got_raw.get_many(np.array(idxs, dtype=np.int64)),
            lambda: loop_read_pages(ref_raw.disk, plan_pages),
        ):
            try:
                attempt()
                outcomes.append("ok")
            except TransientIOError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        assert got_raw.disk.reads_issued == ref_raw.disk.reads_issued
        assert got_raw.disk.injected == ref_raw.disk.injected
        assert io_state(got_disk) == io_state(ref_disk)


@pytest.mark.parametrize(
    "length,page_size",
    [(6, 100), (6, 24), (6, 16), (6, 10)],
    ids=["padded", "one-per-page", "two-pages", "three-pages-padded"],
)
@pytest.mark.parametrize("kind", ["arena", "shard"])
def test_gather_across_arenas_and_extents(kind, length, page_size):
    """The assembly path, deterministically: a file in three or more
    arenas (read directly, or through a read-only shard) gathered by a
    request with repeats, out of order, touching all."""
    layout = (length, page_size, [(7, 1, True), (6, 2, True), (5, 0, True)])
    raw, device, rows, _keep = open_raw(kind, layout)
    disk = getattr(device, "parent", device)
    assert len(disk._arenas.arenas) >= 3 and raw.file.n_extents >= 2
    idxs = np.array([17, 0, 9, 9, 3, 12, 17, 6, 1])
    whole_file = raw.file.physical_pages(np.arange(raw.file.n_pages))
    assert len(device.read_pages(whole_file)) >= 2
    np.testing.assert_array_equal(raw.get_many(idxs), rows[idxs])
    np.testing.assert_array_equal(raw.get_many(np.arange(18)), rows)


def _paged(kind, n_pages=6, page_size=64):
    """A written ``n_pages`` device of ``kind`` (native ``read_pages``)."""
    disk = SimulatedDisk(page_size=page_size)
    disk.allocate(n_pages)
    for page in range(n_pages):
        disk.write_page(page, bytes([page + 1]) * page_size)
    disk.reset_stats()
    disk.park_head()
    if kind == "shard":
        return DiskShard(disk)
    return disk


@pytest.mark.parametrize("kind", ["arena", "shard"])
def test_read_pages_validates_before_anything_is_counted(kind):
    device = _paged(kind)
    assert device.read_pages([]) == []
    assert device.read_pages(np.array([], dtype=np.int64)) == []
    for bad in ([0, 1, 6], [-1, 0], [3, 99, 4]):
        with pytest.raises(PageError):
            device.read_pages(bad)  # the loop would have counted a run first
    assert device.stats.total_reads == 0 and device.stats.bytes_read == 0
    assert device.head_position is None


def test_scatter_list_is_zero_copy_read_only_and_pins_its_arena():
    """The lifetime rule of docs/storage.md, observed: entries alias
    live storage (a later write shows through), refuse writes, and pin
    the arena — a file growing while one is alive opens a new arena
    instead of growing its tail."""
    disk = SimulatedDisk(page_size=64)
    file = PagedFile(disk, n_pages=6)
    for page in range(6):
        file.write(page, bytes([page + 1]) * 64)
    [(buffer, rows)] = disk.read_pages([4, 0])
    assert buffer.shape == (6, 64) and rows.tolist() == [4, 0]
    assert not buffer.flags.writeable
    with pytest.raises(ValueError):
        buffer.flags.writeable = True
    with pytest.raises(ValueError):
        buffer[0, 0] = 0
    disk.write_page(0, b"\xff" * 64)
    assert bytes(buffer[rows[1]]) == b"\xff" * 64  # a window, not a copy
    file.grow(1)
    assert len(disk._arenas.arenas) == 2  # pinned tail: new arena
    del buffer
    file.grow(1)
    assert len(disk._arenas.arenas) == 2  # unpinned: grown in place
    assert file.n_extents == 1
    # A read-only shard serves the parent's arenas — still without
    # copying — and sees the parent's later writes through them.
    shard = DiskShard(disk)
    scatter = shard.read_pages([1, 2, 3, 4, 6])
    assert [rows.tolist() for _, rows in scatter] == [[1, 2, 3, 4], [0]]
    assert [len(buffer) for buffer, _ in scatter] == [6, 2]
    disk.write_page(3, b"\x07" * 64)
    assert scatter_pages(scatter)[2] == b"\x07" * 64


# ------------------------------- what makes the gather fast, pinned
class SpyDisk(SimulatedDisk):
    """Records every read verb that reaches the device."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def read_page(self, page_id):
        self.calls.append("read_page")
        return super().read_page(page_id)

    def read_run_bytes(self, first_page, n_pages):
        self.calls.append("read_run_bytes")
        return super().read_run_bytes(first_page, n_pages)

    def read_pages(self, pages):
        self.calls.append("read_pages")
        return super().read_pages(pages)


@pytest.mark.parametrize("n,length,page_size", GEOMETRIES)
def test_get_many_is_one_device_call(n, length, page_size):
    rng = np.random.default_rng(0)
    disk = SpyDisk(page_size=page_size)
    raw = RawSeriesFile.create(
        disk, rng.standard_normal((n, length)).astype(np.float32)
    )
    for pattern in INDEX_PATTERNS:
        disk.calls.clear()
        raw.get_many(pattern(n))
        assert disk.calls == ["read_pages"] * bool(len(pattern(n)))


def _gather_peak(raw, idxs):
    raw.get_many(idxs)  # warm imports and caches
    tracemalloc.start()
    try:
        out = raw.get_many(idxs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / out.nbytes


def test_gather_moves_records_not_pages():
    """Peak allocation of a 256-record gather from a 15 000 x 256 file,
    in units of its 256 KB output.  Joining the ~250 touched 8 KB pages
    first peaked at 9.95x; a copy of the pages out of the device costs
    the same.  From one arena the take *is* the output (1.05x); across
    arenas it is stored into the output entry by entry (2.1x)."""
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((15_000, 256)).astype(np.float32)
    idxs = rng.choice(len(rows), size=256, replace=False)
    raw = RawSeriesFile.create(SimulatedDisk(page_size=8192), rows)
    assert _gather_peak(raw, idxs) < 1.5
    disk = SimulatedDisk(page_size=8192)
    raw = RawSeriesFile.create(disk, rows[:7_000])
    pin = disk.page_view(0)
    raw.append_batch(rows[7_000:])
    assert len(disk._arenas.arenas) == 2 and pin is not None
    np.testing.assert_array_equal(raw.get_many(idxs), rows[idxs])
    assert _gather_peak(raw, idxs) < 3.0



# ------------------------------------------------------- refine kernel
def _naive(query, block):
    """The one-shot formula the tiled kernel must reproduce bitwise."""
    b64 = np.asarray(block, dtype=np.float64)
    q64 = np.asarray(query, dtype=np.float64)
    return np.sqrt(np.sum((b64 - q64[None, :]) ** 2, axis=1))


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _check_block_contract(query, block, bound, got):
    """The narrowed contract of ``early_abandon_euclidean_block``."""
    naive = _naive(query, block)
    assert got.shape == naive.shape and got.dtype == np.float64
    kept = got != np.inf
    assert np.array_equal(_bits(got[kept]), _bits(naive[kept]))
    # inf only for a row provably above the bound.
    assert np.all(naive[~kept] > bound)
    assert np.all(np.isnan(got[np.isnan(naive)]))
    return naive


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_kind=st.sampled_from(["0", "1", "tile-1", "tile", "tile+1", "3tile+5"]),
    length=st.integers(min_value=1, max_value=1000),
    dtype=st.sampled_from([np.float32, np.float64]),
    layout=st.sampled_from(["contiguous", "row-sliced", "fancy"]),
    bound_kind=st.sampled_from(["inf", "nan", "zero", "median", "min", "max"]),
)
def test_property_block_kernel_pinned_to_scalar_loop(
    seed, n_kind, length, dtype, layout, bound_kind
):
    """Bitwise the naive formula; never abandons what the scalar keeps."""
    tile = max(1, TILE_BYTES // (8 * length))
    n = {
        "0": 0,
        "1": 1,
        "tile-1": tile - 1,
        "tile": tile,
        "tile+1": tile + 1,
        "3tile+5": 3 * tile + 5,
    }[n_kind]
    rng = np.random.default_rng(seed)
    query = rng.standard_normal(length).astype(dtype)
    if layout == "contiguous":
        block = rng.standard_normal((n, length)).astype(dtype)
    elif layout == "row-sliced":
        block = rng.standard_normal((2 * n, length + 3)).astype(dtype)[::2, 1:-2]
    else:
        pool = rng.standard_normal((max(1, n // 2), length)).astype(dtype)
        block = pool[rng.integers(0, len(pool), size=n)]
    full = _naive(query, block)
    bound = {
        "inf": np.inf,
        "nan": np.nan,
        "zero": 0.0,
        "median": float(np.median(full)) if n else 1.0,
        "min": float(full.min()) if n else 0.5,
        "max": float(full.max()) if n else 2.0,
    }[bound_kind]
    got = early_abandon_euclidean_block(query, block, bound)
    _check_block_contract(query, block, bound, got)
    assert np.array_equal(_bits(euclidean_batch(query, block)), _bits(full))
    # The scalar UCR loop on the rows around every tile boundary: where
    # it returns a finite distance the block kernel returns the same
    # bits, never ``inf``.
    edges = {0, n - 1, tile - 1, tile, 2 * tile - 1, 2 * tile, 3 * tile}
    for i in sorted(e for e in edges if 0 <= e < n):
        scalar = early_abandon_euclidean(query, block[i], bound)
        if scalar != np.inf:
            assert _bits(got[i : i + 1]) == _bits([scalar])
        else:
            assert full[i] > bound


def test_block_kernel_peak_allocation_is_one_tile():
    """Refining a 4 MB block allocates a scratch tile and the output —
    the property the kernel's speed rests on (the chunked kernel peaked
    at 26 MB here, the one-shot formula at 17 MB)."""
    rng = np.random.default_rng(3)
    block = rng.standard_normal((4096, 256)).astype(np.float32)
    query = rng.standard_normal(256)
    for bound in (np.inf, float(np.median(_naive(query, block)))):
        early_abandon_euclidean_block(query, block, bound)  # warm imports
        tracemalloc.start()
        try:
            early_abandon_euclidean_block(query, block, bound)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak


def test_block_kernel_inf_bound_is_plain_batch():
    rng = np.random.default_rng(9)
    block = rng.standard_normal((40, 256)).astype(np.float32)
    query = rng.standard_normal(256).astype(np.float32)
    got = early_abandon_euclidean_block(query, block, np.inf)
    ref = euclidean_batch(query, block)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_block_kernel_shape_mismatch():
    query = np.zeros(16)
    with pytest.raises(ValueError):
        early_abandon_euclidean_block(query, np.zeros((3, 15)), 1.0)
    with pytest.raises(ValueError):
        early_abandon_euclidean_block(query, np.zeros(16), 1.0)  # 1-D block


def test_block_kernel_empty_block():
    got = early_abandon_euclidean_block(np.zeros(8), np.empty((0, 8)), 1.0)
    assert got.shape == (0,)


def test_block_kernel_nan_rows_survive_like_scalar():
    """NaN payloads must come back NaN (kept), never inf (abandoned)."""
    query = np.zeros(64)
    block = np.zeros((2, 64))
    block[0, 40] = np.nan  # NaN after the scalar loop's first chunk
    block[1, :] = 100.0  # the scalar loop abandons this row
    got = early_abandon_euclidean_block(query, block, 1.0)
    scalar = [
        early_abandon_euclidean(query, block[i], 1.0, chunk=32)
        for i in range(2)
    ]
    assert np.isnan(got[0]) and np.isnan(scalar[0])
    assert scalar[1] == float("inf")
    # Abandoning is allowed, not required: inf or the exact distance.
    naive = _check_block_contract(query, block, 1.0, got)
    assert got[1] in (float("inf"), naive[1]) and naive[1] == 800.0
