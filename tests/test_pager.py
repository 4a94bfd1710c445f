"""Tests for paged files and extent bookkeeping."""

import pytest

from oracles import DEVICES
from repro.storage import PagedFile, PageError, SimulatedDisk


def test_single_allocation_is_one_extent():
    disk = SimulatedDisk()
    file = PagedFile(disk, n_pages=10)
    assert file.n_extents == 1
    assert file.n_pages == 10


def test_incremental_growth_without_interference_merges_extents():
    disk = SimulatedDisk()
    file = PagedFile(disk)
    file.grow(2)
    file.grow(3)
    assert file.n_extents == 1
    assert file.n_pages == 5


def test_interleaved_growth_fragments_files():
    """Two files grown alternately scatter each other's extents."""
    disk = SimulatedDisk()
    a = PagedFile(disk)
    b = PagedFile(disk)
    for _ in range(3):
        a.grow(1)
        b.grow(1)
    assert a.n_extents == 3
    assert b.n_extents == 3


def test_logical_to_physical_mapping_across_extents():
    disk = SimulatedDisk()
    a = PagedFile(disk)
    a.grow(2)  # physical 0, 1
    PagedFile(disk, n_pages=3)  # physical 2..4 (interloper)
    a.grow(2)  # physical 5, 6
    assert [a.physical_page(i) for i in range(4)] == [0, 1, 5, 6]


def _linear_walk(file, logical):
    """The extent walk ``physical_page`` used before it bisected."""
    remaining = logical
    for extent in file._extents:
        if 0 <= remaining < extent.n_pages:
            return extent.first_page + remaining
        remaining -= extent.n_pages
    raise AssertionError("extent bookkeeping out of sync")


def test_physical_page_bisect_equals_linear_walk_on_60_extents():
    disk = SimulatedDisk()
    file, other = PagedFile(disk), PagedFile(disk)
    for i in range(60):
        file.grow(1 + i % 3)
        other.grow(1)  # an interloper after every grow: no merging
    assert file.n_extents == 60

    def check():
        for logical in range(file.n_pages):
            assert file.physical_page(logical) == _linear_walk(file, logical)
        for logical in (-1, file.n_pages):
            with pytest.raises(PageError, match="out of range"):
                file.physical_page(logical)
        view = file.attach(disk)
        assert view.physical_page(file.n_pages - 1) == _linear_walk(
            file, file.n_pages - 1
        )

    check()
    file.grow(4)  # a 61st extent ...
    assert file.n_extents == 61
    check()
    file.grow(2)  # ... then one that merges into it
    assert file.n_extents == 61
    check()
    assert file._physical_runs(0, file.n_pages) == [
        (extent.first_page, extent.n_pages) for extent in file._extents
    ]


def test_out_of_range_access_fails():
    disk = SimulatedDisk()
    file = PagedFile(disk, n_pages=2)
    with pytest.raises(PageError):
        file.read(2)
    with pytest.raises(PageError):
        file.physical_page(-1)


def test_contiguous_file_io_is_sequential():
    disk = SimulatedDisk()
    file = PagedFile(disk, n_pages=5)
    for i in range(5):
        file.write(i, b"x")
    assert disk.stats.sequential_writes == 4
    assert disk.stats.random_writes == 1


def test_fragmented_file_io_pays_random_accesses():
    disk = SimulatedDisk()
    a = PagedFile(disk)
    b = PagedFile(disk)
    for _ in range(4):
        a.grow(1)
        b.grow(1)
    for i in range(4):
        a.write(i, b"x")
    # Every logical page of `a` lives in its own extent: all seeks.
    assert disk.stats.random_writes == 4


def test_write_stream_spans_pages_and_reads_back():
    disk = SimulatedDisk(page_size=8)
    file = PagedFile(disk)
    payload = bytes(range(20))
    n_pages = file.write_stream(payload)
    assert n_pages == 3
    restored = file.read_stream(0, 3)
    assert restored[:20] == payload
    assert len(restored) == 24  # padded to whole pages


def test_append_page():
    disk = SimulatedDisk()
    file = PagedFile(disk)
    idx = file.append_page(b"abc")
    assert idx == 0
    assert file.read(0)[:3] == b"abc"  # reads return full padded pages


# --------------------------------------------- bytes-level fast path
def _slow_read_stream(file, first, n):
    """Per-page reference for the read_stream fast path."""
    return b"".join(
        bytes(file.read(i)) for i in range(first, first + n)
    )


def test_stream_fast_path_matches_per_page_on_fragmented_files():
    """read/write_stream via run-bytes == the page-at-a-time oracle:
    same bytes, same stored pages, same classified DiskStats — across
    extent boundaries and short tail pages."""
    import numpy as np

    rng = np.random.default_rng(3)
    for trial in range(25):
        d_fast, d_slow = SimulatedDisk(page_size=96), SimulatedDisk(page_size=96)
        f_fast, f_slow = PagedFile(d_fast), PagedFile(d_slow)
        o_fast, o_slow = PagedFile(d_fast), PagedFile(d_slow)
        for _ in range(int(rng.integers(1, 5))):  # interleave: fragmentation
            g = int(rng.integers(1, 6))
            f_fast.grow(g)
            f_slow.grow(g)
            o_fast.grow(1)
            o_slow.grow(1)
        n_bytes = int(rng.integers(1, f_fast.n_pages * 96 + 1))
        data = bytes(rng.integers(0, 256, size=n_bytes, dtype=np.uint8))
        at_page = int(rng.integers(0, f_fast.n_pages))
        f_fast.write_stream(data, at_page=at_page)
        ps = 96
        n_pages = max(1, -(-len(data) // ps))
        if at_page + n_pages > f_slow.n_pages:
            f_slow.grow(at_page + n_pages - f_slow.n_pages)
        for i in range(n_pages):
            f_slow.write(at_page + i, data[i * ps : (i + 1) * ps])
        assert d_fast.stats == d_slow.stats, trial
        assert d_fast.dump_pages() == d_slow.dump_pages(), trial
        first = int(rng.integers(0, f_fast.n_pages))
        count = int(rng.integers(0, f_fast.n_pages - first + 1))
        assert f_fast.read_stream(first, count) == _slow_read_stream(
            f_slow, first, count
        )
        assert d_fast.stats == d_slow.stats, trial
        assert d_fast.head_position == d_slow.head_position, trial


def test_stream_fast_path_on_shards_matches_per_page():
    """The bulk interface of DiskShard classifies like its page loop."""
    from repro.storage import DiskShard

    def build():
        disk = SimulatedDisk(page_size=32)
        source = PagedFile(disk, n_pages=4)
        source.write_stream(bytes(range(100)))
        PagedFile(disk, n_pages=2).write_stream(b"z" * 50)  # a second arena
        source.grow(2)  # a second extent, after the neighbour
        source.write_stream(b"y" * 64, at_page=4)
        disk.reset_stats()
        disk.park_head()
        return disk, source

    d1, s1 = build()
    d2, s2 = build()
    shard1, shard2 = DiskShard(d1), DiskShard(d2)
    got_bulk = s1.attach(shard1).read_stream(0, 6)
    view = s2.attach(shard2)
    got_pages = b"".join(bytes(view.read(i)) for i in range(6))
    assert got_bulk == got_pages
    assert got_bulk == bytes(range(100)).ljust(128, b"\x00") + b"y" * 64
    assert shard1.stats == shard2.stats  # two extents: two seeks either way
    assert shard1.stats.random_reads == 2 and shard1.stats.sequential_reads == 4


def test_read_stream_empty_range_and_bounds():
    disk = SimulatedDisk(page_size=16)
    file = PagedFile(disk, n_pages=2)
    assert file.read_stream(0, 0) == b""
    assert file.read_stream(2, 0) == b""
    with pytest.raises(PageError):
        file.read_stream(1, 2)
    with pytest.raises(PageError):
        file.read_stream(-1, 1)


def test_write_stream_empty_payload_still_touches_one_page():
    fast, slow = SimulatedDisk(page_size=16), SimulatedDisk(page_size=16)
    f_fast, f_slow = PagedFile(fast), PagedFile(slow)
    assert f_fast.write_stream(b"") == 1
    f_slow.grow(1)
    f_slow.write(0, b"")
    assert fast.stats == slow.stats
    assert fast.dump_pages() == slow.dump_pages()


@pytest.mark.parametrize("store", DEVICES)
def test_negative_stream_ranges_are_refused_before_any_io(store):
    """``write_stream(at_page=-1)`` on file ``b`` used to land one page
    before ``b`` — in file ``a``, CRC recorded — and ``read_stream(0,
    -1)`` returned ``b""``.  Both raise first: the neighbour's bytes,
    the counters, the head, the checksums and the extent table stay."""
    disk = DEVICES[store](page_size=32, integrity=True, trace=True)
    a = PagedFile(disk, n_pages=2, name="a")
    a.write_stream(b"A" * 64)
    b = PagedFile(disk, n_pages=1, name="b")
    b.write_stream(b"b" * 32)

    def state():
        return (
            disk.dump_pages(),
            disk.stats.copy(),
            disk.head_position,
            list(disk.trace),
            dict(disk.checksums._crcs),
            disk.pages_allocated,
            (a.n_pages, a._extents, b.n_pages, b._extents),
        )

    before = state()
    for at_page in (-1, -2, -3):
        with pytest.raises(PageError):
            b.write_stream(b"B" * 64, at_page=at_page)
    for first, n in ((0, -1), (1, -1), (-1, -1)):
        with pytest.raises(PageError):
            b.read_stream(first, n)
        with pytest.raises(PageError):
            a.read_stream(first, n)
    assert state() == before
    assert bytes(a.read_stream(0, 2)) == b"A" * 64
