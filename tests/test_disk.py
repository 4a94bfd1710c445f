"""Tests for the simulated block device and its I/O classification."""

import pytest

from repro.storage import (
    CostModel,
    DiskStats,
    PageError,
    ShardedDisk,
    SimulatedDisk,
)


def test_allocate_returns_contiguous_ranges():
    disk = SimulatedDisk()
    first = disk.allocate(4)
    second = disk.allocate(2)
    assert first == 0
    assert second == 4
    assert disk.pages_allocated == 6


def test_allocate_rejects_nonpositive():
    disk = SimulatedDisk()
    with pytest.raises(ValueError):
        disk.allocate(0)


def test_write_then_read_roundtrip():
    disk = SimulatedDisk(page_size=64)
    page = disk.allocate()
    disk.write_page(page, b"hello")
    # Reads always return the full zero-padded page.
    got = disk.read_page(page)
    assert len(got) == 64
    assert bytes(got) == b"hello".ljust(64, b"\x00")


def test_write_rejects_oversized_data():
    disk = SimulatedDisk(page_size=8)
    page = disk.allocate()
    with pytest.raises(PageError):
        disk.write_page(page, b"123456789")


def test_unallocated_page_access_fails():
    disk = SimulatedDisk()
    with pytest.raises(PageError):
        disk.read_page(0)
    with pytest.raises(PageError):
        disk.write_page(3, b"x")


def test_first_access_is_random():
    disk = SimulatedDisk()
    disk.allocate(2)
    disk.write_page(0, b"a")
    assert disk.stats.random_writes == 1
    assert disk.stats.sequential_writes == 0


def test_adjacent_accesses_are_sequential():
    disk = SimulatedDisk()
    disk.allocate(5)
    for page in range(5):
        disk.write_page(page, b"x")
    assert disk.stats.random_writes == 1
    assert disk.stats.sequential_writes == 4


def test_read_after_adjacent_write_is_sequential():
    """The head position is shared between reads and writes."""
    disk = SimulatedDisk()
    disk.allocate(3)
    for page in range(3):
        disk.write_page(page, b"x")
    disk.park_head()
    disk.read_page(0)
    disk.read_page(1)
    assert disk.stats.random_reads == 1
    assert disk.stats.sequential_reads == 1


def test_backwards_access_is_random():
    disk = SimulatedDisk()
    disk.allocate(3)
    disk.write_page(0, b"a")
    disk.write_page(1, b"b")
    disk.write_page(0, b"c")  # head moves backwards
    assert disk.stats.random_writes == 2
    assert disk.stats.sequential_writes == 1


def test_scattered_access_is_random():
    disk = SimulatedDisk()
    disk.allocate(10)
    for page in (0, 5, 2, 9):
        disk.write_page(page, b"x")
    assert disk.stats.random_writes == 4


def test_snapshot_diffs_are_isolated():
    disk = SimulatedDisk()
    disk.allocate(4)
    disk.write_page(0, b"x")
    snapshot = disk.snapshot()
    disk.write_page(1, b"y")
    disk.write_page(2, b"z")
    delta = disk.stats_since(snapshot)
    assert delta.total_writes == 2
    assert snapshot.total_writes == 1


def test_bytes_are_counted_in_whole_pages():
    disk = SimulatedDisk(page_size=100)
    disk.allocate(1)
    disk.write_page(0, b"ab")
    assert disk.stats.bytes_written == 100


def test_read_run_is_one_seek_then_streaming():
    disk = SimulatedDisk()
    disk.allocate(8)
    for page in range(8):
        disk.write_page(page, bytes([page]))
    disk.park_head()
    data = disk.read_run(2, 4)
    assert [d[0] for d in data] == [2, 3, 4, 5]
    assert disk.stats.random_reads == 1
    assert disk.stats.sequential_reads == 3


def test_cost_model_penalizes_random_access():
    model = CostModel(random_read_ms=10.0, sequential_read_ms=0.1)
    random_heavy = DiskStats(random_reads=100)
    sequential_heavy = DiskStats(sequential_reads=100)
    assert model.io_ms(random_heavy) == pytest.approx(1000.0)
    assert model.io_ms(sequential_heavy) == pytest.approx(10.0)


def test_stats_arithmetic():
    a = DiskStats(1, 2, 3, 4, 500, 600)
    b = DiskStats(1, 1, 1, 1, 100, 100)
    diff = a - b
    assert diff.sequential_reads == 0
    assert diff.random_reads == 1
    assert diff.bytes_written == 500
    total = diff + b
    assert total.total_ios == a.total_ios


def test_reset_stats():
    disk = SimulatedDisk()
    disk.allocate(1)
    disk.write_page(0, b"x")
    disk.reset_stats()
    assert disk.stats.total_ios == 0


def _device_state(device, disk):
    return (
        device.stats.copy(),
        device.head_position,
        list(device.trace),
        disk.dump_pages(),
    )


@pytest.mark.parametrize(
    "pages", [[b"a", b"b"], [b"a", b"x" * 65], [b"x" * 65, b"b"]],
    ids=["overrun", "long-last", "long-first"],
)
def test_write_run_is_all_or_nothing_on_the_disk(pages):
    """Regression: an overrunning (or oversized) list wrote and charged
    its valid prefix before raising."""
    disk = SimulatedDisk(page_size=64, trace=True)
    disk.allocate(4)
    disk.write_page(1, b"kept")
    first = 3 if pages == [b"a", b"b"] else 2
    before = _device_state(disk, disk)
    with pytest.raises(PageError):
        disk.write_run(first, pages)
    assert _device_state(disk, disk) == before
    disk.write_run(2, [b"a", b"b"])  # in range: lands right after page 1
    assert disk.stats.random_writes == 1 and disk.stats.sequential_writes == 2


def test_write_run_is_all_or_nothing_on_a_shard():
    disk = SimulatedDisk(page_size=64, trace=True)
    extent = disk.allocate(4)
    with ShardedDisk(disk, [(extent + 1, 2)]) as (shard,):
        shard.write_page(extent + 1, b"kept")
        before = _device_state(shard, disk)
        for first, pages in [
            (extent + 2, [b"a", b"b"]),  # overruns the extent
            (extent, [b"a", b"b"]),  # starts before it
            (extent + 1, [b"a", b"x" * 65]),  # oversized payload
        ]:
            with pytest.raises(PageError):
                shard.write_run(first, pages)
            assert _device_state(shard, disk) == before
            assert shard.pages_written == 1
        shard.write_run(extent + 1, [b"a", b"b"])
    assert bytes(disk.page_view(extent + 2))[:1] == b"b"


def test_sharded_disk_rejects_a_short_names_list():
    """Regression: died with a bare IndexError halfway through building
    the shards."""
    disk = SimulatedDisk(page_size=64)
    first = disk.allocate(4)
    for names in (["only-one"], ["a", "b", "c"]):
        with pytest.raises(ValueError, match="names"):
            ShardedDisk(disk, [(first, 2), (first + 2, 2)], names=names)
        assert not disk.sharded
        disk.write_page(first, b"still live")  # parent left unfenced
    with ShardedDisk(disk, [(first, 2), (first + 2, 2)], names=["a", "b"]) as s:
        assert [shard.name for shard in s] == ["a", "b"]
