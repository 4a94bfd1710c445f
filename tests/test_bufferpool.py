"""Tests for the LRU buffer pool and its shard-scoped lifecycle."""

import pytest

from repro.storage import (
    BufferPool,
    PagedFile,
    PageError,
    ShardedDisk,
    SimulatedDisk,
)


def make_disk_with_pages(n):
    disk = SimulatedDisk()
    disk.allocate(n)
    for page in range(n):
        disk.write_page(page, bytes([page]))
    disk.reset_stats()
    disk.park_head()
    return disk


def test_cache_hit_avoids_disk_io():
    disk = make_disk_with_pages(4)
    pool = BufferPool(disk, capacity_pages=4)
    pool.read(0)
    before = disk.stats.total_reads
    pool.read(0)
    assert disk.stats.total_reads == before
    assert pool.hits == 1
    assert pool.misses == 1


def test_lru_eviction_order():
    disk = make_disk_with_pages(3)
    pool = BufferPool(disk, capacity_pages=2)
    pool.read(0)
    pool.read(1)
    pool.read(0)  # page 0 is now most recent
    pool.read(2)  # evicts page 1
    disk.reset_stats()
    pool.read(0)
    assert disk.stats.total_reads == 0  # still cached
    pool.read(1)
    assert disk.stats.total_reads == 1  # was evicted


def test_zero_capacity_disables_caching():
    disk = make_disk_with_pages(2)
    pool = BufferPool(disk, capacity_pages=0)
    pool.read(0)
    pool.read(0)
    assert pool.hits == 0
    assert disk.stats.total_reads == 2


def test_write_through_updates_cache_and_disk():
    disk = make_disk_with_pages(2)
    pool = BufferPool(disk, capacity_pages=2)
    pool.write(0, b"new")
    assert disk.stats.total_writes == 1
    disk.reset_stats()
    assert pool.read(0)[:3] == b"new"
    assert disk.stats.total_reads == 0  # served from cache
    assert disk.read_page(0)[:3] == b"new"  # durably on disk


def test_invalidate_single_and_all():
    disk = make_disk_with_pages(3)
    pool = BufferPool(disk, capacity_pages=3)
    for page in range(3):
        pool.read(page)
    pool.invalidate(1)
    assert pool.cached_pages == 2
    pool.invalidate()
    assert pool.cached_pages == 0


def test_negative_capacity_rejected():
    disk = make_disk_with_pages(1)
    with pytest.raises(ValueError):
        BufferPool(disk, capacity_pages=-1)


def test_hit_rate():
    disk = make_disk_with_pages(2)
    pool = BufferPool(disk, capacity_pages=2)
    assert pool.hit_rate == 0.0  # defined (not NaN/raise) before any access
    pool.read(0)
    pool.read(0)
    pool.read(0)
    assert pool.hit_rate == pytest.approx(2 / 3)


# --------------------------------------------- shard-scoped lifecycle
def test_detached_pool_rejects_io():
    pool = BufferPool(None, capacity_pages=2)
    assert not pool.attached
    with pytest.raises(PageError):
        pool.read(0)
    with pytest.raises(PageError):
        pool.write(0, b"x")
    with pytest.raises(PageError):
        pool.page_size
    with pytest.raises(PageError):
        pool.allocate(1)


def test_attach_and_detach_cycle_drops_cache():
    disk = make_disk_with_pages(3)
    pool = BufferPool(disk, capacity_pages=3)
    pool.read(0)
    pool.read(1)
    assert pool.cached_pages == 2
    pool.detach()
    assert pool.cached_pages == 0 and not pool.attached
    with pytest.raises(PageError):
        pool.read(0)
    pool.attach(disk)
    disk.reset_stats()
    pool.read(0)  # cold again: hits the disk, not a stale cache
    assert disk.stats.total_reads == 1


def test_pool_is_shard_scoped_under_the_session_lifecycle():
    """A pool re-bound between I/O domains never leaks cached pages.

    This is the isolation the parallel fetch relies on: each worker's
    pool caches only what *its* shard read, a re-bind starts cold, and
    the shard underneath accounts every miss on its own counters.
    """
    disk = make_disk_with_pages(4)
    with ShardedDisk(disk, 2) as (a, b):
        pool_a = BufferPool(a, capacity_pages=4)
        pool_b = BufferPool(b, capacity_pages=4)
        assert pool_a.read(2)[:1] == bytes([2])  # parent snapshot via shard a
        assert pool_a.read(2)[:1] == bytes([2])  # now served by pool a's cache
        assert a.stats.total_reads == 1
        assert b.stats.total_reads == 0  # b's domain untouched
        assert pool_b.read(2)[:1] == bytes([2])  # b pays its own read
        assert b.stats.total_reads == 1
        # Re-binding a's pool to shard b starts from a cold cache.
        pool_a.attach(b)
        assert pool_a.cached_pages == 0
        pool_a.read(2)
        assert b.stats.total_reads == 2
        pool_a.detach()
        with pytest.raises(PageError):
            pool_a.read(2)
    # After the session the pool can serve the parent domain.
    pool = BufferPool(disk, capacity_pages=2)
    assert pool.read(2)[:1] == bytes([2])


def test_pool_as_device_for_paged_file_views():
    """PagedFile.attach(pool) routes file reads through the cache."""
    disk = SimulatedDisk()
    file = PagedFile(disk, name="data")
    file.write_stream(b"a" * disk.page_size + b"b" * disk.page_size)
    pool = BufferPool(disk, capacity_pages=4)
    view = file.attach(pool)
    assert view.read_stream(0, 2) == file.read_stream(0, 2)
    disk.reset_stats()
    view.read_stream(0, 2)  # cached: no disk I/O
    assert disk.stats.total_reads == 0
    assert pool.hits >= 2


# --------------------------------------------- context-manager lifecycle
def test_pool_context_manager_detaches_on_exit():
    disk = make_disk_with_pages(2)
    with BufferPool(disk, capacity_pages=2) as pool:
        pool.read(0)
        assert pool.attached
    assert not pool.attached
    assert pool.cached_pages == 0


def test_pool_context_manager_detaches_on_error():
    disk = make_disk_with_pages(2)
    with pytest.raises(RuntimeError):
        with BufferPool(disk, capacity_pages=2) as pool:
            pool.read(0)
            raise RuntimeError("worker died")
    assert not pool.attached
    assert pool.cached_pages == 0


def test_sharded_session_unfences_parent_on_error():
    """An exception inside a ``with ShardedDisk`` aborts the session:
    the pool and the shard detach, the shard's reads are not reconciled,
    and the parent keeps taking I/O."""
    disk = make_disk_with_pages(2)
    with pytest.raises(RuntimeError):
        with ShardedDisk(disk, 1) as (shard,):
            with BufferPool(shard, capacity_pages=2) as pool:
                pool.read(0)
                raise RuntimeError("partition failed")
    assert not shard.attached and not pool.attached
    assert disk.stats.total_ios == 0
    disk.write_page(0, b"writable again")  # parent accepts I/O
    assert disk.read_page(0)[:14] == b"writable again"


# --------------------------------------------- bytes-level bulk streaming
def test_bulk_read_matches_per_page_reads_exactly():
    """read_run_bytes: same bytes, hits, misses, LRU and disk counters
    as the equivalent per-page loop, for any pre-warmed cache state."""
    import numpy as np

    rng = np.random.default_rng(5)
    for trial in range(25):
        n_pages = int(rng.integers(4, 20))
        payload = bytes(rng.integers(0, 256, size=n_pages * 64, dtype=np.uint8))
        disks = []
        for _ in range(2):
            disk = SimulatedDisk(page_size=64)
            file = PagedFile(disk, n_pages=n_pages)
            file.write_stream(payload)
            disk.reset_stats()
            disk.park_head()
            disks.append((disk, file))
        (d1, f1), (d2, f2) = disks
        capacity = int(rng.integers(0, n_pages + 2))
        p1, p2 = BufferPool(d1, capacity), BufferPool(d2, capacity)
        warm = rng.choice(n_pages, size=int(rng.integers(0, n_pages)), replace=False)
        for w in warm:
            p1.read(int(w))
            p2.read(int(w))
        first = int(rng.integers(0, n_pages))
        count = int(rng.integers(1, n_pages - first + 1))
        bulk = p1.read_run_bytes(first, count)
        parts = []
        for page in range(first, first + count):
            parts.append(bytes(p2.read(page)))
        assert bulk == b"".join(parts)
        assert (p1.hits, p1.misses) == (p2.hits, p2.misses), trial
        assert list(p1._cache) == list(p2._cache), trial
        assert d1.stats == d2.stats, trial


def test_bulk_write_matches_per_page_writes_exactly():
    import numpy as np

    rng = np.random.default_rng(9)
    for trial in range(15):
        n_pages = int(rng.integers(1, 10))
        data = bytes(
            rng.integers(0, 256, size=int(rng.integers(1, n_pages * 64 + 1)), dtype=np.uint8)
        )
        used = max(1, -(-len(data) // 64))
        d1, d2 = SimulatedDisk(page_size=64), SimulatedDisk(page_size=64)
        d1.allocate(n_pages)
        d2.allocate(n_pages)
        p1, p2 = BufferPool(d1, 4), BufferPool(d2, 4)
        p1.write_run_bytes(0, data, used)
        for i in range(used):
            p2.write(i, data[i * 64 : (i + 1) * 64])
        assert d1.stats == d2.stats, trial
        assert d1.dump_pages() == d2.dump_pages(), trial
        assert list(p1._cache) == list(p2._cache), trial
