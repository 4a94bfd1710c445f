"""Checksum sidecar + verified reads: the detection half of integrity.

Covers the contract ``docs/robustness.md`` documents:

* :class:`ChecksumMap` semantics — absent entries mean *expected all
  zeros* (the padded-read contract), short payloads hash zero-extended,
  entries are keyed by physical page id and survive arena extent
  coalescing and shard detach reconciliation;
* verified reads — :class:`BufferPool` and :class:`RawSeriesFile`
  raise :class:`CorruptionError` with page provenance instead of
  serving flipped bytes, on both the per-page and bulk read paths;
* recording placement — consumers record the *intended* payload after
  the device acks, so a :class:`FaultyDevice` write-time flip can
  never bless itself;
* the single-bit syndrome algebra behind in-place repair.
"""

import zlib

import numpy as np
import pytest

from oracles import DEVICES
from repro.storage import (
    BufferPool,
    ChecksumMap,
    CorruptionError,
    FaultPlan,
    FaultyDevice,
    PageError,
    PagedFile,
    RawSeriesFile,
    ShardedDisk,
    SimulatedDisk,
    checksum_page,
    decay_bit,
    single_bit_syndromes,
)
from repro.storage.integrity import find_flipped_bit, zero_page_crc

PAGE = 512


def make_disk(store="arena"):
    return DEVICES[store](page_size=PAGE, integrity=True)


# ----------------------------------------------------------------------
# ChecksumMap semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
def test_never_written_pages_verify_as_zeros_and_decay_is_caught(store):
    disk = make_disk(store)
    first = disk.allocate(4)
    for page in range(first, first + 4):
        assert disk.checksums.verify(page, disk.page_view(page))
        assert not disk.checksums.recorded(page)
    decay_bit(disk, first + 2, bit=13)
    for page in range(first, first + 4):
        ok = disk.checksums.verify(page, disk.page_view(page))
        assert ok == (page != first + 2)


def test_short_payload_hashes_zero_extended():
    disk = make_disk()
    file = PagedFile(disk, name="t")
    file.append_page(b"short")
    physical = file.physical_page(0)
    assert disk.checksums.recorded(physical)
    # The expectation equals a hash of the padded page the device
    # serves back — write-then-read round-trips verify.
    assert disk.checksums.verify(physical, disk.page_view(physical))
    assert disk.checksums.expected(physical) == checksum_page(b"short", PAGE)
    assert zero_page_crc(PAGE) == zlib.crc32(bytes(PAGE))


def test_record_run_covers_zero_filled_tail_pages():
    disk = make_disk()
    file = PagedFile(disk, name="t")
    blob = bytes(range(256)) * 3  # 1.5 pages; page 2 grown but untouched
    file.grow(3)
    file.write_stream(blob, at_page=0)
    for logical in range(3):
        physical = file.physical_page(logical)
        assert disk.checksums.verify(physical, disk.page_view(physical))


@pytest.mark.parametrize("store", DEVICES)
def test_checksums_survive_arena_coalescing_and_fragmentation(store):
    """Physical-id keying is immune to extent growth and interleaving.

    Interleaved grows force one file's extents apart (and extend the
    arena's backing bytearrays under existing pages); every previously
    recorded page must still verify afterwards.
    """
    disk = make_disk(store)
    a = PagedFile(disk, name="a")
    b = PagedFile(disk, name="b")
    rng = np.random.default_rng(7)
    payloads = {}
    for round_ in range(6):
        for file in (a, b):
            logical = file.grow(2)
            for i in range(2):
                data = rng.integers(0, 256, size=PAGE, dtype=np.uint8).tobytes()
                file.write(logical + i, data)
                payloads[file.physical_page(logical + i)] = data
    assert a.n_extents > 1  # the interleave really fragmented the files
    for physical, data in payloads.items():
        assert bytes(disk.page_view(physical)) == data
        assert disk.checksums.verify(physical, disk.page_view(physical))


def test_shard_records_reconcile_at_detach_and_abort_discards():
    disk = make_disk()
    out_first = disk.allocate(4)
    # -- commit path: child records merge into the parent ------------
    with ShardedDisk(disk, [(out_first, 4)]) as shards:
        shard = shards[0]
        assert shard.checksums is not None
        file = PagedFile.from_extent(shard, out_first, 4, name="s")
        file.write(0, b"alpha" * 10)
        file.write(1, b"beta" * 10)
        # Recorded privately; lookups fall through the parent chain.
        assert shard.checksums.recorded(out_first)
        assert not disk.checksums.recorded(out_first)
        assert shard.checksums.verify(out_first, shard.page_view(out_first))
    assert disk.checksums.recorded(out_first)
    for page in (out_first, out_first + 1):
        assert disk.checksums.verify(page, disk.page_view(page))
    # -- abort path: child records vanish with the child's pages -----
    more = disk.allocate(2)
    with pytest.raises(RuntimeError):
        with ShardedDisk(disk, [(more, 2)]) as shards:
            PagedFile.from_extent(shards[0], more, 2, name="x").write(0, b"doomed")
            raise RuntimeError("boom")
    assert not disk.checksums.recorded(more)
    assert disk.checksums.verify(more, disk.page_view(more))  # still zeros


def test_readonly_shard_verifies_against_parent_records():
    disk = make_disk()
    file = PagedFile(disk, name="t")
    file.append_page(b"committed")
    physical = file.physical_page(0)
    with ShardedDisk(disk, [(0, 0)], read_only=True) as shards:
        pool = BufferPool(shards[0], 4, verified_reads=True)
        assert bytes(pool.read(physical))[:9] == b"committed"


# ----------------------------------------------------------------------
# Verified reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
def test_verified_pool_raises_with_page_provenance(store):
    disk = make_disk(store)
    file = PagedFile(disk, name="t")
    file.append_page(b"x" * PAGE)
    physical = file.physical_page(0)
    decay_bit(disk, physical, bit=2047)
    pool = BufferPool(disk, 4, verified_reads=True)
    with pytest.raises(CorruptionError) as exc:
        pool.read(physical)
    assert exc.value.page_id == physical
    assert exc.value.expected_crc != exc.value.actual_crc
    assert "BufferPool" in exc.value.source
    assert f"page {physical}" in str(exc.value)
    # The unverified pool serves the flipped bytes silently — the
    # contrast that makes verified_reads the contract, not a default.
    assert BufferPool(disk, 4).read(physical) is not None


def test_verified_pool_bulk_read_raises_and_clean_bulk_passes():
    disk = make_disk()
    file = PagedFile(disk, name="t")
    blob = bytes(range(256)) * ((PAGE * 3) // 256)
    file.grow(3)
    file.write_stream(blob, at_page=0)
    first = file.physical_page(0)
    with BufferPool(disk, 8, verified_reads=True) as pool:
        assert bytes(pool.read_run_bytes(first, 3)) == blob
    decay_bit(disk, first + 1, bit=0)
    with BufferPool(disk, 8, verified_reads=True) as pool:
        with pytest.raises(CorruptionError) as exc:
            pool.read_run_bytes(first, 3)
    assert exc.value.page_id == first + 1


def test_raw_seriesfile_verified_reads_refuse_flipped_records():
    disk = make_disk()
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 16)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    raw.verified_reads = True
    assert np.array_equal(raw.get(7), data[7])
    bad_physical = raw.file.physical_page(raw._page_of(7))
    decay_bit(disk, bad_physical, bit=100)
    with pytest.raises(CorruptionError) as exc:
        raw.get(7)
    assert exc.value.page_id == bad_physical
    with pytest.raises(CorruptionError):
        raw.get_many(np.arange(len(data), dtype=np.int64))
    # Rows on other pages still serve.
    other = (raw._page_of(7) + 1) * raw.series_per_page
    assert np.array_equal(raw.get(other), data[other])


def test_raw_pages_under_a_verifying_pool_are_hashed_once(monkeypatch):
    """A verifying pool hashes on a miss; the raw file reading through
    it does not hash again — and a flip at rest is still refused with
    the pool's provenance."""
    disk = make_disk()
    rng = np.random.default_rng(5)
    data = rng.standard_normal((200, 16)).astype(np.float32)  # 8 per page
    raw = RawSeriesFile.create(disk, data)
    raw.verified_reads = True
    hashed = []
    crc32 = zlib.crc32

    def counting_crc32(*args):
        hashed.append(1)
        return crc32(*args)

    monkeypatch.setattr(zlib, "crc32", counting_crc32)
    # Single pages, multi-page runs, a full scan, and hits on all of it.
    wanted = np.array([3, 4, 90, 16, 17, 18, 24, 25, 199, 3])
    with BufferPool(disk, 64, verified_reads=True) as pool:
        view = raw.view(pool)
        assert view.verified_reads
        for _ in range(2):
            assert np.array_equal(view.get_many(wanted), data[wanted])
            assert np.array_equal(view.get(90), data[90])
        scanned = np.concatenate([block for _, block in view.scan()])
        assert np.array_equal(scanned, data)
        assert pool.hits > 0
        assert len(hashed) == pool.misses == raw.file.n_pages
    # Without a verifying device underneath the file hashes for itself:
    # directly on the disk, and through a pool that does not verify.
    del hashed[:]
    assert np.array_equal(raw.get_many(wanted), data[wanted])
    assert len(hashed) == len(set((wanted // 8).tolist()))
    del hashed[:]
    with BufferPool(disk, 64) as pool:
        raw.view(pool).get_many(wanted)
        assert len(hashed) == pool.hits + pool.misses
    # A page flipped at rest: same refusal, same provenance.
    bad_physical = raw.file.physical_page(raw._page_of(17))
    decay_bit(disk, bad_physical, bit=77)
    for fetch in (
        lambda view: view.get_many(wanted),
        lambda view: view.get(17),
        lambda view: list(view.scan()),
    ):
        with BufferPool(disk, 64, verified_reads=True) as pool:
            with pytest.raises(CorruptionError) as exc:
                fetch(raw.view(pool))
            assert exc.value.page_id == bad_physical
            assert exc.value.source == f"BufferPool({disk!r})"
            assert str(exc.value).startswith(
                f"BufferPool({disk!r}): checksum mismatch on page {bad_physical} "
            )
    with pytest.raises(CorruptionError) as exc:
        raw.get(17)
    assert exc.value.source == "RawSeriesFile('raw')"


def test_verified_reads_without_sidecar_fail_loudly():
    disk = SimulatedDisk(page_size=PAGE)  # integrity not enabled
    first = disk.allocate(1)
    disk.write_page(first, b"x")
    pool = BufferPool(disk, 2, verified_reads=True)
    with pytest.raises(PageError, match="ChecksumMap"):
        pool.read(first)


def test_write_time_flip_is_detected_not_blessed():
    """The recording-placement property, end to end.

    A FaultyDevice flips the payload *in flight*; the consumer recorded
    the intended bytes above the wrapper, so the landed page fails
    verification — a device-level recording hook would have hashed the
    flipped bytes and blessed the corruption.
    """
    disk = make_disk()
    dev = FaultyDevice(disk, FaultPlan(seed=6, p_bitflip_write=1.0, max_faults=1))
    file = PagedFile(dev, name="t")
    file.append_page(b"\x00" * PAGE)  # acks despite the flip
    physical = file.physical_page(0)
    assert dev.n_flips_injected == 1
    assert not disk.checksums.verify(physical, disk.page_view(physical))
    with pytest.raises(CorruptionError):
        BufferPool(disk, 2, verified_reads=True).read(physical)


# ----------------------------------------------------------------------
# Single-bit syndrome algebra
# ----------------------------------------------------------------------
@pytest.mark.parametrize("page_size", [64, 512, 2048])
def test_syndromes_are_pairwise_distinct(page_size):
    table = single_bit_syndromes(page_size)
    assert len(table) == 8 * page_size  # no two bit positions collide


def test_find_flipped_bit_locates_any_single_flip():
    rng = np.random.default_rng(11)
    page = rng.integers(0, 256, size=PAGE, dtype=np.uint8)
    expected = zlib.crc32(page.tobytes())
    for bit in list(rng.integers(0, 8 * PAGE, size=64)) + [0, 8 * PAGE - 1]:
        bad = page.copy()
        bad[int(bit) >> 3] ^= 1 << (int(bit) & 7)
        assert find_flipped_bit(bad.tobytes(), expected, PAGE) == int(bit)
    assert find_flipped_bit(page.tobytes(), expected, PAGE) is None  # clean
    double = page.copy()
    double[0] ^= 1
    double[100] ^= 8
    assert find_flipped_bit(double.tobytes(), expected, PAGE) is None


def test_child_map_expectations_and_absorb():
    parent = ChecksumMap(PAGE)
    parent.record_page(3, b"parent")
    child = parent.child()
    assert child.expected(3) == checksum_page(b"parent", PAGE)
    assert child.expected(9) == zero_page_crc(PAGE)
    child.record_page(3, b"child")
    assert child.expected(3) == checksum_page(b"child", PAGE)
    assert parent.expected(3) == checksum_page(b"parent", PAGE)
    parent.absorb(child)
    assert parent.expected(3) == checksum_page(b"child", PAGE)
