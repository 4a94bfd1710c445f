"""Checksum sidecar + verified reads: the detection half of integrity.

Covers the contract ``docs/robustness.md`` documents:

* :class:`ChecksumMap` semantics — absent entries mean *expected all
  zeros* (the padded-read contract), short payloads hash zero-extended,
  entries are keyed by physical page id and survive arena extent
  coalescing; a read-only shard verifies against the parent's map;
* verified reads — :class:`PagedFile` and :class:`RawSeriesFile`
  raise :class:`CorruptionError` with page provenance instead of
  serving flipped bytes, on the per-page, bulk and vectored read
  paths, each page hashed once;
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
    CorruptionError,
    DiskShard,
    FaultPlan,
    FaultyDevice,
    PageError,
    PagedFile,
    RawSeriesFile,
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


def test_readonly_shard_verifies_against_parent_records():
    disk = make_disk()
    file = PagedFile(disk, name="t")
    file.append_page(b"committed")
    shard = DiskShard(disk)
    assert shard.checksums is disk.checksums
    view = file.attach(shard)
    assert bytes(view.read_stream(0, 1, verified=True))[:9] == b"committed"
    decay_bit(disk, file.physical_page(0), bit=5)
    with pytest.raises(CorruptionError):
        view.read_stream(0, 1, verified=True)


# ----------------------------------------------------------------------
# Verified reads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
def test_verified_read_raises_with_page_provenance(store):
    disk = make_disk(store)
    file = PagedFile(disk, name="t")
    file.append_page(b"x" * PAGE)
    physical = file.physical_page(0)
    decay_bit(disk, physical, bit=2047)
    with pytest.raises(CorruptionError) as exc:
        file.read_stream(0, 1, verified=True)
    assert exc.value.page_id == physical
    assert exc.value.expected_crc != exc.value.actual_crc
    assert exc.value.source == "PagedFile('t')"
    assert f"page {physical}" in str(exc.value)
    # The unverified read serves the flipped bytes silently — the
    # contrast that makes verified_reads the contract, not a default.
    assert file.read_stream(0, 1) is not None


def test_verified_bulk_read_raises_and_clean_bulk_passes():
    disk = make_disk()
    file = PagedFile(disk, name="t")
    blob = bytes(range(256)) * ((PAGE * 3) // 256)
    file.grow(3)
    file.write_stream(blob, at_page=0)
    first = file.physical_page(0)
    assert bytes(file.read_stream(0, 3, verified=True)) == blob
    decay_bit(disk, first + 1, bit=0)
    with pytest.raises(CorruptionError) as exc:
        file.read_stream(0, 3, verified=True)
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


def test_raw_pages_are_hashed_once_per_read(monkeypatch):
    """A verifying raw file hashes every page a read returns exactly
    once — single pages, multi-page runs, a full scan, on the disk and
    through a read-only shard — and a flip at rest is refused with the
    file's provenance on every path."""
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
    wanted = np.array([3, 4, 90, 16, 17, 18, 24, 25, 199, 3])
    for view in (raw, raw.view(DiskShard(disk))):
        assert view.verified_reads
        del hashed[:]
        assert np.array_equal(view.get_many(wanted), data[wanted])
        assert len(hashed) == len(set((wanted // 8).tolist()))
        del hashed[:]
        assert np.array_equal(view.get(90), data[90])
        assert len(hashed) == 1
        del hashed[:]
        scanned = np.concatenate([block for _, block in view.scan()])
        assert np.array_equal(scanned, data)
        assert len(hashed) == raw.file.n_pages
    # A page flipped at rest: same refusal, same provenance.
    bad_physical = raw.file.physical_page(raw._page_of(17))
    decay_bit(disk, bad_physical, bit=77)
    for view in (raw, raw.view(DiskShard(disk))):
        for fetch in (
            lambda: view.get_many(wanted),
            lambda: view.get(17),
            lambda: list(view.scan()),
        ):
            with pytest.raises(CorruptionError) as exc:
                fetch()
            assert exc.value.page_id == bad_physical
            assert exc.value.source == "RawSeriesFile('raw')"
            assert str(exc.value).startswith(
                f"RawSeriesFile('raw'): checksum mismatch on page {bad_physical} "
            )


def test_verified_reads_without_sidecar_fail_loudly():
    disk = SimulatedDisk(page_size=PAGE)  # integrity not enabled
    raw = RawSeriesFile.create(disk, np.zeros((4, 16), dtype=np.float32))
    raw.verified_reads = True
    with pytest.raises(PageError, match="ChecksumMap"):
        raw.get(0)


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
        file.attach(disk).read_stream(0, 1, verified=True)


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
