"""Tests for the raw data series file."""

import numpy as np
import pytest

from repro.storage import DiskShard, DiskStats, RawSeriesFile, SimulatedDisk


def make_raw(n=50, length=32, page_size=512, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, length)).astype(np.float32)
    disk = SimulatedDisk(page_size=page_size)
    raw = RawSeriesFile.create(disk, data)
    return disk, raw, data


def test_roundtrip_single_series():
    _, raw, data = make_raw()
    for idx in (0, 17, 49):
        np.testing.assert_array_equal(raw.get(idx), data[idx])


def test_get_out_of_range():
    _, raw, _ = make_raw(n=5)
    with pytest.raises(IndexError):
        raw.get(5)
    with pytest.raises(IndexError):
        raw.get(-1)


def test_get_many_out_of_range():
    """Regression: get_many silently fetched zeros for OOB indexes."""
    _, raw, _ = make_raw(n=5)
    with pytest.raises(IndexError):
        raw.get_many(np.array([0, 5]))
    with pytest.raises(IndexError):
        raw.get_many(np.array([-1]))


def test_create_requires_2d():
    disk = SimulatedDisk()
    with pytest.raises(ValueError):
        RawSeriesFile.create(disk, np.zeros((2, 3, 4), dtype=np.float32))


def test_initial_write_is_sequential():
    disk, raw, _ = make_raw(n=200, length=32, page_size=512)
    stats = disk.stats
    assert stats.random_writes == 1  # first page seek only
    assert stats.sequential_writes == raw.file.n_pages - 1


def test_scan_returns_all_series_in_order():
    disk, raw, data = make_raw(n=77, length=16, page_size=256)
    disk.reset_stats()
    seen = []
    for start, block in raw.scan():
        assert start == sum(len(b) for b in seen)
        seen.append(block)
    restored = np.concatenate(seen)
    np.testing.assert_array_equal(restored, data)
    # A scan is one seek plus streaming reads.
    assert disk.stats.random_reads == 1


def test_get_many_skip_sequential_visits_each_page_once():
    disk, raw, data = make_raw(n=100, length=32, page_size=512)
    spp = raw.series_per_page
    idxs = np.array([0, 1, spp * 3, spp * 3 + 1, 2])
    disk.reset_stats()
    disk.park_head()
    result = raw.get_many(idxs)
    np.testing.assert_array_equal(result, data[idxs])
    # Pages: page 0 (series 0, 1, 2), page 3 — two distinct pages.
    assert disk.stats.total_reads == 2


def test_get_many_preserves_request_order():
    _, raw, data = make_raw(n=30)
    idxs = np.array([20, 3, 15, 3])
    result = raw.get_many(idxs)
    np.testing.assert_array_equal(result, data[idxs])


def test_append_batch_extends_file():
    disk, raw, data = make_raw(n=10, length=16, page_size=256)
    rng = np.random.default_rng(1)
    extra = rng.standard_normal((7, 16)).astype(np.float32)
    first = raw.append_batch(extra)
    assert first == 10
    assert len(raw) == 17
    np.testing.assert_array_equal(raw.get(12), extra[2])
    np.testing.assert_array_equal(raw.get(3), data[3])


def test_append_batch_validates_length():
    _, raw, _ = make_raw(length=16)
    with pytest.raises(ValueError):
        raw.append_batch(np.zeros((2, 8), dtype=np.float32))


def test_append_into_partial_page_with_non_float_page_size():
    """Regression: the partial-page rewrite parses a padded page.

    Page reads return full zero-padded pages; when ``page_size`` is not
    a float32 multiple the rewrite must bound its parse to the resident
    records instead of ``frombuffer``-ing the whole page.
    """
    rng = np.random.default_rng(8)
    data = rng.standard_normal((3, 4)).astype(np.float32)  # 16 B records
    disk = SimulatedDisk(page_size=70)  # 4 records + 6 B padding, 70 % 4 != 0
    raw = RawSeriesFile.create(disk, data[:2])
    extra = rng.standard_normal((4, 4)).astype(np.float32)
    raw.append_batch(extra)  # starts mid-page
    combined = np.concatenate([data[:2], extra])
    for idx in range(len(combined)):
        np.testing.assert_array_equal(raw.get(idx), combined[idx])


def test_long_series_span_multiple_pages():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((5, 64)).astype(np.float32)  # 256 bytes each
    disk = SimulatedDisk(page_size=128)
    raw = RawSeriesFile.create(disk, data)
    assert raw.pages_per_series == 2
    for idx in range(5):
        np.testing.assert_array_equal(raw.get(idx), data[idx])


def test_scan_with_multipage_series():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((9, 64)).astype(np.float32)
    disk = SimulatedDisk(page_size=128)
    raw = RawSeriesFile.create(disk, data)
    blocks = [block for _, block in raw.scan(chunk_series=4)]
    np.testing.assert_array_equal(np.concatenate(blocks), data)


def test_scan_with_page_unaligned_records():
    """Regression: records that do not divide the page size evenly.

    Each page then carries tail padding; scan() must strip it per page
    instead of parsing records across it (which silently misaligned
    every record after the first page and corrupted the serial-scan
    oracle for such lengths).
    """
    rng = np.random.default_rng(4)
    data = rng.standard_normal((25, 12)).astype(np.float32)  # 48B records
    disk = SimulatedDisk(page_size=256)  # 5 records + 16B padding per page
    raw = RawSeriesFile.create(disk, data)
    assert raw.series_per_page * raw.record_bytes != disk.page_size
    blocks = [block for _, block in raw.scan()]
    np.testing.assert_array_equal(np.concatenate(blocks), data)
    chunked = [block for _, block in raw.scan(chunk_series=7)]
    np.testing.assert_array_equal(np.concatenate(chunked), data)
    np.testing.assert_array_equal(raw.get_many(np.arange(25)), data)


# --------------------------------------------- views and range scans
def test_range_scan_matches_full_scan_slices():
    import numpy as np

    from repro.storage import SimulatedDisk

    rng = np.random.default_rng(7)
    disk = SimulatedDisk(page_size=1000)  # not a record multiple: padding
    data = rng.standard_normal((137, 16)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    whole = np.concatenate([b for _, b in raw.scan(chunk_series=20)])
    np.testing.assert_array_equal(whole, data)
    for start, stop in [(0, 137), (1, 136), (30, 31), (50, 137), (0, 1), (136, 137)]:
        got_idx = []
        parts = []
        for first, block in raw.scan(chunk_series=17, start=start, stop=stop):
            got_idx.append((first, len(block)))
            parts.append(block)
        ranged = np.concatenate(parts)
        np.testing.assert_array_equal(ranged, data[start:stop])
        assert got_idx[0][0] == start
        assert sum(n for _, n in got_idx) == stop - start
    assert list(raw.scan(start=5, stop=5)) == []
    assert list(raw.scan(start=200)) == []


def test_view_reads_through_device_and_leaves_parent_untouched():
    rng = np.random.default_rng(11)
    disk = SimulatedDisk(page_size=512)
    data = rng.standard_normal((40, 24)).astype(np.float32)
    raw = RawSeriesFile.create(disk, data)
    disk.reset_stats()
    shard = DiskShard(disk)
    view = raw.view(shard)
    np.testing.assert_array_equal(
        view.get_many(np.array([3, 17, 3, 29])), data[[3, 17, 3, 29]]
    )
    got = np.concatenate([b for _, b in view.scan(start=10, stop=30)])
    np.testing.assert_array_equal(got, data[10:30])
    assert shard.stats.total_reads > 0
    # Every read went through the shard: the parent saw none of it.
    assert disk.stats == DiskStats()


def _rows(n):
    return np.random.default_rng(1).standard_normal((n, 16)).astype(np.float32)


# A view shares the live file's tail page: writing through it would
# overwrite rows the live file appends next.  A truncate to a bool or a
# non-integer used to become the row count itself.
REFUSED_WRITES = {
    "view-append_batch": (
        ValueError,
        lambda raw: raw.view(raw.disk).append_batch(_rows(5)),
    ),
    "view-append_batch-empty": (
        ValueError,
        lambda raw: raw.view(raw.disk).append_batch(_rows(0)),
    ),
    "shard-view-append_batch": (
        ValueError,
        lambda raw: raw.view(DiskShard(raw.disk)).append_batch(_rows(5)),
    ),
    "view-of-view-append_batch": (
        ValueError,
        lambda raw: raw.view(raw.disk).view(raw.disk).append_batch(_rows(5)),
    ),
    "view-truncate": (ValueError, lambda raw: raw.view(raw.disk).truncate(5)),
    "shard-view-truncate": (
        ValueError,
        lambda raw: raw.view(DiskShard(raw.disk)).truncate(5),
    ),
    "truncate-negative": (ValueError, lambda raw: raw.truncate(-1)),
    "truncate-grow": (ValueError, lambda raw: raw.truncate(11)),
    "truncate-None": (TypeError, lambda raw: raw.truncate(None)),
    "truncate-np.float64": (TypeError, lambda raw: raw.truncate(np.float64(2.0))),
    "truncate-True": (TypeError, lambda raw: raw.truncate(True)),
    "truncate-False": (TypeError, lambda raw: raw.truncate(False)),
    "truncate-2.5": (TypeError, lambda raw: raw.truncate(2.5)),
    "truncate-2.0": (TypeError, lambda raw: raw.truncate(2.0)),
    "truncate-str": (TypeError, lambda raw: raw.truncate("3")),
}


@pytest.mark.parametrize("row", sorted(REFUSED_WRITES))
def test_views_and_non_integer_truncates_are_refused_before_io(row):
    error, call = REFUSED_WRITES[row]
    disk, raw, data = make_raw(n=10, length=16, page_size=512)  # 8 per page
    before, pages = disk.snapshot(), disk.dump_pages()
    with pytest.raises(error):
        call(raw)
    assert disk.snapshot() == before and disk.dump_pages() == pages
    assert raw.n_series == 10 and type(raw.n_series) is int
    # The live file's tail is still its own, and an integer-like count
    # truncates to a plain int.
    raw.append_batch(data[:3])
    np.testing.assert_array_equal(
        raw.get_many(np.arange(13)), np.concatenate([data, data[:3]])
    )
    raw.truncate(np.int64(4))
    assert raw.n_series == 4 and type(raw.n_series) is int
