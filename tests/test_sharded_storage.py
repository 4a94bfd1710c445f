"""The read-only snapshot device: one private I/O domain over a live disk.

A :class:`repro.storage.disk.DiskShard` — what a served snapshot reads
through — has its own head, ``DiskStats`` and trace over the pages the
parent had allocated when it was taken.  These tests pin its contract:
the snapshot watermark (taken at construction) on every read verb and
on ``page_view``, refused writes, bulk reads byte-equal to per-page
reads, classification on its own head, reads that never move the
parent's counters, head or trace, and committed rows that read back
bit-identically through later LSM flushes and compactions (the served
snapshot's contract).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RawSeriesFile, SimulatedDisk, random_walk
from repro.core.lsm import CoconutLSM
from repro.storage import DiskShard, DiskStats, PageError
from repro.summaries import SAXConfig

CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(700, length=32, seed=23)


def make_disk(n_pages=16, page_size=64, trace=False):
    disk = SimulatedDisk(page_size=page_size, trace=trace)
    disk.allocate(n_pages)
    for page in range(n_pages):
        disk.write_page(page, bytes([page]))
    disk.reset_stats()
    disk.park_head()
    return disk


def padded(page, page_size=64):
    return bytes([page]).ljust(page_size, b"\x00")


WRITE_VERBS = {
    "write_page": lambda shard: shard.write_page(1, b"x"),
    "write_run_bytes": lambda shard: shard.write_run_bytes(0, b"x", 2),
    "write_run": lambda shard: shard.write_run(0, [b"x", b"y"]),
}


@pytest.mark.parametrize("verb", sorted(WRITE_VERBS))
def test_shard_refuses_every_write_verb(verb):
    """The write verbs exist (the device vocabulary is uniform) and refuse."""
    disk = make_disk(4)
    shard = DiskShard(disk)
    with pytest.raises(PageError, match="read-only"):
        WRITE_VERBS[verb](shard)
    assert shard.stats == DiskStats()
    assert disk.dump_pages() == make_disk(4).dump_pages()


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_every_shard_reads_the_parent_bytes_on_its_own_head(n_shards):
    """Each shard reads what the parent holds, through any read verb,
    and classifies its accesses against its own head only: shards over
    one disk issuing the same sequence cost the same, whatever the
    parent or the other shards did in between."""
    disk = make_disk(8)
    shards = [DiskShard(disk, name=f"s{i}") for i in range(n_shards)]
    for shard in shards:
        disk.read_page(3)  # the parent's head is not the shard's
        for page in range(8):
            assert bytes(shard.read_page(page)) == padded(page)
        assert bytes(shard.read_run_bytes(2, 3)) == b"".join(
            padded(p) for p in (2, 3, 4)
        )
    # Pages 0..7 stream after one seek; the run at 2 seeks back.
    assert shards[0].stats.random_reads == 2
    assert shards[0].stats.sequential_reads == 9
    assert all(shard.stats == shards[0].stats for shard in shards)
    assert disk.stats.total_reads == n_shards  # only its own reads
    assert [shard.name for shard in shards] == [f"s{i}" for i in range(n_shards)]
    assert DiskShard(disk).name == "shard"


def test_shard_snapshot_isolation_and_bounds():
    """Counters and heads are private in both directions: resetting or
    parking the shard leaves the parent's alone and vice versa, and
    ``stats_since`` on a shard sees the shard's reads only.  An empty
    run is no read at all."""
    disk = make_disk(8)
    disk.read_page(5)
    shard = DiskShard(disk)
    since = shard.snapshot()
    shard.read_run_bytes(0, 3)
    disk.read_page(6)
    delta = shard.stats_since(since)
    assert (delta.random_reads, delta.sequential_reads) == (1, 2)
    assert shard.io_ms_since(since) > 0
    parent_stats = disk.snapshot()
    shard.reset_stats()
    shard.park_head()
    assert disk.snapshot() == parent_stats and disk.head_position == 6
    shard.read_page(4)
    disk.reset_stats()
    disk.park_head()
    assert shard.stats.random_reads == 1 and shard.head_position == 4
    assert bytes(shard.read_run_bytes(7, 0)) == b""
    assert bytes(shard.read_run_bytes(9, -1)) == b""
    assert shard.stats.total_reads == 1 and shard.head_position == 4


def test_shard_watermark_pins_at_construction():
    """Each shard's watermark is the parent's allocation when it was
    built: a later shard sees pages an earlier one never will, and the
    parent allocating more moves no existing shard's bound."""
    disk = make_disk(4)
    early = DiskShard(disk, name="early")
    late_page = disk.allocate(1)
    disk.write_page(late_page, b"after")
    later = DiskShard(disk, name="later")
    disk.allocate(2)  # after both
    assert bytes(later.read_page(late_page))[:5] == b"after"
    with pytest.raises(PageError, match="early: page 4 is not readable"):
        early.read_page(late_page)
    with pytest.raises(PageError, match="later: page 5 is not readable"):
        later.read_run_bytes(late_page, 2)
    assert bytes(early.read_run_bytes(0, 4)) == b"".join(padded(p) for p in range(4))


def read_one_page(shard, page):
    ((buffer, rows),) = shard.read_pages([page])
    return buffer[rows[0]]


# Every read verb, and the diagnostics view, on one page.
READ_VERBS = {
    "read_page": lambda shard, page: shard.read_page(page),
    "read_run_bytes": lambda shard, page: shard.read_run_bytes(page, 1),
    "read_run": lambda shard, page: shard.read_run(page, 1)[0],
    "read_pages": read_one_page,
    "page_view": lambda shard, page: shard.page_view(page),
}


@pytest.mark.parametrize("verb", sorted(READ_VERBS))
def test_shard_watermark_bounds_every_read_verb(verb):
    """Isolation is by watermark: a shard aliases the parent's pages, so
    a page rewritten after it was taken reads back rewritten, while a
    page allocated later is out of range on every read verb and on
    ``page_view`` — the snapshot must not see later pages at all."""
    read = READ_VERBS[verb]
    disk = make_disk(4)
    shard = DiskShard(disk)
    disk.write_page(2, b"rewritten")  # the parent stays live
    late = disk.allocate(1)
    disk.write_page(late, b"late")
    assert bytes(read(shard, 2))[:9] == b"rewritten"
    assert bytes(read(shard, 0))[:1] == bytes([0])
    before = shard.snapshot()
    for page in (late, -1):
        with pytest.raises(PageError, match="not readable"):
            read(shard, page)
    assert shard.snapshot() == before  # refused before anything counted
    assert bytes(disk.page_view(late))[:4] == b"late"
    if verb != "page_view":
        with pytest.raises(PageError, match="not readable"):
            shard.read_run_bytes(3, 2)  # straddles the watermark


BULK_READS = {
    "read_run_bytes": lambda shard, first, n: bytes(shard.read_run_bytes(first, n)),
    "read_run": lambda shard, first, n: b"".join(
        bytes(page) for page in shard.read_run(first, n)
    ),
    "read_pages": lambda shard, first, n: b"".join(
        bytes(page)
        for buffer, rows in shard.read_pages(np.arange(first, first + n))
        for page in buffer[rows]
    ),
}


@pytest.mark.parametrize("verb", sorted(BULK_READS))
def test_shard_bulk_reads_match_per_page_reads_exactly(verb):
    """Every bulk verb returns the bytes the per-page reads return,
    across the parent's extent boundaries and never-written pages, and
    costs the shard what it costs a disk: one seek, then streaming."""
    disk = make_disk(3)
    disk.allocate(2)  # a second extent, never written
    disk.allocate(3)
    for page in (5, 7):
        disk.write_page(page, bytes([page]) * 3)
    per_page = DiskShard(disk)
    expected = [bytes(per_page.read_page(p)) for p in range(8)]
    for first, n in ((0, 8), (2, 4), (6, 1)):
        shard = DiskShard(disk)
        want = b"".join(expected[first : first + n])
        assert BULK_READS[verb](shard, first, n) == want
        assert (shard.stats.random_reads, shard.stats.sequential_reads) == (1, n - 1)
        assert shard.head_position == first + n - 1


READ_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read_page", "read_run_bytes", "read_pages"]),
        st.integers(0, 15),
        st.integers(1, 4),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(ops=READ_OPS, parent_head=st.one_of(st.none(), st.integers(0, 15)))
def test_shard_reads_never_move_the_parent(ops, parent_head):
    """Whatever a shard reads, the parent's ``DiskStats``, head and trace
    stay exactly where they were — the product never reconciles a
    shard into its parent, so nothing may leak there — and the shard's
    own counters and trace equal a fresh parked disk's doing the same
    reads."""
    disk = make_disk(16, trace=True)
    fresh = make_disk(16, trace=True)
    if parent_head is not None:
        disk.read_page(parent_head)
    stats, head, trace = disk.snapshot(), disk.head_position, list(disk.trace)
    shard = DiskShard(disk)
    for verb, first, count in ops:
        count = min(count, 16 - first)
        for device in (shard, fresh):
            if verb == "read_page":
                device.read_page(first)
            elif verb == "read_run_bytes":
                device.read_run_bytes(first, count)
            else:
                device.read_pages(np.arange(first, first + count)[::-1])
    assert disk.snapshot() == stats
    assert disk.head_position == head
    assert disk.trace == trace
    assert shard.snapshot() == fresh.snapshot()
    assert shard.trace == fresh.trace
    assert shard.head_position == fresh.head_position


def build_lsm():
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:200])
    lsm = CoconutLSM(disk, memory_bytes=4096, config=CONFIG, size_ratio=2)
    lsm.build(raw)
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=300 + i))
    return disk, lsm


def test_read_only_shard_survives_lsm_flush_and_compaction():
    """Rows below a pinned watermark stay identical across commits.

    The raw file's *tail page* is legitimately rewritten as later
    appends fill it, so the invariant is at the row level: a raw view
    bound to a shard taken earlier pins ``n_series`` and those rows
    read back bit-identically through any number of flushes and
    compactions — the service snapshot's serving contract.
    """
    disk, lsm = build_lsm()
    shard = DiskShard(disk, name="snapshot")
    raw_view = lsm.raw.view(shard)
    rows = np.arange(lsm.raw.n_series, dtype=np.int64)
    before = raw_view.get_many(rows).copy()
    merges = lsm.n_merges
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=900 + i))
    assert lsm.n_merges > merges  # compactions really committed
    np.testing.assert_array_equal(raw_view.get_many(rows), before)
    assert len(raw_view) == len(rows)  # later appends stay invisible
