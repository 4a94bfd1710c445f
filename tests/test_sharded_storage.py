"""The read-only sharded sessions: private I/O domains over one disk.

A :class:`repro.storage.disk.ShardedDisk` session hands each worker a
:class:`repro.storage.disk.DiskShard` — its own head, its own
``DiskStats`` and trace — over the pages the parent held at attach.
These tests pin the lifecycle: the snapshot watermark, refused writes,
deterministic reconciliation in partition order, the head park on
detach, detached shards refusing I/O, and that committed rows read
back bit-identically through later LSM flushes and compactions (the
served snapshot's contract).
"""

import numpy as np
import pytest

from repro import RawSeriesFile, SimulatedDisk, random_walk
from repro.core.lsm import CoconutLSM
from repro.storage import DiskStats, PageError, ShardedDisk
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


def test_detached_shard_rejects_io():
    disk = make_disk(4)
    session = ShardedDisk(disk, 1)
    (shard,) = session.shards
    session.detach()
    assert not shard.attached
    for read in (
        lambda: shard.read_page(0),
        lambda: shard.read_run_bytes(0, 2),
        lambda: shard.read_pages([0, 1]),
    ):
        with pytest.raises(PageError, match="detached"):
            read()
    assert disk.stats == DiskStats()


WRITE_VERBS = {
    "write_page": lambda shard: shard.write_page(1, b"x"),
    "write_run_bytes": lambda shard: shard.write_run_bytes(0, b"x", 2),
    "write_run": lambda shard: shard.write_run(0, [b"x", b"y"]),
}


@pytest.mark.parametrize("verb", sorted(WRITE_VERBS))
def test_shard_refuses_every_write_verb(verb):
    """The write verbs exist (the device vocabulary is uniform) and refuse."""
    disk = make_disk(4)
    with ShardedDisk(disk, 1) as (shard,):
        with pytest.raises(PageError, match="read-only"):
            WRITE_VERBS[verb](shard)
        assert shard.stats == DiskStats()
    assert disk.dump_pages() == make_disk(4).dump_pages()


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_every_shard_reads_the_parent_bytes_on_its_own_head(n_shards):
    """Each shard of a session reads what the parent holds, through any
    read verb, and classifies its accesses against its own head only:
    the same sequence costs every shard the same."""
    disk = make_disk(8)
    with ShardedDisk(disk, n_shards) as shards:
        for shard in shards:
            for page in range(8):
                assert bytes(shard.read_page(page)) == bytes([page]).ljust(
                    64, b"\x00"
                )
            assert bytes(shard.read_run_bytes(2, 3)) == b"".join(
                bytes([p]).ljust(64, b"\x00") for p in (2, 3, 4)
            )
        # Pages 0..7 stream after one seek; the run at 2 seeks back.
        assert shards[0].stats.random_reads == 2
        assert all(shard.stats == shards[0].stats for shard in shards)
    assert disk.stats == sum((s.stats for s in shards[1:]), shards[0].stats)


def test_shard_snapshot_isolation_and_bounds():
    """Isolation is by watermark: shards alias the parent's pages, so a
    page rewritten after the attach reads back rewritten, and nothing
    allocated after the attach is in range."""
    disk = make_disk(4)
    with ShardedDisk(disk, 2) as (a, b):
        disk.write_page(2, b"rewritten")  # the parent stays live
        assert bytes(a.read_page(2))[:9] == b"rewritten"
        late = disk.allocate(1)
        for shard in (a, b):
            with pytest.raises(PageError):
                shard.read_page(late)  # beyond the snapshot watermark
            with pytest.raises(PageError):
                shard.read_run_bytes(3, 2)  # straddles it
            with pytest.raises(PageError):
                shard.read_page(-1)


def test_sharded_disk_rejects_bad_extents():
    """A session takes a positive shard count (no extent lists any more)
    and a names list of the same length."""
    disk = make_disk(4)
    for n_shards in (0, -1, 2.0, True, [(0, 0)], [(0, 2), (2, 2)]):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedDisk(disk, n_shards)
    with pytest.raises(ValueError, match="names"):
        ShardedDisk(disk, 2, names=["a"])
    with ShardedDisk(disk, 2, names=["a", "b"]) as shards:
        assert [shard.name for shard in shards] == ["a", "b"]


def test_detach_parks_head_deterministically():
    """The first post-session access is always random.

    Whatever head positions the shards ended on — and regardless of the
    pool interleaving that produced them — detach parks the parent
    head, so ``stats_since`` deltas across a session boundary never
    depend on scheduling.
    """
    disk = make_disk(8)
    disk.read_page(2)  # parent head at 2
    with ShardedDisk(disk, 1) as (shard,):
        shard.read_page(4)  # shard head at 4
    assert disk.head_position is None
    snapshot = disk.snapshot()
    disk.read_page(3)  # head-adjacent to the parent's last read
    delta = disk.stats_since(snapshot)
    assert delta.random_reads == 1 and delta.sequential_reads == 0


def test_detach_reconciles_stats_in_partition_order():
    """Each shard classifies against its own head; detach adds the
    counters and appends the traces shard 0 first, whatever order the
    shards ran in; abort reconciles nothing."""
    disk = make_disk(8, trace=True)
    session = ShardedDisk(disk, 2)
    a, b = session.shards
    b.read_run_bytes(4, 3)  # b first: one seek, two streamed
    a.read_page(0)
    a.read_page(1)  # a's own head: sequential, whatever b did
    assert a.stats.random_reads == 1 and a.stats.sequential_reads == 1
    assert b.stats.random_reads == 1 and b.stats.sequential_reads == 2
    expected = a.snapshot() + b.snapshot()
    merged = session.detach()
    assert merged == expected
    assert disk.stats == expected
    assert disk.trace == [("r", 0, 1), ("r", 1, 1), ("r", 4, 3)]
    assert session.detach() == DiskStats()  # idempotent
    aborted = ShardedDisk(disk, 1)
    aborted.shards[0].read_page(5)
    assert aborted.abort() == DiskStats()
    assert disk.stats == expected and len(disk.trace) == 3


def build_lsm():
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:200])
    lsm = CoconutLSM(disk, memory_bytes=4096, config=CONFIG, size_ratio=2)
    lsm.build(raw)
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=300 + i))
    return disk, lsm


# ------------------------------------------------- read-only sessions
def test_read_only_session_watermark_pins_at_attach():
    disk = make_disk(4)
    reader = ShardedDisk(disk, 1)
    (shard,) = reader.shards
    late = disk.allocate(1)
    disk.write_page(late, b"after")
    # Pages allocated after the session attached are beyond its
    # snapshot watermark — a stale reader cannot see in-flight state.
    with pytest.raises(PageError):
        shard.read_page(late)
    assert shard.read_page(0)[:1] == bytes([0])


def test_read_only_session_survives_lsm_flush_and_compaction():
    """Rows below a pinned watermark stay identical across commits.

    The raw file's *tail page* is legitimately rewritten as later
    appends fill it, so the invariant is at the row level: a raw view
    bound to a pre-attached read-only shard pins ``n_series`` and those
    rows read back bit-identically through any number of flushes and
    compactions — the service snapshot's serving contract.
    """
    disk, lsm = build_lsm()
    reader = ShardedDisk(disk, 1, names=["snapshot"])
    (shard,) = reader.shards
    raw_view = lsm.raw.view(shard)
    rows = np.arange(lsm.raw.n_series, dtype=np.int64)
    before = raw_view.get_many(rows).copy()
    merges = lsm.n_merges
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=900 + i))
    assert lsm.n_merges > merges  # compactions really committed
    np.testing.assert_array_equal(raw_view.get_many(rows), before)
    assert len(raw_view) == len(rows)  # later appends stay invisible
