"""Property tests for the sharded, concurrency-safe storage stack.

The contract of the sharded spilled merge has two halves:

* **stream equivalence** — for *any* worker count, pool kind and
  splitter sample, the merged record stream (and for the sorter, the
  chunk shapes and ``SortReport``) is bit-identical to the fully
  serial merge;
* **accounting determinism** — the reconciled :class:`repro.storage.
  cost.DiskStats` of a pooled run are bit-identical to the *serial
  replay oracle*: the same per-shard plans executed inline, one
  partition after another (``pool_kind="serial"``).

Plus the lifecycle semantics of :class:`repro.storage.disk.DiskShard` /
:class:`repro.storage.disk.ShardedDisk` themselves: extent isolation,
snapshot reads, the parent fence, deterministic reconciliation in
partition order, and the deterministic head park on detach.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RawSeriesFile, SimulatedDisk, random_walk
from repro.core.lsm import CoconutLSM
from repro.parallel import sharded_spill_merge
from repro.storage import (
    DiskStats,
    ExternalSorter,
    PagedFile,
    PageError,
    ShardedDisk,
    merge_presorted,
)
from repro.summaries import SAXConfig


# --------------------------------------------------------------- shards
def make_disk(n_pages=16, page_size=64):
    disk = SimulatedDisk(page_size=page_size)
    disk.allocate(n_pages)
    for page in range(n_pages):
        disk.write_page(page, bytes([page]))
    return disk


def test_shard_owns_its_extent_and_head():
    disk = make_disk(8)
    extent = disk.allocate(4)
    disk.reset_stats()
    disk.park_head()
    with ShardedDisk(disk, [(extent, 2), (extent + 2, 2)]) as (a, b):
        a.write_page(extent, b"A")
        a.write_page(extent + 1, b"B")
        b.write_page(extent + 2, b"C")
        # Each shard classifies against its own head: one seek each.
        assert a.stats.random_writes == 1 and a.stats.sequential_writes == 1
        assert b.stats.random_writes == 1
        # Writes outside the writable extent are rejected.
        with pytest.raises(PageError):
            a.write_page(extent + 2, b"no")
        with pytest.raises(PageError):
            b.write_page(0, b"no")
        # Pre-session parent pages are readable (snapshot), own writes too.
        assert a.read_page(3)[:1] == bytes([3])
        assert a.read_page(extent)[:1] == b"A"
    # Reconciled into the parent after detach.
    assert disk.read_page(extent)[:1] == b"A"
    assert disk.read_page(extent + 2)[:1] == b"C"


def test_parent_is_fenced_while_sharded():
    disk = make_disk(4)
    extent = disk.allocate(2)
    session = ShardedDisk(disk, [(extent, 2)])
    assert disk.sharded
    with pytest.raises(PageError):
        disk.read_page(0)
    with pytest.raises(PageError):
        disk.write_page(0, b"x")
    with pytest.raises(PageError):
        disk.allocate(1)
    with pytest.raises(PageError):
        ShardedDisk(disk, [(extent, 1)])  # no nested sessions
    session.detach()
    assert not disk.sharded
    disk.read_page(0)  # usable again


def test_detached_shard_rejects_io():
    disk = make_disk(4)
    extent = disk.allocate(2)
    session = ShardedDisk(disk, [(extent, 2)])
    (shard,) = session.shards
    session.detach()
    assert not shard.attached
    with pytest.raises(PageError):
        shard.read_page(0)
    with pytest.raises(PageError):
        shard.write_page(extent, b"x")


def test_shard_snapshot_isolation_and_bounds():
    disk = make_disk(4)
    extent = disk.allocate(4)
    with ShardedDisk(disk, [(extent, 2), (extent + 2, 2)]) as (a, b):
        b.write_page(extent + 2, b"sibling")
        # A sibling's in-session write is invisible (and never-written
        # pages read as a full zero page, not as an error).
        assert bytes(a.read_page(extent + 2)) == bytes(64)
        with pytest.raises(PageError):
            a.read_page(extent + 10)  # beyond the snapshot watermark


def test_sharded_disk_rejects_bad_extents():
    disk = make_disk(4)
    extent = disk.allocate(4)
    with pytest.raises(PageError):
        ShardedDisk(disk, [(extent, 3), (extent + 2, 2)])  # overlap
    with pytest.raises(PageError):
        ShardedDisk(disk, [(extent + 2, 10)])  # beyond allocation
    with pytest.raises(ValueError):
        ShardedDisk(disk, [(-1, 2)])


def test_shard_allocate_carves_from_extent():
    disk = make_disk(2)
    extent = disk.allocate(3)
    with ShardedDisk(disk, [(extent, 3)]) as (shard,):
        assert shard.allocate(2) == extent
        assert shard.allocate(1) == extent + 2
        with pytest.raises(PageError):
            shard.allocate(1)  # exhausted


def test_detach_parks_head_deterministically():
    """Satellite fix: the first post-session access is always random.

    Whatever head positions the shards ended on — and regardless of the
    pool interleaving that produced them — detach parks the parent
    head, so ``stats_since`` deltas across a session boundary never
    depend on scheduling.
    """
    disk = make_disk(8)
    extent = disk.allocate(2)
    disk.reset_stats()
    with ShardedDisk(disk, [(extent, 2)]) as (shard,):
        shard.write_page(extent, b"x")  # shard head now at `extent`
    assert disk.head_position is None
    snapshot = disk.snapshot()
    disk.read_page(extent + 1)  # head-adjacent to the shard's last write
    delta = disk.stats_since(snapshot)
    assert delta.random_reads == 1 and delta.sequential_reads == 0


def test_detach_reconciles_stats_in_partition_order():
    disk = make_disk(2)
    extent = disk.allocate(4)
    disk.reset_stats()
    session = ShardedDisk(disk, [(extent, 2), (extent + 2, 2)])
    a, b = session.shards
    b.write_page(extent + 2, b"1")
    b.write_page(extent + 3, b"2")
    a.write_page(extent, b"3")
    expected = a.snapshot() + b.snapshot()
    merged = session.detach()
    assert merged == expected
    assert disk.stats == expected
    assert session.detach() == DiskStats()  # idempotent


# ---------------------------------------------- sharded merge vs serial
def make_sorted_runs(n, run_sizes, key_bytes=8, alphabet=256, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, alphabet, size=(n, key_bytes), dtype=np.uint8)
    keys = raw.view(f"S{key_bytes}").ravel()
    payloads = np.arange(n, dtype=np.int64)
    runs, at = [], 0
    for size in run_sizes:
        size = min(size, n - at)
        order = np.argsort(keys[at : at + size], kind="stable")
        runs.append((keys[at : at + size][order], payloads[at : at + size][order]))
        at += size
    if at < n:
        order = np.argsort(keys[at:], kind="stable")
        runs.append((keys[at:][order], payloads[at:][order]))
    return [run for run in runs if len(run[0])]


def drive_sorter(runs, memory_bytes, workers=1, pool_kind="thread", page_size=256):
    disk = SimulatedDisk(page_size=page_size)
    sorter = ExternalSorter(
        disk, memory_bytes, merge_workers=workers, pool_kind=pool_kind
    )
    parts = list(sorter.sort_runs(runs))
    shapes = [len(k) for k, _ in parts]
    keys = np.concatenate([k for k, _ in parts]) if parts else np.empty(0)
    payloads = np.concatenate([p for _, p in parts]) if parts else np.empty(0)
    return keys, payloads, shapes, disk.stats, sorter.report


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=400),
    n_runs=st.integers(min_value=1, max_value=20),
    alphabet=st.sampled_from([2, 4, 256]),
    memory_records=st.integers(min_value=2, max_value=48),
    workers=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_sharded_spilled_merge_equals_serial(
    n, n_runs, alphabet, memory_records, workers, seed
):
    """The full acceptance property, quantified over worker counts.

    Stream, chunk shapes and SortReport: parallel == serial sorter.
    DiskStats: threaded run == serial replay of the same sharded plan.
    Covers duplicate-heavy keys, single-run groups, cascades, and the
    degenerate splitter samples a tiny alphabet forces.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max(1, 2 * n // n_runs + 1), size=n_runs)
    runs = make_sorted_runs(n, sizes.tolist(), alphabet=alphabet, seed=seed)
    if not runs:
        return
    memory = 16 * memory_records
    base = drive_sorter(runs, memory, workers=1)
    pooled = drive_sorter(runs, memory, workers=workers, pool_kind="thread")
    replay = drive_sorter(runs, memory, workers=workers, pool_kind="serial")
    np.testing.assert_array_equal(base[0], pooled[0])
    np.testing.assert_array_equal(base[1], pooled[1])
    assert base[2] == pooled[2]
    assert base[4] == pooled[4]
    np.testing.assert_array_equal(base[0], replay[0])
    assert base[2] == replay[2] and base[4] == replay[4]
    assert pooled[3] == replay[3]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    n_runs=st.integers(min_value=1, max_value=8),
    alphabet=st.sampled_from([3, 256]),
    n_splitters=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_any_splitter_sample_is_exact(
    n, n_runs, alphabet, n_splitters, seed
):
    """Adversarial splitters can unbalance partitions, never change them.

    Splitters are drawn at random (not from run boundaries), including
    keys absent from every run, duplicates of hot keys, and extremes —
    the merged stream and the on-disk bytes must equal the serial
    stable merge regardless, and thread vs inline execution must
    reconcile identical stats.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.integers(0, max(1, 2 * n // n_runs + 1), size=n_runs)
    runs = make_sorted_runs(n, sizes.tolist(), alphabet=alphabet, seed=seed)
    if not runs:
        return
    raw = rng.integers(0, alphabet, size=(n_splitters, 8), dtype=np.uint8)
    splitters = np.unique(raw.view("S8").ravel())
    rec_dtype = np.dtype([("k", "S8"), ("v", "<i8")])

    def run_once(pool_kind):
        disk = SimulatedDisk(page_size=128)
        sources = []
        for keys, payloads in runs:
            block = np.empty(len(keys), dtype=rec_dtype)
            block["k"] = keys
            block["v"] = payloads
            file = PagedFile(disk, name=f"run-{len(sources)}")
            file.write_stream(block.tobytes())
            sources.append((file, len(keys), keys))
        result = sharded_spill_merge(
            disk,
            sources,
            rec_dtype,
            n_partitions=4,
            buffer_records=7,
            pool_kind=pool_kind,
            splitters=splitters,
        )
        raw_bytes = result.file.read_stream(0, result.file.n_pages)
        n_bytes = result.n_records * rec_dtype.itemsize
        return result, raw_bytes[:n_bytes], disk

    pooled, pooled_bytes, pooled_disk = run_once("thread")
    replay, replay_bytes, replay_disk = run_once("serial")
    want_keys, want_payloads = merge_presorted(list(runs))
    np.testing.assert_array_equal(pooled.keys, want_keys)
    # On-disk byte stream (keys and payloads) is the packed serial layout.
    expected = np.empty(len(want_keys), dtype=rec_dtype)
    expected["k"] = want_keys
    expected["v"] = want_payloads
    assert pooled_bytes == expected.tobytes()
    assert pooled_bytes == replay_bytes
    assert pooled_disk.stats == replay_disk.stats


def test_sharded_merge_single_source_and_tiny_pages():
    """One run, pages smaller than a record: fragments dominate."""
    keys = np.sort(np.arange(40).astype("S8"))
    payloads = np.arange(40, dtype=np.int64)
    rec_dtype = np.dtype([("k", "S8"), ("v", "<i8")])
    disk = SimulatedDisk(page_size=8)  # half a record per page
    block = np.empty(40, dtype=rec_dtype)
    block["k"] = keys
    block["v"] = payloads
    file = PagedFile(disk, name="run")
    file.write_stream(block.tobytes())
    result = sharded_spill_merge(
        disk,
        [(file, 40, keys)],
        rec_dtype,
        n_partitions=5,
        buffer_records=3,
        pool_kind="thread",
    )
    data = result.file.read_stream(0, result.file.n_pages)
    assert data[: 40 * 16] == block.tobytes()


def test_stream_run_file_yields_serial_chunk_shapes():
    """Reading a materialized run back reproduces the engines' chunks."""
    from repro.parallel import stream_run_file

    rec_dtype = np.dtype([("k", "S8"), ("v", "<i8")])
    keys = np.sort(np.arange(100).astype("S8"))
    payloads = np.arange(100, dtype=np.int64)
    disk = SimulatedDisk(page_size=128)
    block = np.empty(100, dtype=rec_dtype)
    block["k"] = keys
    block["v"] = payloads
    file = PagedFile(disk, name="run")
    file.write_stream(block.tobytes())
    chunks = list(stream_run_file(file, 100, rec_dtype, 30))
    assert [len(k) for k, _ in chunks] == [30, 30, 30, 10]
    np.testing.assert_array_equal(np.concatenate([k for k, _ in chunks]), keys)
    np.testing.assert_array_equal(
        np.concatenate([p for _, p in chunks]), payloads
    )


def test_sharded_merge_rejects_bad_input():
    disk = SimulatedDisk()
    rec_dtype = np.dtype([("k", "S8"), ("v", "<i8")])
    with pytest.raises(ValueError):
        sharded_spill_merge(disk, [], rec_dtype, n_partitions=2, buffer_records=4)
    file = PagedFile(disk, name="run")
    keys = np.array([b"a", b"b"], dtype="S8")
    with pytest.raises(ValueError):
        sharded_spill_merge(
            disk,
            [(file, 3, keys)],  # mirror length mismatch
            rec_dtype,
            n_partitions=2,
            buffer_records=4,
        )


# ----------------------------------------------------- index-level gate
CONFIG = SAXConfig(series_length=32, word_length=4, cardinality=16)
DATA = random_walk(700, length=32, seed=23)

#: Worker counts for the index-level equivalence gates.  CI's dedicated
#: multi-worker step overrides this (e.g. "4,8") to cover counts the
#: default run does not.
WORKER_COUNTS = [
    int(w)
    for w in os.environ.get("REPRO_EQUIVALENCE_WORKERS", "2,4").split(",")
]


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_spilled_tree_build_bit_identical_for_any_workers(workers):
    """A spilled CoconutTree build with workers=N equals the serial one."""
    from repro.core import CoconutTree

    def build(n_workers):
        disk = SimulatedDisk(page_size=2048)
        raw = RawSeriesFile.create(disk, DATA)
        index = CoconutTree(
            disk, memory_bytes=24 * 1024, config=CONFIG, leaf_size=40,
            materialized=True, workers=n_workers, chunk_series=96,
            pool_kind="thread",
        )
        report = index.build(raw)
        assert report.extra["sort_runs"] > 1
        return index, disk

    serial, _ = build(1)
    parallel, _ = build(workers)
    assert len(serial._leaves) == len(parallel._leaves)
    for leaf_s, leaf_p in zip(serial._leaves, parallel._leaves):
        assert (leaf_s.slot, leaf_s.count, leaf_s.first_key) == (
            leaf_p.slot, leaf_p.count, leaf_p.first_key,
        )
        assert (
            serial._read_leaf_records(leaf_s).tobytes()
            == parallel._read_leaf_records(leaf_p).tobytes()
        )


def build_lsm():
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, DATA[:200])
    lsm = CoconutLSM(disk, memory_bytes=4096, config=CONFIG, size_ratio=2)
    lsm.build(raw)
    for i in range(8):
        lsm.insert_batch(random_walk(90, length=32, seed=300 + i))
    return disk, lsm


# ------------------------------------------------- read-only sessions
def test_read_only_session_reads_through_a_writing_fence():
    """The online service's serving contract, at the storage layer.

    A read-only session attached *before* a writing session keeps
    reading its pre-session pages while the writing session fences the
    parent — that window is exactly a flush/compaction commit, and it
    is why a serving snapshot pins its shard up front instead of
    opening sessions per batch.
    """
    disk = make_disk(8)
    reader = ShardedDisk(disk, [(0, 0)], names=["reader"], read_only=True)
    (shard,) = reader.shards
    before = [bytes(shard.read_page(p)) for p in range(8)]
    extent = disk.allocate(2)  # read-only leaves the parent live
    writer = ShardedDisk(disk, [(extent, 2)])
    try:
        assert disk.sharded  # the commit fence is up...
        with pytest.raises(PageError):
            disk.read_page(0)
        with pytest.raises(PageError):
            ShardedDisk(disk, [(0, 0)], read_only=True)  # no new sessions
        # ...yet the pre-attached reader still reads, bit-identically.
        assert [bytes(shard.read_page(p)) for p in range(8)] == before
    finally:
        writer.detach()
    # And again after the commit: pre-session pages are immutable.
    assert [bytes(shard.read_page(p)) for p in range(8)] == before


def test_read_only_session_watermark_pins_at_attach():
    disk = make_disk(4)
    reader = ShardedDisk(disk, [(0, 0)], read_only=True)
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
    reader = ShardedDisk(disk, [(0, 0)], names=["snapshot"], read_only=True)
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
