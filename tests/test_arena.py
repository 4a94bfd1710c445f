"""Arena page store: zero-copy invariants and the dict-device oracle.

The page store keeps one contiguous ``bytearray`` per allocation
extent and serves reads as read-only memoryview slices; the per-page
dict device it replaced is the copy-level oracle
(``tests/oracles.py::DictDisk``).  These tests pin

* the hardened read semantics (never-written pages read as a full zero
  page, on ``read_page`` and ``read_run_bytes`` alike, on the product
  device and on the oracle);
* the zero-copy invariants (views alias the arena; scan blocks share
  arena memory);
* the cross-device equivalence oracle: the same op sequence produces
  identical contents, counters, head movement and access traces.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import DEVICES, DictDisk
from repro.storage import (
    DiskShard,
    ExternalSorter,
    PagedFile,
    RawSeriesFile,
    SimulatedDisk,
)


# ------------------------------------------------- hardened semantics
@pytest.mark.parametrize("store", DEVICES)
def test_unwritten_pages_read_zero_filled_on_both_apis(store):
    disk = DEVICES[store](page_size=32)
    disk.allocate(3)
    disk.write_page(1, b"abc")
    assert len(disk.read_page(0)) == 32
    assert bytes(disk.read_page(0)) == bytes(32)
    assert bytes(disk.read_page(1)) == b"abc".ljust(32, b"\x00")
    assert bytes(disk.read_run_bytes(0, 3)) == (
        bytes(32) + b"abc".ljust(32, b"\x00") + bytes(32)
    )
    # A shorter overwrite zeroes the replaced tail.
    disk.write_page(1, b"xy")
    assert bytes(disk.read_page(1)) == b"xy".ljust(32, b"\x00")
    # A short bulk write zeroes the rest of the run.
    disk.write_run_bytes(0, b"Q" * 40, 2)
    assert bytes(disk.read_run_bytes(0, 2)) == (b"Q" * 40).ljust(64, b"\x00")


@pytest.mark.parametrize("store", DEVICES)
def test_shard_reads_are_zero_filled_full_pages(store):
    disk = DEVICES[store](page_size=32)
    disk.allocate(2)
    disk.write_page(0, b"parent")
    disk.allocate(2)  # a second extent, never written
    shard = DiskShard(disk)
    assert bytes(shard.read_page(0)) == b"parent".ljust(32, b"\x00")
    assert bytes(shard.read_page(1)) == bytes(32)  # never written
    assert bytes(shard.read_page(3)) == bytes(32)  # across extents
    assert bytes(shard.read_run_bytes(0, 4)) == (
        b"parent".ljust(32, b"\x00") + bytes(96)
    )


# ------------------------------------------------- zero-copy invariants
def test_read_apis_alias_the_arena():
    disk = SimulatedDisk(page_size=64)
    first = disk.allocate(8)
    payload = bytes(range(256)) * 2
    disk.write_run_bytes(first, payload, 8)
    arena = disk._arenas.arenas[0]
    view = disk.read_run_bytes(first, 8)
    assert isinstance(view, memoryview) and view.readonly
    assert view.obj is arena  # zero-copy: a slice of the arena itself
    assert bytes(view) == payload.ljust(8 * 64, b"\x00")
    page = disk.read_page(first + 3)
    assert isinstance(page, memoryview) and page.obj is arena
    # The legacy list API rides the same single bulk read.
    disk.park_head()
    disk.reset_stats()
    pages = disk.read_run(first, 4)
    assert disk.stats.random_reads == 1 and disk.stats.sequential_reads == 3
    assert all(isinstance(p, memoryview) and p.obj is arena for p in pages)
    assert b"".join(bytes(p) for p in pages) == bytes(
        disk.read_run_bytes(first, 4)
    )


def test_paged_file_stream_is_zero_copy_within_one_extent():
    disk = SimulatedDisk(page_size=128)
    file = PagedFile(disk, n_pages=16)
    file.write_stream(bytes(range(256)) * 7)
    blob = file.read_stream(2, 10)
    assert isinstance(blob, memoryview)
    assert blob.obj is disk._arenas.arenas[0]


def test_scan_blocks_share_arena_memory():
    rng = np.random.default_rng(3)
    disk = SimulatedDisk(page_size=512)
    data = rng.standard_normal((64, 32)).astype(np.float32)  # 128 B records
    raw = RawSeriesFile.create(disk, data)
    assert raw.series_per_page * raw.record_bytes == disk.page_size
    arena = np.frombuffer(disk._arenas.arenas[0], dtype=np.uint8)
    blocks = list(raw.scan(chunk_series=16))
    assert blocks
    for _, block in blocks:
        assert np.shares_memory(block, arena)  # no intermediate bytes
    np.testing.assert_array_equal(
        np.concatenate([b for _, b in blocks]), data
    )


def test_arena_views_observe_later_writes():
    """Documented aliasing contract: views are windows, not snapshots."""
    disk = SimulatedDisk(page_size=16)
    disk.allocate(1)
    disk.write_page(0, b"before")
    view = disk.read_page(0)
    disk.write_page(0, b"after!")
    assert bytes(view) == b"after!".ljust(16, b"\x00")


# ------------------------------------------------- extent coalescing
def test_adjacent_extents_coalesce_into_one_arena():
    """A file growing into the pages right after it grows its own arena
    in place; a new file next to it gets an arena of its own."""
    disk = SimulatedDisk(page_size=64)
    file = PagedFile(disk, n_pages=4)
    assert file.grow(4) == 4
    assert file.n_extents == 1  # physically adjacent
    assert len(disk._arenas.arenas) == 1
    payload = bytes(range(256)) * 2
    file.write_stream(payload)
    # A run spanning both grow calls is one zero-copy view.
    view = file.read_stream(0, 8)
    assert isinstance(view, memoryview) and view.readonly
    assert view.obj is disk._arenas.arenas[0]
    assert bytes(view) == payload
    # A neighbour is adjacent too, but it is another file: new arena.
    PagedFile(disk, n_pages=2)
    assert len(disk._arenas.arenas) == 2
    assert len(disk._arenas.arenas[0]) == 8 * 64


def test_coalescing_backs_off_while_views_are_exported():
    """A live memoryview pins the tail arena; growth must not move it."""
    disk = SimulatedDisk(page_size=64)
    file = PagedFile(disk, n_pages=2)
    file.write(0, b"pinned")
    held = file.read(0)  # exported view of the tail arena
    assert file.grow(2) == 2 and file.n_extents == 1
    # BufferError fallback: a separate arena, the held view intact.
    assert len(disk._arenas.arenas) == 2
    assert bytes(held)[:6] == b"pinned"
    file.write(2, b"new")
    assert bytes(file.read(2))[:3] == b"new"
    # Cross-boundary runs still read correctly (joined copy path).
    assert bytes(file.read_stream(0, 4))[:6] == b"pinned"
    del held
    # With the export gone the file's next extent coalesces again.
    assert file.grow(2) == 4 and file.n_extents == 1
    assert len(disk._arenas.arenas) == 2


def test_incrementally_grown_file_reads_back_zero_copy():
    """An extent-at-a-time file stays on the zero-copy read path.

    Without coalescing, each ``grow`` would make its own arena and a
    whole-file read would join them through a bytes copy; the read is
    a single arena slice, pinned by tracemalloc staying far below the
    file size.
    """
    page_size, n_extents, extent_pages = 1024, 16, 8
    disk = SimulatedDisk(page_size=page_size)
    rng = np.random.default_rng(5)
    file = PagedFile(disk)
    for _ in range(n_extents):
        start = file.grow(extent_pages)
        file.write_stream(
            bytes(rng.integers(0, 256, size=extent_pages * page_size,
                               dtype=np.uint8)),
            at_page=start,
        )
    assert len(disk._arenas.arenas) == 1 and file.n_extents == 1
    total_pages = n_extents * extent_pages
    tracemalloc.start()
    view = file.read_stream(0, total_pages)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert isinstance(view, memoryview)
    assert view.obj is disk._arenas.arenas[0]
    # 128 KiB of data read with no materialized copy.
    assert peak < total_pages * page_size // 8


def test_a_new_file_never_grows_another_files_arena():
    """Only a file's own growth extends an arena.  Bare ``allocate``
    calls — a new file, a baseline leaf, a spill output — open one
    each, and a file that grows after a neighbour was allocated gets
    a second extent in a second arena."""
    disk = SimulatedDisk(page_size=64)
    a = PagedFile(disk, n_pages=2)
    first = disk.allocate(3)
    assert first == 2 and len(disk._arenas.arenas) == 2
    assert a.grow(1) == 2 and a.n_extents == 2
    assert len(disk._arenas.arenas) == 3
    assert [len(arena) // 64 for arena in disk._arenas.arenas] == [2, 3, 1]
    assert disk._arenas.starts == [0, 2, 5]


def test_a_tree_build_leaves_the_raw_files_arena_untouched():
    """The leaf level is a new file: reserving it used to grow the raw
    file's arena by the whole leaf level (a copy of the raw file)."""
    from repro.core import CoconutTree
    from repro.summaries import SAXConfig

    rng = np.random.default_rng(2)
    disk = SimulatedDisk(page_size=1024)
    raw = RawSeriesFile.create(disk, rng.standard_normal((300, 32)).astype(np.float32))
    arena = disk._arenas.arenas[0]
    size = len(arena)
    for materialized in (False, True):
        tree = CoconutTree(
            disk, 4096, SAXConfig(series_length=32, word_length=8, cardinality=16),
            leaf_size=20, materialized=materialized,
        )
        tree.build(raw)
        assert disk._arenas.arenas[0] is arena
        assert len(arena) == size == raw.file.n_pages * disk.page_size


# ------------------------------------------------- cross-store oracle
def _random_ops(disk, rng):
    """Drive one device with a deterministic mixed op sequence."""
    out = []
    disk.allocate(int(rng.integers(1, 6)))
    for _ in range(60):
        op = int(rng.integers(0, 6))
        allocated = disk.pages_allocated
        if op == 0 or allocated == 0:
            disk.allocate(int(rng.integers(1, 6)))
            continue
        first = int(rng.integers(0, allocated))
        span = int(rng.integers(1, min(6, allocated - first) + 1))
        if op == 1:
            data = bytes(rng.integers(0, 256, size=int(rng.integers(0, disk.page_size + 1)), dtype=np.uint8))
            disk.write_page(first, data)
        elif op == 2:
            n_bytes = int(rng.integers(0, span * disk.page_size + 1))
            data = bytes(rng.integers(0, 256, size=n_bytes, dtype=np.uint8))
            disk.write_run_bytes(first, data, span)
        elif op == 3:
            out.append(bytes(disk.read_page(first)))
        elif op == 4:
            out.append(bytes(disk.read_run_bytes(first, span)))
        else:
            out.append(b"".join(bytes(p) for p in disk.read_run(first, span)))
    return out


def test_dict_and_arena_stores_are_equivalent_under_random_ops():
    for seed in range(8):
        arena = SimulatedDisk(page_size=96, trace=True)
        dict_ = DictDisk(page_size=96, trace=True)
        got_a = _random_ops(arena, np.random.default_rng(seed))
        got_d = _random_ops(dict_, np.random.default_rng(seed))
        assert got_a == got_d, seed
        assert arena.stats == dict_.stats, seed
        assert arena.head_position == dict_.head_position, seed
        assert arena.trace == dict_.trace, seed
        assert arena.dump_pages() == dict_.dump_pages(), seed
        assert arena.pages_written == dict_.pages_written, seed


@pytest.mark.parametrize("memory_bytes", [4096 * 4, 4096, 1024])
def test_spilled_sort_identical_across_stores(memory_bytes):
    """The whole sort/spill/merge stack is store-agnostic.

    Same merged stream, chunk shapes, SortReport, DiskStats and access
    trace on the arena store as on the dict oracle device, from a few
    runs to about a hundred.
    """
    rng = np.random.default_rng(11)
    raw = rng.integers(0, 256, size=(4000, 8), dtype=np.uint8)
    keys = raw.view("S8").ravel()
    payloads = rng.standard_normal((4000, 4)).astype(np.float32)
    results = {}
    for store, device in DEVICES.items():
        disk = device(page_size=1024, trace=True)
        sorter = ExternalSorter(disk, memory_bytes)
        parts = list(sorter.sort(keys, payloads))
        results[store] = {
            "keys": np.concatenate([k for k, _ in parts]),
            "payloads": np.concatenate([p for _, p in parts]),
            "shapes": [len(k) for k, _ in parts],
            "stats": disk.stats,
            "trace": disk.trace,
            "report": sorter.report,
            "pages": disk.dump_pages(),
        }
    a, d = results["arena"], results["dict"]
    assert a["report"].spilled
    np.testing.assert_array_equal(a["keys"], d["keys"])
    np.testing.assert_array_equal(a["payloads"], d["payloads"])
    assert a["shapes"] == d["shapes"]
    assert a["report"] == d["report"]
    assert a["stats"] == d["stats"]
    assert a["trace"] == d["trace"]
    assert a["pages"] == d["pages"]
