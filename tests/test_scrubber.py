"""Background scrub + automatic repair: the healing half of integrity.

The property pinned here (the "oracle scrub"): for seeded corruption
schedules — at-rest decay via :func:`decay_bit` and in-flight
:class:`FaultyDevice` write flips — on the product device and on the
dict oracle device (``tests/oracles.py``),

* :meth:`Scrubber.sweep` detects **exactly** the pages a brute-force
  hash of every live target finds corrupt (no misses, no false
  positives);
* every repair restores bit-identical page content, and post-repair
  index content and exact-search answers equal the fault-free oracle;
* corrupt runs are quarantined and rebuilt through the
  ``CoconutLSM`` recovery seam; raw multi-bit damage stays quarantined
  loudly (verified reads keep refusing it);
* ``step()`` honours its page budget, so the online service can scrub
  in bounded increments without stalling serving.
"""

import numpy as np
import pytest

from oracles import DEVICES
from repro.core.lsm import CoconutLSM
from repro.storage import (
    CorruptionError,
    ExternalSorter,
    FaultError,
    FaultPlan,
    FaultyDevice,
    RawSeriesFile,
    Scrubber,
    decay_bit,
)
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)
MEM = 1 << 10
PAGE = 2048
BATCH_ROWS = 25

_rng = np.random.default_rng(2024)
BASE = _rng.standard_normal((200, LENGTH)).astype(np.float32)
EXTRA = _rng.standard_normal((250, LENGTH)).astype(np.float32)
QUERIES = _rng.standard_normal((3, LENGTH))


def build_index(store, device=None):
    disk = DEVICES[store](page_size=PAGE, integrity=True)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    ix = CoconutLSM(
        device if device is not None else disk,
        MEM,
        CONFIG,
        durability="wal",
    )
    ix.build(raw)
    for lo in range(0, len(EXTRA), BATCH_ROWS):
        ix.insert_batch(EXTRA[lo : lo + BATCH_ROWS])
    return disk, raw, ix


def target_pages(scrubber):
    """(kind, page) for every page a sweep covers, in sweep order."""
    return [
        (kind, first + i)
        for kind, _, first, n_pages in scrubber._targets()
        for i in range(n_pages)
    ]


def oracle_scrub(disk, scrubber):
    """Brute force: every target page whose content fails its checksum."""
    return {
        page
        for _, page in target_pages(scrubber)
        if not disk.checksums.verify(page, disk.page_view(page))
    }


def answers(ix):
    return [
        (r.answer_idx, r.distance) for r in (ix.exact_search(q) for q in QUERIES)
    ]


# ----------------------------------------------------------------------
# Clean workloads scrub clean (recording has no gaps)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
def test_clean_workload_scrubs_clean(store):
    """Every page the sweep covers was recorded by some consumer."""
    disk, raw, ix = build_index(store)
    assert ix.n_merges > 0
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    report = scrubber.sweep()
    assert report.complete
    assert report.pages_scanned == len(target_pages(scrubber))
    assert report.pages_scanned > 0
    assert report.corrupt_pages == []
    assert scrubber.unrepairable == set()


@pytest.mark.parametrize("store", DEVICES)
def test_sharded_sort_cascade_records_every_page_it_writes(store):
    """A spilled sort cascade writes its runs and merged runs through
    ``PagedFile``, and every page on the device verifies."""
    disk = DEVICES[store](page_size=PAGE, integrity=True)
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 256, size=(3000, 8), dtype=np.uint8).view("S8").ravel()
    sorter = ExternalSorter(disk, 2 * PAGE)
    merged = np.concatenate([k for k, _ in sorter.sort(keys, np.arange(3000))])
    assert merged.tobytes() == np.sort(keys, kind="stable").tobytes()
    assert sorter.report.merge_passes > 1  # cascade passes wrote runs
    assert all(
        disk.checksums.verify(page, disk.page_view(page))
        for page in range(disk.pages_allocated)
    )


# ----------------------------------------------------------------------
# Oracle-scrub pin: seeded at-rest decay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("seed", range(6))
def test_decay_detected_exactly_and_repaired_bit_identical(store, seed):
    disk, raw, ix = build_index(store)
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    pages = target_pages(scrubber)
    before = {page: bytes(disk.page_view(page)) for _, page in pages}
    expect = answers(ix)

    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pages), size=min(12, len(pages)), replace=False)
    corrupted = set()
    for pick in picks:
        kind, page = pages[int(pick)]
        # Raw pages get single-bit decay (algebraically repairable in
        # place); run pages alternate single- and multi-bit (multi-bit
        # forces the quarantine + rebuild-from-raw path).
        n_bits = 3 if kind == "run" and int(pick) % 2 else 1
        for bit in rng.choice(PAGE * 8, size=n_bits, replace=False):
            decay_bit(disk, page, int(bit))
        corrupted.add(page)

    assert oracle_scrub(disk, scrubber) == corrupted
    report = scrubber.sweep()
    assert report.complete
    assert set(report.corrupt_pages) == corrupted  # found every flip
    assert scrubber.unrepairable == set()
    assert report.unrepairable_pages == []
    # Every repair restored bit-identical content...
    for _, page in pages:
        assert bytes(disk.page_view(page)) == before[page]
        assert disk.checksums.verify(page, disk.page_view(page))
    # ...and the answers never moved.
    assert answers(ix) == expect
    # A follow-up sweep finds nothing left to do.
    again = scrubber.sweep()
    assert again.corrupt_pages == [] and again.complete


@pytest.mark.parametrize("store", DEVICES)
def test_multibit_run_decay_quarantines_and_rebuilds_from_raw(store):
    disk, raw, ix = build_index(store)
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    run = ix._runs[0]
    first = run.file.physical_page(0)
    before = bytes(disk.page_view(first))
    for bit in (5, 777, 4242):
        decay_bit(disk, first, bit)
    rebuilt_before = ix.n_rebuilt_runs
    report = scrubber.sweep()
    assert report.quarantined_runs == [first]
    assert report.rebuilt_runs == 1
    assert ix.n_rebuilt_runs == rebuilt_before + 1
    assert bytes(disk.page_view(first)) == before
    assert scrubber.unrepairable == set()


def test_multibit_raw_decay_stays_quarantined_loudly():
    disk, raw, ix = build_index("arena")
    raw.verified_reads = True
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    page = raw.file.physical_page(0)
    decay_bit(disk, page, 3)
    decay_bit(disk, page, 999)
    report = scrubber.sweep()
    assert page in report.unrepairable_pages
    assert page in scrubber.unrepairable
    # The source of truth cannot be reconstructed; verified reads keep
    # refusing rather than serving garbage.
    with pytest.raises(CorruptionError):
        raw.get(0)
    # Still corrupt on the next sweep — never silently forgotten.
    assert page in scrubber.sweep().corrupt_pages


def test_step_honours_page_budget_and_completes():
    disk, raw, ix = build_index("arena")
    scrubber = Scrubber(disk, lsm=ix, raw=raw, pages_per_step=7)
    total = len(target_pages(scrubber))
    decay_bit(disk, raw.file.physical_page(1), 40)
    scanned = 0
    steps = 0
    while True:
        report = scrubber.step()
        steps += 1
        assert report.pages_scanned <= 7
        scanned += report.pages_scanned
        if report.complete:
            break
        assert steps < 10_000
    assert scanned == total
    assert steps == -(-total // 7)
    assert scrubber.n_sweeps == 1
    assert scrubber.total.repaired_pages == [raw.file.physical_page(1)]


# ----------------------------------------------------------------------
# Oracle-scrub pin: seeded in-flight FaultyDevice write flips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store", DEVICES)
@pytest.mark.parametrize("seed", range(6))
def test_writetime_flips_found_repaired_and_recovery_equivalent(store, seed):
    """End to end: flips land during a live WAL workload, the sweep
    finds exactly the brute-force corrupt set, every corrupt page is
    provably one of the injected flips, and after repair a recovered
    index matches the acknowledged-batches oracle bit for bit."""
    disk = DEVICES[store](page_size=PAGE, integrity=True)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    dev = FaultyDevice(
        disk, FaultPlan(seed=seed, p_bitflip_write=0.03, max_faults=5)
    )
    ix = CoconutLSM(dev, MEM, CONFIG, durability="wal")
    try:
        ix.build(raw)
        for lo in range(0, len(EXTRA), BATCH_ROWS):
            ix.insert_batch(EXTRA[lo : lo + BATCH_ROWS])
    except FaultError:
        # A flip on a WAL page fails the read-back ack barrier —
        # detection at write time, before any scrub.
        pass
    scrubber = Scrubber(disk, lsm=ix, raw=raw)
    corrupt = oracle_scrub(disk, scrubber)
    # Provenance: every corruption the oracle sees is an injected flip
    # (raw rides the bare disk here, so flips hit WAL/run pages only).
    assert corrupt <= dev.flipped_pages
    report = scrubber.sweep()
    assert report.complete
    assert set(report.corrupt_pages) == corrupt
    assert scrubber.unrepairable == set()  # single-bit flips all heal
    assert oracle_scrub(disk, scrubber) == set()
    # The repaired disk recovers to the acknowledged oracle.
    try:
        rec = CoconutLSM.recover(disk, raw)
    except CorruptionError:
        # Crashed before the META frame: nothing was ever acknowledged.
        raw.truncate(len(BASE))
        rec = CoconutLSM(disk, MEM, CONFIG, durability="wal", wal_id=2)
        rec.build(raw)
    odisk = DEVICES[store](page_size=PAGE)
    oraw = RawSeriesFile(odisk, LENGTH)
    oraw.append_batch(BASE)
    oracle = CoconutLSM(odisk, MEM, CONFIG, durability="wal")
    oracle.build(oraw)
    extra = EXTRA[: raw.n_series - len(BASE)]
    for lo in range(0, len(extra), BATCH_ROWS):
        oracle.insert_batch(extra[lo : lo + BATCH_ROWS])
    for q in QUERIES:
        a, b = rec.exact_search(q), oracle.exact_search(q)
        assert (a.answer_idx, a.distance) == (b.answer_idx, b.distance)
