"""Served tickets verify every page they read, off the snapshot's shard.

A served batch reads straight off its snapshot's read-only shard and
never touches the parent device's counters, head or trace.  With
``ServiceConfig(verified_reads=True)`` each page it reads is hashed
against the checksum sidecar before it is used: an exact ticket reads
only raw record pages (its heaps are primed from the in-memory
summaries, so it reads no run page), an approximate ticket reads the
run windows its probe covers and the raw pages of the records it
gathers.  A page flipped at rest
(``tests/fault_injection.py::decay_bit``) raises
:class:`CorruptionError` inside serving; the service scrubs, repairs
the page and still answers the ticket as it did before the flip.
"""

import numpy as np
import pytest

import repro.core.sims as sims_module
import repro.storage.integrity as integrity_module
import repro.storage.seriesfile as seriesfile_module
from fault_injection import decay_bit
from repro.service import CoconutService, ServiceConfig
from repro.storage import CorruptionError, SimulatedDisk
from repro.storage.seriesfile import FetchPlan, RawSeriesFile
from repro.summaries.sax import SAXConfig

LENGTH = 64
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=16)
MEM = 1 << 10
PAGE = 2048

_rng = np.random.default_rng(3131)
BASE = _rng.standard_normal((150, LENGTH)).astype(np.float32)
EXTRA = _rng.standard_normal((190, LENGTH)).astype(np.float32)
ROWS = np.concatenate([BASE, EXTRA])
QUERIES = _rng.standard_normal((3, LENGTH))


def make_service():
    """A verifying service over several runs and a non-empty memtable."""
    disk = SimulatedDisk(page_size=PAGE, trace=True)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(BASE)
    svc = CoconutService(
        disk, raw, MEM, sax_config=CONFIG, config=ServiceConfig(verified_reads=True)
    )
    svc.bootstrap()
    for lo in range(0, len(EXTRA), 25):
        svc.ingest(EXTRA[lo : lo + 25])
    assert svc._lsm.n_runs >= 2 and svc._lsm._mem_records > 0
    return disk, raw, svc


def brute_force(query, k, watermark):
    distances = np.sqrt(
        np.sum((ROWS[:watermark].astype(np.float64) - query[None, :]) ** 2, axis=1)
    )
    order = np.argsort(distances, kind="stable")[:k]
    return order.tolist(), distances[order].tolist()


def pages_read(trace) -> set:
    return {first + i for verb, first, count in trace if verb == "r" for i in range(count)}


def page_kinds(snapshot, raw):
    """Physical pages of the snapshot's run records and of its raw file."""
    runs = {
        run.file.physical_page(p) for run in snapshot._runs for p in range(run.data_pages)
    }
    raw_pages = {raw.file.physical_page(p) for p in range(raw.file.n_pages)}
    return runs, raw_pages


def spy_on_verification(monkeypatch) -> set:
    """Every page id the serve path hashes, wherever it hashes it."""
    verified = set()

    def spy(checksums, page_id, view, source):
        verified.add(page_id)
        return verify(checksums, page_id, view, source)

    verify = integrity_module.verify_view
    monkeypatch.setattr(integrity_module, "verify_view", spy)
    monkeypatch.setattr(seriesfile_module, "verify_view", spy)
    return verified


@pytest.mark.parametrize("k", [1, 3])
def test_served_exact_ticket_hashes_every_page_it_reads(monkeypatch, k):
    """Exact tickets read and hash raw pages only; approximate tickets
    read and hash the run windows of their probes as well."""
    disk, raw, svc = make_service()
    snapshot = svc.current_snapshot()
    run_pages, raw_pages = page_kinds(snapshot, raw)
    verified = spy_on_verification(monkeypatch)
    mark, parent_mark = len(snapshot.shard.trace), len(disk.trace)
    parent_stats, parent_head = disk.snapshot(), disk.head_position
    for query in QUERIES:
        ticket = svc.query(query, mode="exact", k=k)
        assert ticket.status == "served" and not ticket.degraded
        assert (list(ticket.knn_ids), ticket.knn_distances) == brute_force(
            query, k, ticket.snapshot_series
        )
    assert svc.current_snapshot() is snapshot
    read = pages_read(snapshot.shard.trace[mark:])
    # Raw pages only, only off the shard, and each one is hashed.
    assert read & raw_pages and not read & run_pages
    assert read <= verified
    mark = len(snapshot.shard.trace)
    tickets = [svc.query(query, mode="approximate") for query in QUERIES]
    assert all(t.status == "served" and not t.degraded for t in tickets)
    read = pages_read(snapshot.shard.trace[mark:])
    # Both kinds are read, only off the shard, and each one is hashed.
    assert read & run_pages and read & raw_pages
    assert read <= run_pages | raw_pages
    assert read <= verified
    # The parent device never sees a served read: trace, counters, head.
    assert len(disk.trace) == parent_mark
    assert disk.snapshot() == parent_stats
    assert disk.head_position == parent_head
    view = snapshot.frozen_view()  # reads on the parent from here on
    for query, ticket in zip(QUERIES, tickets):
        probe = view._seed(query)
        assert (ticket.knn_ids[0], ticket.knn_distances[0]) == (
            probe.answer_idx,
            probe.distance,
        )


@pytest.mark.parametrize("kind", ["raw", "run"])
def test_a_page_flipped_at_rest_is_refused_healed_and_answered_exactly(
    monkeypatch, kind
):
    """A raw page flipped under an exact ticket, or a run page under an
    approximate one (only a probe reads run pages): refused, repaired,
    and the ticket answered as before the flip."""
    disk, raw, svc = make_service()
    query = QUERIES[1]
    mode, k = ("exact", 3) if kind == "raw" else ("approximate", 1)
    snapshot = svc.current_snapshot()
    run_pages, raw_pages = page_kinds(snapshot, raw)
    mark = len(snapshot.shard.trace)
    clean = svc.query(query, mode=mode, k=k)
    assert clean.status == "served" and not clean.degraded
    read = sorted(pages_read(snapshot.shard.trace[mark:]) & (
        raw_pages if kind == "raw" else run_pages
    ))
    page = read[len(read) // 2]
    decay_bit(disk, page, bit=8 * 37 + 5)
    refused = []
    serve = svc._serve_batch

    def watched(snapshot, batch):
        try:
            return serve(snapshot, batch)
        except CorruptionError as error:
            refused.append(error.page_id)
            raise

    monkeypatch.setattr(svc, "_serve_batch", watched)
    before = svc.stats_snapshot()["scrub"]
    ticket = svc.query(query, mode=mode, k=k)
    after = svc.stats_snapshot()["scrub"]
    assert refused == [page]
    assert after["corruption_heals"] == before["corruption_heals"] + 1
    assert after["pages_repaired"] == before["pages_repaired"] + 1
    assert disk.checksums.verify(page, disk.page_view(page))
    assert ticket.status == "served" and ticket.degraded
    assert ticket.snapshot_series == clean.snapshot_series
    if mode == "exact":
        assert (list(ticket.knn_ids), ticket.knn_distances) == brute_force(
            query, k, ticket.snapshot_series
        )
    else:
        probe = snapshot.frozen_view()._seed(query)
        assert (ticket.knn_ids[0], ticket.knn_distances[0]) == (
            probe.answer_idx,
            probe.distance,
        )
    assert (ticket.knn_ids, ticket.knn_distances) == (
        clean.knn_ids,
        clean.knn_distances,
    )


# ------------------------------------------------------ a dense served block
# 760 rows x 64 values: every served block holds more elements than
# ``BOUND_MIN_ELEMENTS``, random rows leave the SAX bound nothing to
# prune, and eight records fill each 2 KB page.  So a served exact
# ticket reads its block paged: bounded on the pages it read and hashed.
_dense_rng = np.random.default_rng(4242)
DENSE_BASE = _dense_rng.standard_normal((160, LENGTH)).astype(np.float32)
DENSE_EXTRA = _dense_rng.standard_normal((600, LENGTH)).astype(np.float32)
DENSE_ROWS = np.concatenate([DENSE_BASE, DENSE_EXTRA])
DENSE_QUERIES = _dense_rng.standard_normal((3, LENGTH))


def make_dense_service(split: bool = False):
    """The dense service; ``split`` pins the raw file's arena during
    its first ingest, so the file's later rows live in a second arena
    and a dense read of them returns more than one run."""
    disk = SimulatedDisk(page_size=PAGE, trace=True)
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(DENSE_BASE)
    svc = CoconutService(
        disk, raw, MEM, sax_config=CONFIG, config=ServiceConfig(verified_reads=True)
    )
    svc.bootstrap()
    for lo in range(0, len(DENSE_EXTRA), 100):
        pin = disk.page_view(raw.file.physical_page(0)) if split and lo == 0 else None
        svc.ingest(DENSE_EXTRA[lo : lo + 100])
        del pin
    assert len(DENSE_ROWS) * LENGTH >= sims_module.BOUND_MIN_ELEMENTS
    assert raw.records_fill_pages
    return disk, raw, svc


def dense_brute_force(query, k):
    distances = np.sqrt(
        np.sum((DENSE_ROWS.astype(np.float64) - query[None, :]) ** 2, axis=1)
    )
    order = np.argsort(distances, kind="stable")[:k]
    return order.tolist(), distances[order].tolist()


def spy_on_reads(monkeypatch) -> "dict[str, list]":
    """Pages of every paged read and every gather, and each bound call."""
    seen = {"paged": [], "gathered": [], "bound": []}
    read_records, get_many = RawSeriesFile.read_records, RawSeriesFile.get_many

    def paged(self, plan):
        seen["paged"].append(set(plan.physical.tolist()))
        return read_records(self, plan)

    def gathered(self, idxs):
        plan = idxs if isinstance(idxs, FetchPlan) else self.plan_fetch(idxs)
        seen["gathered"].append(set(plan.physical.tolist()))
        return get_many(self, plan)

    def bound(query, block):
        seen["bound"].append(not block.flags.writeable)
        return lower_bounds(query, block)

    lower_bounds = sims_module.euclidean_lower_bounds
    monkeypatch.setattr(RawSeriesFile, "read_records", paged)
    monkeypatch.setattr(RawSeriesFile, "get_many", gathered)
    monkeypatch.setattr(sims_module, "euclidean_lower_bounds", bound)
    return seen


def tail_arena_can_grow(disk, raw) -> bool:
    """Whether the arena holding the raw file's last page could grow in
    place now: no live view pins it (probed by growing it one byte)."""
    arenas = disk._arenas
    last = raw.file.physical_page(raw.file.n_pages - 1)
    arena, _ = arenas.segments[arenas._locate(last)]  # through the segment table
    arena = arenas.arenas[arena]
    try:
        arena.extend(b"\0")
    except BufferError:
        return False
    del arena[-1]
    return True


@pytest.mark.parametrize("k", [1, 3])
def test_a_dense_served_block_is_bounded_on_pages_it_read_and_hashed(monkeypatch, k):
    disk, raw, svc = make_dense_service()
    snapshot = svc.current_snapshot()
    verified = spy_on_verification(monkeypatch)
    seen = spy_on_reads(monkeypatch)
    mark = len(snapshot.shard.trace)
    for query in DENSE_QUERIES:
        ticket = svc.query(query, mode="exact", k=k)
        assert ticket.status == "served" and not ticket.degraded
        assert (list(ticket.knn_ids), ticket.knn_distances) == dense_brute_force(
            query, k
        )
    read = pages_read(snapshot.shard.trace[mark:])
    assert len(seen["paged"]) == len(DENSE_QUERIES)
    assert True in seen["bound"]  # bounded on read-only page views
    assert set().union(*seen["paged"]) <= read <= verified


def test_dense_tickets_served_together_bound_their_block_once_per_run(monkeypatch):
    """Two dense exact tickets queued before ``serve_pending()`` are one
    served batch: its block is bounded once per page run for both
    tickets, with the ``(2, n)`` query block, on read-only views of
    pages that were read and hashed; answers equal brute force in id
    order."""
    disk, raw, svc = make_dense_service(split=True)
    snapshot = svc.current_snapshot()
    verified = spy_on_verification(monkeypatch)
    seen = spy_on_reads(monkeypatch)
    calls, runs = [], []
    bound, read_records = sims_module.euclidean_lower_bounds, RawSeriesFile.read_records

    def shared_bound(queries, block):
        calls.append((np.shape(queries), block.flags.writeable))
        return bound(queries, block)

    def counted(self, plan):
        records = read_records(self, plan)
        runs.append(len(records.runs))
        return records

    monkeypatch.setattr(sims_module, "euclidean_lower_bounds", shared_bound)
    monkeypatch.setattr(RawSeriesFile, "read_records", counted)
    mark = len(snapshot.shard.trace)
    tickets = [svc.submit(query, mode="exact", k=3) for query in DENSE_QUERIES[:2]]
    assert svc.serve_pending() == 1
    for query, ticket in zip(DENSE_QUERIES, tickets):
        assert ticket.status == "served" and not ticket.degraded
        assert (list(ticket.knn_ids), ticket.knn_distances) == dense_brute_force(
            query, 3
        )
    assert len(seen["paged"]) == 1 and runs[0] > 1
    assert calls == [((2, LENGTH), False)] * runs[0]
    read = pages_read(snapshot.shard.trace[mark:])
    assert seen["paged"][0] <= read <= verified


def test_a_flip_inside_a_dense_block_is_refused_before_the_bound_reads_it(
    monkeypatch,
):
    disk, raw, svc = make_dense_service()
    query = DENSE_QUERIES[1]
    seen = spy_on_reads(monkeypatch)
    clean = svc.query(query, mode="exact", k=3)
    assert clean.status == "served" and seen["paged"]
    # A page only the paged read touches, so nothing else can refuse it.
    only_paged = sorted(set().union(*seen["paged"]) - set().union(*seen["gathered"]))
    page = only_paged[len(only_paged) // 2]
    decay_bit(disk, page, bit=8 * 37 + 5)
    events = []
    serve = svc._serve_batch

    def watched(snapshot, batch):
        events.append(len(seen["bound"]))
        try:
            return serve(snapshot, batch)
        except CorruptionError as error:
            events.append((error.page_id, len(seen["bound"])))
            raise

    monkeypatch.setattr(svc, "_serve_batch", watched)
    before = svc.stats_snapshot()["scrub"]
    ticket = svc.query(query, mode="exact", k=3)
    after = svc.stats_snapshot()["scrub"]
    # The refused attempt made no bound call: the page was hashed first.
    bounds_at_start, (refused, bounds_at_refusal) = events[:2]
    assert refused == page and bounds_at_refusal == bounds_at_start
    assert after["corruption_heals"] == before["corruption_heals"] + 1
    assert after["pages_repaired"] == before["pages_repaired"] + 1
    assert disk.checksums.verify(page, disk.page_view(page))
    assert ticket.status == "served"
    assert (list(ticket.knn_ids), ticket.knn_distances) == dense_brute_force(query, 3)
    assert (ticket.knn_ids, ticket.knn_distances) == (
        clean.knn_ids,
        clean.knn_distances,
    )


def test_a_dense_served_ticket_leaves_no_view_pinning_the_raw_file(monkeypatch):
    queried = make_dense_service()
    twin = make_dense_service()
    disk, raw, svc = queried
    assert tail_arena_can_grow(disk, raw)
    pin = disk.page_view(raw.file.physical_page(raw.file.n_pages - 1))
    assert not tail_arena_can_grow(disk, raw)  # the probe sees a pin
    del pin
    seen = spy_on_reads(monkeypatch)
    for query in DENSE_QUERIES:
        assert svc.query(query, mode="exact", k=3).status == "served"
    assert len(seen["paged"]) == len(DENSE_QUERIES)
    assert tail_arena_can_grow(disk, raw)
    more = np.random.default_rng(9).standard_normal((100, LENGTH)).astype(np.float32)
    for disk, raw, svc in (queried, twin):
        svc.ingest(more)
    assert len(queried[0]._arenas.arenas) == len(twin[0]._arenas.arenas)
    assert queried[1].file.n_extents == twin[1].file.n_extents
