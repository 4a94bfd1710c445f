"""Served tickets verify every page they read, with no buffer pool.

A served batch reads straight off its snapshot's read-only shard.  With
``ServiceConfig(verified_reads=True)`` each page it reads — record
pages the SIMS gather fetches and run windows the approximate probe
reads — is hashed against the checksum sidecar before it is used.  A
page flipped at rest (:func:`repro.storage.integrity.decay_bit`)
raises :class:`CorruptionError` inside serving; the service scrubs,
repairs the page and still answers the ticket exactly.
"""

import numpy as np
import pytest

import repro.storage.integrity as integrity_module
import repro.storage.seriesfile as seriesfile_module
from repro.service import CoconutService, ServiceConfig
from repro.storage import CorruptionError, SimulatedDisk
from repro.storage.integrity import decay_bit
from repro.storage.seriesfile import RawSeriesFile
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
    disk, raw, svc = make_service()
    snapshot = svc.current_snapshot()
    run_pages, raw_pages = page_kinds(snapshot, raw)
    verified = spy_on_verification(monkeypatch)
    mark, parent_mark = len(snapshot.shard.trace), len(disk.trace)
    for query in QUERIES:
        ticket = svc.query(query, mode="exact", k=k)
        assert ticket.status == "served" and not ticket.degraded
        assert (list(ticket.knn_ids), ticket.knn_distances) == brute_force(
            query, k, ticket.snapshot_series
        )
    assert svc.current_snapshot() is snapshot
    read = pages_read(snapshot.shard.trace[mark:])
    # Both kinds are read, only off the shard, and each one is hashed.
    assert read & run_pages and read & raw_pages
    assert read <= run_pages | raw_pages
    assert read <= verified
    assert len(disk.trace) == parent_mark


@pytest.mark.parametrize("kind", ["raw", "run"])
def test_a_page_flipped_at_rest_is_refused_healed_and_answered_exactly(
    monkeypatch, kind
):
    disk, raw, svc = make_service()
    query = QUERIES[1]
    snapshot = svc.current_snapshot()
    run_pages, raw_pages = page_kinds(snapshot, raw)
    mark = len(snapshot.shard.trace)
    clean = svc.query(query, mode="exact", k=3)
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
    ticket = svc.query(query, mode="exact", k=3)
    after = svc.stats_snapshot()["scrub"]
    assert refused == [page]
    assert after["corruption_heals"] == before["corruption_heals"] + 1
    assert after["pages_repaired"] == before["pages_repaired"] + 1
    assert disk.checksums.verify(page, disk.page_view(page))
    assert ticket.status == "served" and ticket.degraded
    assert ticket.snapshot_series == clean.snapshot_series
    assert (list(ticket.knn_ids), ticket.knn_distances) == brute_force(
        query, 3, ticket.snapshot_series
    )
    assert (ticket.knn_ids, ticket.knn_distances) == (
        clean.knn_ids,
        clean.knn_distances,
    )
