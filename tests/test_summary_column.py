"""The summary column's cell index: its lifetime, its one builder, and
the one module-level binding every lower-bound scan passes through."""

import gc
import importlib
import pkgutil
import sys
import threading
import weakref

import numpy as np
import pytest

import repro
import repro.core.summary_column as column_module
from repro import QueryBatch, make_dataset
from repro.core import CoconutLSM, CoconutTree, CoconutTrie
from repro.core.summary_column import WordColumn
from repro.indexes.ads import ADSIndex
from repro.series import query_workload
from repro.service import CoconutService
from repro.storage import RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig, sax
from repro.summaries.paa import paa

CONFIG = SAXConfig(series_length=64, word_length=16, cardinality=256)


@pytest.fixture
def index_builds(monkeypatch):
    """Every ``CellIndex`` a column builds, in order."""
    built = []

    class Counted(sax.CellIndex):
        __slots__ = ()

        @classmethod
        def of(cls, words, config):
            built.append(super().of(words, config))
            return built[-1]

    monkeypatch.setattr(column_module, "CellIndex", Counted)
    return built


def _tree(n=3000):
    disk = SimulatedDisk(page_size=4096)
    data = make_dataset("randomwalk", n, length=64, seed=3)
    index = CoconutTree(disk, 1 << 20, config=CONFIG, leaf_size=64)
    index.build(RawSeriesFile.create(disk, data))
    return index


def test_the_cell_index_is_built_once_per_column_and_dies_with_it(index_builds):
    index = _tree()
    queries = query_workload("randomwalk", 6, length=64, seed=5)
    assert index_builds == []  # nothing until the first scan
    for query in queries[:3]:
        index.exact_search(query)
    index.exact_knn(queries[3], 5)
    index.query_batch(QueryBatch(queries=queries, k=3))
    # A range scan reads the same cell index.
    index._column.lower_bounds(paa(queries, CONFIG.word_length), 100, 2000)
    assert len(index_builds) == 1
    cells = index_builds.pop().cells
    assert cells is index._column._cell_index().cells
    assert cells.dtype == np.intp and cells.flags.c_contiguous
    assert cells.shape == (CONFIG.word_length, len(index._column))
    # The index lives on the column alone: no module-level cache (or
    # anything else) keeps the array reachable once its holder is gone.
    alive = weakref.ref(cells)
    del cells, index
    gc.collect()
    assert alive() is None


def test_concurrent_first_scans_build_one_index_between_them(index_builds):
    """More scanners than cores, all arriving at a column nobody has
    scanned: one builds, the rest wait, all read the same bounds."""
    rng = np.random.default_rng(0)
    words = rng.integers(0, 256, size=(20_000, 16)).astype(np.uint8)
    query_paa = rng.standard_normal(16)
    want = sax.mindist_paa_to_words(query_paa, words, CONFIG).tobytes()
    n_threads, rounds = 8, 5
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            column = WordColumn(CONFIG, words)
            gate = threading.Barrier(n_threads)
            got = [None] * n_threads

            def scan(slot):
                gate.wait(timeout=30)
                lo = slot * 1000
                got[slot] = (lo, column.lower_bounds(query_paa, lo, None))

            threads = [
                threading.Thread(target=scan, args=(slot,))
                for slot in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(index_builds) == 1
            index_builds.clear()
            full = np.frombuffer(want)
            for lo, bounds in got:
                assert bounds.tobytes() == full[lo:].tobytes()
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# Tracer conformance: what ``bench_e2e`` patches is what the engines call
# ----------------------------------------------------------------------
def _count_scans_through_module_bindings(monkeypatch):
    """Wrap every ``repro.*`` module global bound to the kernel, the way
    ``bench_e2e/trace.py`` installs its span; returns the call log."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    original = sax.mindist_paa_to_words
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counting)
    return calls


SIMS_MAKERS = {
    "CTree": lambda disk: CoconutTree(disk, 1 << 20, config=CONFIG, leaf_size=64),
    "CTrie": lambda disk: CoconutTrie(disk, 1 << 20, config=CONFIG, leaf_size=64),
    "LSM": lambda disk: CoconutLSM(disk, 1 << 13, config=CONFIG),
}


def test_every_engines_scan_passes_through_the_binding_the_tracer_patches(
    monkeypatch,
):
    """A scan that bypassed the module-level ``mindist_paa_to_words``
    binding would read ``summaries.sax.mindist_s = 0`` in a traced
    benchmark run; only CI's smoke step used to notice."""
    calls = _count_scans_through_module_bindings(monkeypatch)
    data = make_dataset("randomwalk", 1500, length=64, seed=9)
    queries = query_workload("randomwalk", 4, length=64, seed=9)

    def fired(label, run):
        before = len(calls)
        run()
        assert len(calls) > before, f"{label}: scan bypassed the traced binding"

    for name, make in SIMS_MAKERS.items():
        disk = SimulatedDisk(page_size=4096)
        index = make(disk)
        index.build(RawSeriesFile.create(disk, data))
        fired(f"{name}.exact_search", lambda: index.exact_search(queries[0]))
        fired(f"{name}.exact_knn", lambda: index.exact_knn(queries[1], 3))
        fired(
            f"{name}.query_batch",
            lambda: index.query_batch(QueryBatch(queries=queries, k=3)),
        )
    disk = SimulatedDisk(page_size=4096)
    ads = ADSIndex(disk, 1 << 20, config=CONFIG, leaf_size=64)
    ads.build(RawSeriesFile.create(disk, data))
    fired("ADS+.exact_search", lambda: ads.exact_search(queries[0]))

    disk = SimulatedDisk(page_size=4096)
    service = CoconutService(
        disk, RawSeriesFile.create(disk, data), 1 << 13, sax_config=CONFIG
    )
    service.bootstrap()

    def serve():
        ticket = service.query(queries[0], mode="exact", k=3)
        assert ticket.status == "served"

    fired("served exact batch", serve)
