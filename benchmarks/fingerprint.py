"""Fingerprints of everything a refactor or a speed-up must leave unchanged.

Each cell builds an index (or runs a service) on a fresh
``SimulatedDisk(trace=True)``, asks it exact, k-NN and batched queries,
and prints one SHA-256 over the disk's access trace, every written page
(``dump_pages()``), the ``DiskStats`` and the answers — followed by a
short digest of each of the four, to say which one moved.  Cells: the
Coconut-Tree, Tree-Full spilling and fitting in memory, and the Trie,
each queried at ``query_workers`` 1 (``w1``); the LSM through ingest and
compaction; a served batch at ``query_workers`` 1 and 2.  ``query_workers``
is inert, so the two served cells print the same digest.

Runs unchanged on a parent commit and on a change; equal output is the
identity evidence::

    PYTHONPATH=src python benchmarks/fingerprint.py           # print
    PYTHONPATH=src python benchmarks/fingerprint.py --check   # run twice, compare

``--check`` exits 1 when two in-process runs disagree.
"""

import hashlib
import sys

import numpy as np

from repro import (
    CoconutService,
    CoconutTree,
    CoconutTrie,
    QueryBatch,
    RawSeriesFile,
    SAXConfig,
    ServiceConfig,
    SimulatedDisk,
)
from repro.core import CoconutLSM
from repro.series import make_dataset, query_workload

LENGTH = 128
CONFIG = SAXConfig(series_length=LENGTH, word_length=16, cardinality=256)
DATA = make_dataset("randomwalk", 4_000, length=LENGTH, seed=7)
QUERIES = query_workload("randomwalk", 8, length=LENGTH, seed=7)
PAGE_SIZE = 8192


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _fingerprint(disk, answers) -> "tuple[str, dict]":
    pages = b"".join(
        page.to_bytes(8, "little") + data for page, data in disk.dump_pages().items()
    )
    parts = {
        "trace": _sha(disk.trace),
        "pages": _sha(pages),
        "stats": _sha(disk.stats),
        "answers": _sha(answers),
    }
    return _sha(*parts.values()), parts


def _queries(index, workers: int) -> list:
    """Exact, 5-NN, exact 10-NN batch and approximate batch answers."""
    answers = []
    for query in QUERIES[:3]:
        result = index.exact_search(query)
        answers.append((result.answer_idx, result.distance))
        outcome = index.exact_knn(query, 5)
        answers.append((list(outcome.answer_ids), list(outcome.distances)))
    for batch in (QueryBatch(QUERIES, k=10), QueryBatch(QUERIES, mode="approximate")):
        report = index.query_batch(batch, query_workers=workers)
        answers.append((report.knn_ids, report.knn_distances))
    return answers


def _bulk_cell(cls, fraction: float, **kwargs):
    disk = SimulatedDisk(page_size=PAGE_SIZE, trace=True)
    raw = RawSeriesFile.create(disk, DATA)
    index = cls(disk, int(DATA.nbytes * fraction), config=CONFIG,
                leaf_size=100, **kwargs)
    report = index.build(raw)
    answers = [(report.n_leaves, report.avg_leaf_fill, report.index_bytes)]
    return disk, answers + _queries(index, 1)


def _lsm_cell():
    disk = SimulatedDisk(page_size=PAGE_SIZE, trace=True)
    lsm = CoconutLSM(disk, 1 << 16, config=CONFIG, size_ratio=2, durability="wal")
    lsm.build(RawSeriesFile.create(disk, DATA[:1_000]))
    for lo in range(1_000, len(DATA), 250):
        lsm.insert_batch(DATA[lo : lo + 250])
    answers = [(lsm.n_runs, lsm.n_flushes, lsm.n_merges, lsm.storage_bytes())]
    return disk, answers + _queries(lsm, 1)


def _served_cell(workers: int):
    disk = SimulatedDisk(page_size=PAGE_SIZE, trace=True)
    raw = RawSeriesFile.create(disk, DATA[:2_000])
    service = CoconutService(
        disk, raw, 1 << 16, sax_config=CONFIG,
        config=ServiceConfig(query_workers=workers), size_ratio=2,
    )
    service.bootstrap()
    answers = []
    for lo in range(2_000, len(DATA), 500):
        service.ingest(DATA[lo : lo + 500])
        tickets = [service.submit(query, k=k) for query in QUERIES for k in (1, 5)]
        tickets += [service.submit(query, mode="approximate") for query in QUERIES]
        service.serve_pending()
        answers.append([(t.status, t.knn_ids, t.knn_distances) for t in tickets])
    service.stop()
    return disk, answers


def cells():
    """``(name, thunk)`` per cell; each thunk returns ``(disk, answers)``."""
    out = [
        ("tree w1", lambda: _bulk_cell(CoconutTree, 0.05)),
        ("tree-full-spill w1", lambda: _bulk_cell(CoconutTree, 0.05, materialized=True)),
        ("tree-full-fits w1", lambda: _bulk_cell(CoconutTree, 2.0, materialized=True)),
        ("trie w1", lambda: _bulk_cell(CoconutTrie, 0.05)),
        ("lsm ingest+compaction", _lsm_cell),
    ]
    out += [(f"served batch w{w}", lambda w=w: _served_cell(w)) for w in (1, 2)]
    return out


def run() -> "dict[str, tuple[str, dict]]":
    return {name: _fingerprint(*thunk()) for name, thunk in cells()}


def main(argv: list) -> int:
    first = run()
    for name, (digest, parts) in first.items():
        short = " ".join(f"{key}={value[:8]}" for key, value in parts.items())
        print(f"{name:24s} {digest}  {short}")
    if "--check" not in argv:
        return 0
    second = run()
    moved = [name for name in first if first[name] != second[name]]
    if moved:
        print(f"two in-process runs disagree on: {', '.join(moved)}")
        return 1
    print("two in-process runs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
