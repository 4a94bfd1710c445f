"""The 2-core evidence behind "a worker pool is a thread pool".

On ``bench_e2e``'s configuration (seed 7), alternating pairs time the three
``build_rw`` builds at default ``workers=2`` against ``1``, a 64 x k=10
exact batch and a 64-query approximate batch at ``query_workers=2`` against
``1``.  A row is ``median serial / median parallel [min, max pair ratio]``;
a range straddling 1.0 is unresolved.  Every build asserts the same index for
any worker count and the same ``DiskStats`` as its inline replay, and every
batch the same answers at either worker count.  Runs unchanged on a parent
commit and on a change::

    PYTHONPATH=src python benchmarks/bench_pool_evidence.py [reps]
"""

import os
import sys
import time

import numpy as np

from repro import CoconutTree, QueryBatch, RawSeriesFile, SAXConfig, SimulatedDisk
from repro.series import make_dataset, query_workload

CONFIG = SAXConfig(series_length=256, word_length=16, cardinality=256)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _pairs(serial, parallel, reps):
    ratios, a, b = [], [], []
    for rep in range(reps):
        times = {fn: fn()[0] for fn in ((serial, parallel) if rep % 2 == 0 else (parallel, serial))}
        a.append(times[serial]), b.append(times[parallel])
        ratios.append(times[serial] / times[parallel])
    return f"{np.median(a) / np.median(b):.2f}x [{min(ratios):.2f}, {max(ratios):.2f}]"


def _build(data, materialized, fraction, **pool):
    """(seconds in ``build``, its report, the tree) on a fresh disk."""
    disk = SimulatedDisk(page_size=8192)
    tree = CoconutTree(disk, int(data.nbytes * fraction), config=CONFIG,
                       leaf_size=100, materialized=materialized, **pool)
    raw = RawSeriesFile.create(disk, data)
    return *_timed(lambda: tree.build(raw)), tree


def main(reps: int) -> None:
    print(f"nproc={os.cpu_count()} reps={reps}")
    data = make_dataset("randomwalk", 15_000, length=256, seed=7)
    for name, materialized, fraction in [
        ("tree 5%", False, 0.05), ("full spill", True, 0.05), ("full fits", True, 2.0)
    ]:
        one = lambda: _build(data, materialized, fraction, workers=1)
        two = lambda: _build(data, materialized, fraction, workers=2)
        pooled = two()[1]
        replay = _build(data, materialized, fraction, workers=2, pool_kind="serial")[1]
        # Same index for any worker count; same DiskStats as the inline replay.
        sizes = {(r.n_leaves, r.index_bytes) for r in (one()[1], pooled, replay)}
        assert len(sizes) == 1 and pooled.io == replay.io, f"build {name}: workers=2 diverged"
        print(f"build {name:11s} workers=2 vs 1: {_pairs(one, two, reps)}")
    for name, dataset, n in [("query_rw", "randomwalk", 15_000), ("query_seismic", "seismic", 4_000)]:
        tree = _build(make_dataset(dataset, n, length=256, seed=7), False, 0.05)[2]
        queries = query_workload(dataset, 64, length=256, seed=7)
        for mode, k in (("exact", 10), ("approximate", 1)):
            batch = QueryBatch(queries, k=k, mode=mode)
            one = lambda: _timed(lambda: tree.query_batch(batch).knn_ids)
            two = lambda: _timed(lambda: tree.query_batch(batch, query_workers=2).knn_ids)
            ratio = _pairs(one, two, reps)
            assert one()[1] == two()[1], f"{mode} batch {name}: query_workers=2 diverged"
            print(f"{mode:11s} batch {name:13s} query_workers=2 vs 1: {ratio}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 11)
