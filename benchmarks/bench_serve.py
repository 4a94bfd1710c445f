"""Online service throughput: concurrent ingest + query serving.

Sustained mixed read/write traffic through
:class:`repro.service.CoconutService` — a feeder thread streaming
WAL-durable ingest batches while the serve-on-arrival server thread
coalesces and serves concurrent queries against snapshot-isolated
read-only sessions.  The sweep
(:func:`repro.bench.harness.run_serve_sweep`) *asserts* on its cell
before any number is reported:

* every served exact ticket is bit-identical to a fault-free oracle
  index built over exactly the first ``snapshot_series`` rows the
  ticket reports (serving never reads a half-flushed run or a torn
  watermark);
* every served approximate ticket names an in-watermark row;
* ticket accounting conserves: ``submitted == served + shed +
  rejected`` — nothing is silently dropped.

The reported cell is the service's own health surface: sustained
ingest rows/s and queries/s over the same wall-clock window, with
p50/p95/p99 end-to-end query latency and the degradation counters
(shed, degraded batches, session conflicts).  There is no speedup
gate; the throughput numbers are reported, not bounded.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_serve.py [--n N] [--queries Q]
"""

import argparse
import sys

from repro.bench.harness import run_serve_sweep
from repro.bench.report import print_experiment
from repro.bench.workloads import DatasetSpec


def check(rows: list) -> None:
    """Assert the serving contract on every reported cell."""
    for row in rows:
        assert row["identical"], f"oracle-equivalence violation: {row}"
        assert row["served"] + row["shed"] + row["rejected"] == row["submitted"], (
            f"ticket accounting leak: {row}"
        )
        assert row["served"] > 0, f"no queries served: {row}"
        assert row["p50_ms"] <= row["p99_ms"], f"latency order broken: {row}"


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=4000, help="base series")
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--batch-rows", type=int, default=200)
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--dataset", default="randomwalk")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv[1:])
    spec = DatasetSpec(args.dataset, args.n, args.length, args.seed)
    rows = run_serve_sweep(
        spec,
        n_queries=args.queries,
        batch_rows=args.batch_rows,
        n_batches=args.batches,
        k=args.k,
        seed=args.seed,
    )
    print_experiment(
        "online service: concurrent ingest + query serving",
        rows,
        columns=[
            "cores", "n_series", "ingest_rows_per_s",
            "queries_per_s", "p50_ms", "p95_ms", "p99_ms", "served",
            "shed", "degraded_batches", "session_conflicts", "flushes",
            "merges", "identical",
        ],
    )
    check(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
