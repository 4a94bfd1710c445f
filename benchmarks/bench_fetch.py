"""Vectorized columnar gather + one-pass refine vs. the loop-level oracle.

The fetch path used to assemble every record with per-record Python
slicing and refine candidates one scalar early-abandon call at a time.
``RawSeriesFile.get_many`` is now a two-phase grouped gather — one
counted read per maximal consecutive page run, then a single strided
fancy-index take over the joined stream — and the refine step runs
through the batched :func:`repro.series.distance.
early_abandon_euclidean_block` kernel (one tiled, allocation-free
distance pass).  This benchmark measures the win and *asserts*
the contract on every cell:

* fetched records bit-identical between the vectorized gather and the
  retained loop-level oracle (``get_many_loop``), on both page stores;
* classified ``DiskStats`` and head positions bit-identical between
  the two paths — the gather visits exactly the pages the
  skip-sequential plan visits, once each, in ascending order — and
  records/stats/traces/heads bit-identical across stores per path
  (the harness raises on any violation);
* every refine distance bitwise-identical (``uint64`` view) to the
  naive one-shot formula, ``inf`` only strictly above the bound, and
  never ``inf`` where the scalar early-abandon loop keeps the row;
* at the headline configuration (>= 200k series of length 16, the
  dense regime where whole page runs collapse into single bulk reads)
  the gather must be >= 5x faster than the loop oracle, **on a host
  with >= 4 cores** (small/noisy CI boxes stay ungated and report
  honest numbers).  Long-record cells are reported honestly without a
  gate: their wall clock is dominated by the page-granular I/O both
  paths share.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_fetch.py \
        [--n N ...] [--length L] [--fetch-fraction F] \
        [--headline-n N] [--headline-length L] [--json PATH]
"""

import argparse
import json
import os
import sys

from repro.bench import print_experiment
from repro.bench.harness import run_fetch_sweep

#: Headline configuration the >= 5x gather gate applies to.
GATE_SERIES = 200_000
GATE_LENGTH = 16
GATE_SPEEDUP = 5.0
GATE_MIN_CORES = 4

COLUMNS = [
    "workload", "store", "n_series", "length", "cores",
    "loop_s", "vector_s", "speedup", "identical", "io_identical",
]


def check(rows: list) -> None:
    """Assert the equivalence contract and the headline gather gate."""
    for row in rows:
        assert row["identical"], f"answer-equivalence violation: {row}"
        assert row["io_identical"], f"I/O-equivalence violation: {row}"
    cores = os.cpu_count() or 1
    if cores < GATE_MIN_CORES:
        return
    gated = [
        row
        for row in rows
        if row["workload"] == "gather"
        and row["n_series"] >= GATE_SERIES
        and row["length"] == GATE_LENGTH
    ]
    for row in gated:
        assert row["speedup"] >= GATE_SPEEDUP, (
            f"expected >= {GATE_SPEEDUP}x over the loop-level gather on "
            f"the {row['store']} store at {row['n_series']} series of "
            f"length {row['length']} on {cores} cores, got "
            f"{row['speedup']:.2f}x"
        )


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+",
                        default=[10_000, 50_000])
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--fetch-fraction", type=float, default=0.3)
    parser.add_argument("--headline-n", type=int, default=GATE_SERIES,
                        help="series count of the gated headline cell "
                             "(0 disables the headline sweep)")
    parser.add_argument("--headline-length", type=int, default=GATE_LENGTH)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", default="",
        help="write rows as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv[1:])
    rows = run_fetch_sweep(
        args.n,
        length=args.length,
        fetch_fraction=args.fetch_fraction,
        seed=args.seed,
        repeats=args.repeats,
    )
    if args.headline_n:
        rows += run_fetch_sweep(
            [args.headline_n],
            length=args.headline_length,
            fetch_fraction=args.fetch_fraction,
            seed=args.seed,
            repeats=args.repeats,
        )
    print_experiment(
        "vectorized gather + one-pass refine vs loop oracle",
        rows,
        columns=COLUMNS,
    )
    check(rows)
    if args.json:
        payload = json.dumps(
            {
                "benchmark": "fetch_gather_refine",
                "config": {
                    "n_series": args.n,
                    "length": args.length,
                    "fetch_fraction": args.fetch_fraction,
                    "headline_n": args.headline_n,
                    "headline_length": args.headline_length,
                    "repeats": args.repeats,
                    "seed": args.seed,
                    "cores": os.cpu_count() or 1,
                },
                "rows": rows,
            },
            indent=2,
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload + "\n")
    return 0


def bench_fetch(benchmark):
    """pytest-benchmark entry point (tiny, correctness-focused)."""
    rows = benchmark.pedantic(
        run_fetch_sweep,
        args=([4_000],),
        kwargs={"length": 32, "repeats": 1},
        rounds=1,
        iterations=1,
    )
    check(rows)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
