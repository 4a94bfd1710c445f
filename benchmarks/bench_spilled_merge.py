"""Sharded parallel spilled-run merging vs. the serial external sort.

With the k-way merge vectorized (:mod:`repro.storage.merge`), the
file-backed merge cascade was the last serial phase of bulk loading: the simulated
disk is a single I/O domain, so ``merge_workers`` only helped resident
runs.  The sharded storage layer (:mod:`repro.parallel.spill`) lifts
that: each cascade group's key range is partitioned, every partition
streams its slices of the run files through a private
:class:`repro.storage.disk.DiskShard`, and the shards reconcile
deterministically.  This benchmark measures the speedup and *asserts*
the contract on every cell:

* merged stream, chunk shapes and ``SortReport`` byte-identical to the
  serial sorter for every worker count;
* reconciled ``DiskStats`` of the pooled run byte-identical to the
  serial replay of the same sharded plan (``pool_kind="serial"``);
* at the headline configuration (>= 200k records, >= 8 runs, spilled)
  the sharded *merge phase* must be >= 2x faster than the serial
  sorter's — **on a host with >= 4 cores**.  On fewer cores the gate
  stays disarmed and the sweep honestly reports ~1x (or slightly
  below: coordination is not free): range partitioning cannot conjure
  parallelism out of one core.

Any equivalence violation raises, which is what CI's tiny smoke
configuration is for.  Run standalone with::

    PYTHONPATH=src python benchmarks/bench_spilled_merge.py \
        [--records N ...] [--runs K ...] [--workers W ...] [--json PATH]
"""

import argparse
import json
import os
import sys

from repro.bench import print_experiment
from repro.bench.harness import run_spilled_merge_sweep

#: Headline configuration the >= 2x gate applies to.
GATE_RECORDS = 200_000
GATE_RUNS = 8
GATE_SPEEDUP = 2.0
GATE_MIN_CORES = 4


def check(rows: list) -> None:
    """Assert the equivalence contract and the headline speedup gate."""
    for row in rows:
        assert row["identical"], f"stream-equivalence violation: {row}"
        assert row["io_deterministic"], f"replay-determinism violation: {row}"
    cores = os.cpu_count() or 1
    if cores < GATE_MIN_CORES:
        return
    gated = [
        row
        for row in rows
        if row["spilled"]
        and row["records"] >= GATE_RECORDS
        and row["runs"] >= GATE_RUNS
        and row["workers"] >= GATE_MIN_CORES
    ]
    for row in gated:
        assert row["merge_speedup"] >= GATE_SPEEDUP, (
            f"expected >= {GATE_SPEEDUP}x over the serial spilled merge at "
            f"{row['records']} records / {row['runs']} runs / "
            f"{row['workers']} workers on {cores} cores, "
            f"got {row['merge_speedup']:.2f}x"
        )


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--records", type=int, nargs="+",
                        default=[50_000, GATE_RECORDS])
    parser.add_argument("--runs", type=int, nargs="+", default=[GATE_RUNS, 24])
    parser.add_argument("--workers", type=int, nargs="+", default=[2, 4])
    parser.add_argument(
        "--payload-dims", type=int, default=16,
        help="float32 payload columns per record (0 = int64 offsets)",
    )
    parser.add_argument("--dup-alphabet", type=int, default=0)
    parser.add_argument("--memory-fraction", type=float, default=1 / 8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", default="",
        help="write rows as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv[1:])
    rows = run_spilled_merge_sweep(
        args.records,
        args.runs,
        workers_list=args.workers,
        seed=args.seed,
        dup_alphabet=args.dup_alphabet,
        payload_dims=args.payload_dims,
        memory_fraction=args.memory_fraction,
    )
    print_experiment(
        "sharded spilled-run merging (serial vs replay vs thread pool)", rows
    )
    check(rows)
    if args.json:
        payload = json.dumps(
            {
                "benchmark": "spilled_merge",
                "config": {
                    "records": args.records,
                    "runs": args.runs,
                    "workers": args.workers,
                    "payload_dims": args.payload_dims,
                    "dup_alphabet": args.dup_alphabet,
                    "memory_fraction": args.memory_fraction,
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


def bench_spilled_merge(benchmark):
    """pytest-benchmark entry point (tiny, correctness-focused)."""
    rows = benchmark.pedantic(
        run_spilled_merge_sweep,
        args=([20_000], [8], [2]),
        rounds=1,
        iterations=1,
    )
    check(rows)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
