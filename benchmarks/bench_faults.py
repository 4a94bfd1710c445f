"""Fault-injection layer: disabled-hook overhead + recovery smoke.

The robustness PR threads a ``FaultyDevice`` seam under every disk,
shard and pool so tests can inject transient/permanent errors,
torn writes, bit flips and crashes deterministically
(``docs/robustness.md``).  Production deployments keep the wrapper
with ``plan=None`` — a pure forwarder — so the seam must be close to
free.  This benchmark measures and *asserts* that contract:

* ``overhead`` cells run the headline skip-sequential gather bare vs
  through ``FaultyDevice(plan=None)``; fetched records, classified
  ``DiskStats`` and head positions must be bit-identical (the harness
  raises on any violation);
* at the headline configuration (>= 200k series, the regime where the
  gather itself is cheap and per-op dispatch would show) the
  disabled hook must cost **< 5%** wall clock, **on a host with >= 4
  cores** (small/noisy CI boxes stay ungated and report honest
  numbers);
* ``recovery`` cells run seeded crash/recover cycles; the recovered
  index must answer exactly like a fault-free oracle rebuilt from the
  acknowledged batches.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_faults.py \
        [--n N ...] [--headline-n N] [--fetch-fraction F] \
        [--repeats R] [--recovery-seeds S] [--json PATH]
"""

import argparse
import json
import os
import sys

from repro.bench import print_experiment
from repro.bench.harness import run_fault_overhead_sweep

#: Headline configuration the < 5% disabled-hook gate applies to.
GATE_SERIES = 200_000
GATE_OVERHEAD = 1.05
GATE_MIN_CORES = 4

COLUMNS = [
    "workload", "n_series", "cores",
    "bare_s", "hooked_s", "overhead", "identical", "io_identical",
]


def check(rows: list) -> None:
    """Assert the equivalence contract and the headline overhead gate."""
    for row in rows:
        assert row["identical"], f"answer-equivalence violation: {row}"
        assert row["io_identical"], f"I/O-equivalence violation: {row}"
    recoveries = [row for row in rows if row["workload"] == "recovery"]
    assert recoveries, "no recovery cells ran"
    cores = os.cpu_count() or 1
    if cores < GATE_MIN_CORES:
        return
    gated = [
        row
        for row in rows
        if row["workload"] == "overhead" and row["n_series"] >= GATE_SERIES
    ]
    for row in gated:
        assert row["overhead"] <= GATE_OVERHEAD, (
            f"expected the disabled fault hook to cost < "
            f"{(GATE_OVERHEAD - 1) * 100:.0f}% "
            f"at {row['n_series']} series on {cores} cores, got "
            f"{(row['overhead'] - 1) * 100:.1f}%"
        )


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[50_000])
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--fetch-fraction", type=float, default=0.3)
    parser.add_argument("--headline-n", type=int, default=GATE_SERIES,
                        help="series count of the gated headline cell "
                             "(0 disables the headline sweep)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--recovery-seeds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", default="",
        help="write rows as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv[1:])
    n_list = list(args.n)
    if args.headline_n and args.headline_n not in n_list:
        n_list.append(args.headline_n)
    rows = run_fault_overhead_sweep(
        n_list,
        length=args.length,
        fetch_fraction=args.fetch_fraction,
        seed=args.seed,
        repeats=args.repeats,
        recovery_seeds=args.recovery_seeds,
    )
    print_experiment(
        "fault layer: disabled-hook overhead + recovery smoke",
        rows,
        columns=COLUMNS,
    )
    check(rows)
    if args.json:
        payload = json.dumps(
            {
                "benchmark": "fault_layer_overhead",
                "config": {
                    "n_series": n_list,
                    "length": args.length,
                    "fetch_fraction": args.fetch_fraction,
                    "headline_n": args.headline_n,
                    "repeats": args.repeats,
                    "recovery_seeds": args.recovery_seeds,
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


def bench_faults(benchmark):
    """pytest-benchmark entry point (tiny, correctness-focused)."""
    rows = benchmark.pedantic(
        run_fault_overhead_sweep,
        args=([4_000],),
        kwargs={"length": 32, "repeats": 1, "recovery_seeds": 1},
        rounds=1,
        iterations=1,
    )
    check(rows)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
