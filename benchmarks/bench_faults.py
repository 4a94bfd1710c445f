"""Fault-injection layer: disabled-hook overhead + recovery smoke.

The robustness layer threads a ``FaultyDevice`` seam under every disk,
shard and pool so tests can inject transient/permanent errors,
torn writes, bit flips and crashes deterministically
(``docs/robustness.md``).  Production deployments keep the wrapper
with ``plan=None`` — a pure forwarder.  This script asserts that
contract and reports what the seam costs:

* ``overhead`` cells run the headline skip-sequential gather bare vs
  through ``FaultyDevice(plan=None)``; fetched records, classified
  ``DiskStats`` and head positions must be bit-identical (the harness
  raises on any violation), and the wall-clock ratio is reported;
* ``recovery`` cells run seeded crash/recover cycles; the recovered
  index must answer exactly like a fault-free oracle rebuilt from the
  acknowledged batches.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_faults.py \
        [--n N ...] [--fetch-fraction F] [--repeats R] [--recovery-seeds S]
"""

import argparse
import sys

from repro.bench.harness import run_fault_overhead_sweep
from repro.bench.report import print_experiment

COLUMNS = [
    "workload", "n_series", "cores",
    "bare_s", "hooked_s", "overhead", "identical", "io_identical",
]


def check(rows: list) -> None:
    """Assert the equivalence contract on every cell."""
    for row in rows:
        assert row["identical"], f"answer-equivalence violation: {row}"
        assert row["io_identical"], f"I/O-equivalence violation: {row}"
    assert any(row["workload"] == "recovery" for row in rows), "no recovery cells ran"


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[50_000])
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--fetch-fraction", type=float, default=0.3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--recovery-seeds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv[1:])
    rows = run_fault_overhead_sweep(
        args.n,
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
