"""Integrity layer: verified-read overhead + scrub/repair smoke.

The integrity PR adds a per-page CRC sidecar recorded at write time
and a ``verified_reads`` mode that hashes every page view against it
on the way up (``docs/robustness.md``).  Detection must be cheap
enough to leave on in production, and repair must be exact — this
benchmark measures and *asserts* both contracts:

* ``overhead`` cells run the headline skip-sequential gather
  unverified vs ``verified_reads=True``; fetched records, classified
  ``DiskStats`` and head positions must be bit-identical (the harness
  raises on any violation);
* at the headline configuration (>= 200k series) verified reads must
  cost **<= 10%** wall clock, **on a host with >= 4 cores**
  (small/noisy CI boxes stay ungated and report honest numbers);
* ``scrub`` cells run seeded decay + sweep cycles; every cell asserts
  the sweep detects **exactly** the injected pages (detected ==
  injected), repairs them all, and answers never move.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_scrub.py \
        [--n N ...] [--headline-n N] [--fetch-fraction F] \
        [--repeats R] [--scrub-seeds S] [--json PATH]
"""

import argparse
import json
import os
import sys

from repro.bench import print_experiment
from repro.bench.harness import run_scrub_sweep

#: Headline configuration the <= 10% verified-read gate applies to.
GATE_SERIES = 200_000
GATE_OVERHEAD = 1.10
GATE_MIN_CORES = 4

COLUMNS = [
    "workload", "n_series", "cores",
    "plain_s", "verified_s", "overhead", "identical", "io_identical",
]


def check(rows: list) -> None:
    """Assert the equivalence contract and the headline overhead gate."""
    for row in rows:
        assert row["identical"], f"answer-equivalence violation: {row}"
        assert row["io_identical"], f"I/O-equivalence violation: {row}"
    scrubs = [row for row in rows if row["workload"] == "scrub"]
    assert scrubs, "no scrub cells ran"
    for row in scrubs:
        assert row["detected"] == row["injected"], (
            f"scrub accounting violation: detected {row['detected']} of "
            f"{row['injected']} injected pages in {row}"
        )
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
            f"expected verified reads to cost <= "
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
    parser.add_argument("--scrub-seeds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--json", default="",
        help="write rows as JSON to this path ('-' for stdout)",
    )
    args = parser.parse_args(argv[1:])
    n_list = list(args.n)
    if args.headline_n and args.headline_n not in n_list:
        n_list.append(args.headline_n)
    rows = run_scrub_sweep(
        n_list,
        length=args.length,
        fetch_fraction=args.fetch_fraction,
        seed=args.seed,
        repeats=args.repeats,
        scrub_seeds=args.scrub_seeds,
    )
    print_experiment(
        "integrity: verified-read overhead + scrub/repair smoke",
        rows,
        columns=COLUMNS,
    )
    check(rows)
    if args.json:
        payload = json.dumps(
            {
                "benchmark": "integrity_scrub",
                "config": {
                    "n_series": n_list,
                    "length": args.length,
                    "fetch_fraction": args.fetch_fraction,
                    "headline_n": args.headline_n,
                    "repeats": args.repeats,
                    "scrub_seeds": args.scrub_seeds,
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


def bench_scrub(benchmark):
    """pytest-benchmark entry point (tiny, correctness-focused)."""
    rows = benchmark.pedantic(
        run_scrub_sweep,
        args=([4_000],),
        kwargs={"length": 32, "repeats": 1, "scrub_seeds": 1},
        rounds=1,
        iterations=1,
    )
    check(rows)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
