"""Integrity layer: verified-read overhead + scrub/repair smoke.

The integrity layer keeps a per-page CRC sidecar recorded at write
time and a ``verified_reads`` mode that hashes every page view against
it on the way up (``docs/robustness.md``).  Repair must be exact; this
script asserts that contract and reports what detection costs:

* ``overhead`` cells run the headline skip-sequential gather
  unverified vs ``verified_reads=True``; fetched records, classified
  ``DiskStats`` and head positions must be bit-identical (the harness
  raises on any violation), and the wall-clock ratio is reported;
* ``scrub`` cells run seeded decay + sweep cycles; every cell asserts
  the sweep detects **exactly** the injected pages (detected ==
  injected), repairs them all, and answers never move.

Run standalone with::

    PYTHONPATH=src python benchmarks/bench_scrub.py \
        [--n N ...] [--fetch-fraction F] [--repeats R] [--scrub-seeds S]
"""

import argparse
import sys

from repro.bench.harness import run_scrub_sweep
from repro.bench.report import print_experiment

COLUMNS = [
    "workload", "n_series", "cores",
    "plain_s", "verified_s", "overhead", "identical", "io_identical",
]


def check(rows: list) -> None:
    """Assert the equivalence and detection contracts on every cell."""
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


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[50_000])
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--fetch-fraction", type=float, default=0.3)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--scrub-seeds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv[1:])
    rows = run_scrub_sweep(
        args.n,
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
