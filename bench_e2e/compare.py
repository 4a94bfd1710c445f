"""Compare two result files: ``python3 bench_e2e/compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first set of runs), ``B``
the candidate; both were written by ``run.py --out``.  For every
workload and end-to-end metric the two medians are printed with their
ratio (base ``A``) and a verdict, using the direction and bound that
``BENCHMARK.json`` fixes for the metric:

``regression``  ``B``'s median is worse than ``A``'s by more than the bound.
``unresolved``  the run-to-run spread (distance between the quartiles,
                as a share of the median, of either side) is wider than
                the bound, so "no worse" cannot be told from noise —
                unless every run of ``B`` reads better than every run
                of ``A``.
``ok``          anything else.

Exits non-zero on any regression or when ``B`` failed more operations
than ``A``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spread(entry: dict) -> float:
    if "q1" not in entry or not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["median"])


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(status, worse_by)`` where worse_by is B's loss as a share of A's median."""
    base = a["median"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - base) / abs(base) if base else 0.0
    if worse_by > bound:
        return "regression", worse_by
    if max(_spread(a), _spread(b)) > bound:
        if better == "lower":
            clear_win = max(b["values"]) < min(a["values"])
        else:
            clear_win = min(b["values"]) > max(a["values"])
        if not clear_win:
            return "unresolved", worse_by
    return "ok", worse_by


def compare(spec: dict, a: dict, b: dict, out=sys.stdout) -> int:
    regressions = 0
    header = (
        f"{'workload':<14} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'B/A':>7}  {'bound':>6}  verdict"
    )
    print(header, file=out)
    for workload in spec["workloads"]:
        name = workload["name"]
        side_a = a["end_to_end"].get(name)
        side_b = b["end_to_end"].get(name)
        if side_a is None or side_b is None:
            print(f"{name:<14} missing from {'A' if side_a is None else 'B'}", file=out)
            regressions += 1
            continue
        for metric in spec["end_to_end"]:
            ea = side_a["metrics"][metric["name"]]
            eb = side_b["metrics"][metric["name"]]
            status, _ = verdict(ea, eb, metric["better"], metric["bound"])
            ratio = eb["median"] / ea["median"] if ea["median"] else float("nan")
            print(
                f"{name:<14} {metric['name']:<20} {ea['median']:>12.6g} "
                f"{eb['median']:>12.6g} {ratio:>7.3f}  {metric['bound']:>6.3f}  "
                f"{status} ({ea['unit']}, {metric['better']} is better, base A, "
                f"n={ea['n']}/{eb['n']})",
                file=out,
            )
            regressions += status == "regression"
        share_a = side_a["failed"] / side_a["attempted"]
        share_b = side_b["failed"] / side_b["attempted"]
        rose = share_b > share_a
        print(
            f"{name:<14} {'failed_share':<20} {share_a:>12.6g} {share_b:>12.6g} "
            f"{'':>7}  {'none':>6}  {'regression' if rose else 'ok'}",
            file=out,
        )
        regressions += rose
    print(f"{regressions} regression(s)", file=out)
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base results (run.py --out)")
    parser.add_argument("b", help="candidate results")
    parser.add_argument(
        "--spec", default=os.path.join(ROOT, "BENCHMARK.json"),
        help="metric directions and bounds",
    )
    args = parser.parse_args(argv)
    documents = []
    for path in (args.spec, args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main())
