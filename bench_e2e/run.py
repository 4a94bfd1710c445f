"""Run the pipeline benchmark: ``python3 bench_e2e/run.py --workload all --seed 7``.

One run = one workload, one seed: generate the inputs, drive the public
API through set-up, build, query and serve, check every answer, and
print every metric by name with its unit.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` (default) the metrics are the
end-to-end ones, with ``--trace 1`` / ``--traced`` the per-layer ones
of a separate, traced run.  See README.md beside this file.
"""

from __future__ import annotations

import os
import sys

# Pin the numeric libraries to one thread *before* numpy is imported:
# the benchmark measures the repo's code on one core, not BLAS scaling.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run as a script, sys.path[0] is this directory, where ``trace.py``
# would shadow the standard library's ``trace``: import as a package
# from the checkout root instead, and the program from ``src/``.
if sys.path and os.path.abspath(sys.path[0]) == HERE:
    sys.path.pop(0)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

DEFAULT_SECONDS = 25.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _commit() -> str:
    """HEAD of the checkout, read from ``.git`` (no subprocess); else unknown."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(seed: int, seconds: float) -> dict:
    import numpy

    from bench_e2e.pipeline import SETTINGS

    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "settings": SETTINGS,
    }


def named_metrics(spec: dict, result: dict) -> dict:
    """The run's metrics in the contract's shape: name -> {value, unit}."""
    section, values = (
        ("per_layer", result["layer"]) if result["trace"] else ("end_to_end", result["e2e"])
    )
    metrics = {}
    for entry in spec[section]:
        value = values.get(entry["name"])
        if value is None:
            if section == "end_to_end":
                raise KeyError(f"pipeline did not measure {entry['name']}")
            value = 0.0  # a layer a later change removed (the tracer warned)
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return metrics


def run_once(spec: dict, name: str, seed: int, seconds: float, trace: bool, quick: bool):
    from bench_e2e.pipeline import run_workload
    from bench_e2e.workloads import WORKLOADS

    workload = WORKLOADS[name].quick() if quick else WORKLOADS[name]
    t0 = time.perf_counter()
    result = run_workload(workload, seed, seconds, trace)
    result["wall_s"] = time.perf_counter() - t0
    result["metrics"] = named_metrics(spec, result)
    return result


def print_result(result: dict) -> None:
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end"
    print(
        f"== {result['workload']}  seed={result['seed']}  {kind}  "
        f"wall={result['wall_s']:.1f}s  attempted={result['attempted']}  "
        f"failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    for note in result["notes"]:
        print(f"  FAILED: {note}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        ),
        flush=True,
    )


def summarize(results: list[dict]) -> dict:
    """Per workload and metric: unit, n, median, quartiles and every value."""
    out: dict = {}
    for result in results:
        workload = out.setdefault(
            result["workload"], {"attempted": 0, "failed": 0, "metrics": {}}
        )
        workload["attempted"] += result["attempted"]
        workload["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            entry = workload["metrics"].setdefault(
                name, {"unit": metric["unit"], "values": []}
            )
            entry["values"].append(metric["value"])
    for workload in out.values():
        for entry in workload["metrics"].values():
            values = entry["values"]
            entry["n"] = len(values)
            entry["median"] = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["q1"], entry["q3"] = q1, q3
    return out


def run_child(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run in a process of its own (as the driver runs it); echoes its output."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=name, trace=trace)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="time budget of the measured rounds of one run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true", help="test scale (N = 2000)")
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, each in a process of its own (for --out)",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="--repeat untraced runs plus one traced run per workload",
    )
    parser.add_argument("--out", help="write medians, quartiles and values as JSON")
    parser.add_argument("--history", help="append one JSON line of medians")
    args = parser.parse_args(argv)

    spec = load_spec()
    from bench_e2e.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
    trace = bool(args.trace or args.traced)
    plan = [(False, args.repeat), (True, 1)] if args.baseline else [(trace, args.repeat)]
    in_process = len(names) == 1 and plan == [(trace, 1)]

    results = []
    for name in names:
        for with_trace, repeat in plan:
            for _ in range(repeat):
                if in_process:
                    result = run_once(
                        spec, name, args.seed, args.seconds, with_trace, args.quick
                    )
                    print_result(result)
                else:
                    result = run_child(
                        name, args.seed, args.seconds, with_trace, args.quick
                    )
                results.append(result)

    if args.out or args.history:
        document = environment(args.seed, args.seconds)
        document["quick"] = args.quick
        document["end_to_end"] = summarize([r for r in results if not r["trace"]])
        document["per_layer"] = summarize([r for r in results if r["trace"]])
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
        if args.history:
            line = {
                key: document[key]
                for key in ("commit", "nproc", "python", "numpy", "seed", "seconds", "quick")
            }
            line["failed"] = sum(result["failed"] for result in results)
            line["end_to_end"] = {
                workload: {
                    name: entry["median"] for name, entry in body["metrics"].items()
                }
                for workload, body in document["end_to_end"].items()
            }
            with open(args.history, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(line, sort_keys=True) + "\n")
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
