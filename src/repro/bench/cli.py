"""Command-line experiment runner: ``python -m repro.bench``.

Runs one of the paper's experiments at an adjustable scale without
going through pytest — handy for exploring parameter regimes beyond
the calibrated benchmark defaults.

Examples::

    python -m repro.bench build --group secondary --n 20000
    python -m repro.bench build --group materialized --memory 1.0 0.1
    python -m repro.bench build --group secondary --workers 4
    python -m repro.bench query --mode exact --dataset seismic
    python -m repro.bench query --batch --k 5 --indexes CTree Serial
    python -m repro.bench query --batch --workers 4
    python -m repro.bench parallel --index CTreeFull --workers 1 2 4
    python -m repro.bench spilled --records 200000 --runs 8 --workers 4
    python -m repro.bench faults --n 50000 --repeats 5
    python -m repro.bench scrub --n 50000 --scrub-seeds 4
    python -m repro.bench space --n 15000
    python -m repro.bench updates --batches 100 1000

Choosing ``--workers``: pool threads pay a per-chunk hand-off, so
parallel building pays off once the dataset has at least a few tens of
thousands of series; use one worker per physical core.
``--batch`` answers the whole query workload in one shared pass —
always at least as good as per-query on I/O, and most effective on
exact search where the summary scan dominates.  ``query --batch
--workers N`` additionally runs that shared pass on the multi-worker
engine (range-partitioned lower bounds, shard-parallel fetches) with
identical answers; the speedup needs idle cores.

Each subcommand is one :class:`_Command` row in :data:`COMMANDS` —
adding an experiment means adding one row, not editing the parser and
the dispatcher separately.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Optional

from .harness import (
    MATERIALIZED_GROUP,
    SECONDARY_GROUP,
    run_batch_query_experiment,
    run_build_sweep,
    run_fault_overhead_sweep,
    run_parallel_build_sweep,
    run_query_experiment,
    run_scrub_sweep,
    run_serve_sweep,
    run_spilled_merge_sweep,
    run_update_workload,
)
from .report import print_experiment
from .workloads import DatasetSpec


@dataclass(frozen=True)
class _Command:
    """One ``python -m repro.bench <name>`` subcommand."""

    name: str
    help: str
    configure: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, Optional[DatasetSpec]], None]
    #: Whether the command takes the shared dataset arguments (and so
    #: gets a :class:`DatasetSpec` built from them).
    needs_dataset: bool = True
    #: Optional cross-argument validation; call ``parser.error`` on
    #: bad combinations.
    validate: Optional[
        Callable[[argparse.ArgumentParser, argparse.Namespace], None]
    ] = None


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="randomwalk",
        choices=["randomwalk", "seismic", "astronomy"],
    )
    parser.add_argument("--n", type=int, default=10_000, help="series count")
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument("--seed", type=int, default=7)


# ------------------------------------------------------------------ build
def _configure_build(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--group", default="secondary", choices=["secondary", "materialized"]
    )
    parser.add_argument(
        "--memory", type=float, nargs="+", default=[1.0, 0.05, 0.01],
        help="memory budgets as fractions of the dataset size",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="pool workers for parallel bulk-loading (Coconut indexes)",
    )


def _run_build(args: argparse.Namespace, spec: DatasetSpec) -> None:
    group = SECONDARY_GROUP if args.group == "secondary" else MATERIALIZED_GROUP
    rows = run_build_sweep(group, spec, args.memory, workers=args.workers)
    print_experiment(f"construction sweep ({args.group})", rows)


# ------------------------------------------------------------------ query
def _configure_query(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode", default="exact", choices=["exact", "approximate"]
    )
    parser.add_argument("--queries", type=int, default=20)
    parser.add_argument(
        "--indexes", nargs="+",
        default=["CTree", "CTreeFull", "ADS+", "ADSFull"],
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="answer the workload as one QueryBatch and compare with per-query",
    )
    parser.add_argument(
        "--k", type=int, default=1, help="neighbors per query (batch mode)"
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker count for the multi-worker batched engine "
        "(requires --batch; answers stay identical, speedup needs cores)",
    )


def _validate_query(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    if args.batch and args.mode != "exact":
        parser.error("--batch compares exact search only; drop --mode")
    if not args.batch and args.k != 1:
        parser.error("--k only applies to the batched experiment; add --batch")
    if not args.batch and args.workers != 1:
        parser.error("--workers parallelizes the batched engine; add --batch")


def _run_query(args: argparse.Namespace, spec: DatasetSpec) -> None:
    if args.batch:
        rows = run_batch_query_experiment(
            args.indexes, spec, args.queries, k=args.k,
            query_workers=args.workers,
        )
        print_experiment("batched vs per-query exact search", rows)
    else:
        rows = run_query_experiment(
            args.indexes, spec, args.queries, mode=args.mode
        )
        print_experiment(f"{args.mode} query costs", rows)


# --------------------------------------------------------------- parallel
def _configure_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--index", default="CTreeFull")
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="worker counts to sweep (put 1 first for the baseline)",
    )


def _run_parallel(args: argparse.Namespace, spec: DatasetSpec) -> None:
    rows = run_parallel_build_sweep(args.index, spec, args.workers)
    print_experiment("parallel build scaling", rows)


# ---------------------------------------------------------------- spilled
def _configure_spilled(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--records", type=int, nargs="+", default=[200_000],
        help="total records per merge cell (budget forces a spill)",
    )
    parser.add_argument(
        "--runs", type=int, nargs="+", default=[8],
        help="presorted run counts to spill and merge",
    )
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[2, 4],
        help="partition/worker counts for the sharded cascade",
    )
    parser.add_argument(
        "--payload-dims", type=int, default=16,
        help="float32 payload columns per record (0 = int64 offsets)",
    )
    parser.add_argument("--dup-alphabet", type=int, default=0)
    parser.add_argument("--seed", type=int, default=7)


def _run_spilled(args: argparse.Namespace, spec: None) -> None:
    rows = run_spilled_merge_sweep(
        args.records,
        args.runs,
        workers_list=args.workers,
        seed=args.seed,
        dup_alphabet=args.dup_alphabet,
        payload_dims=args.payload_dims,
    )
    print_experiment("sharded spilled-run merging", rows)


# ----------------------------------------------------------------- faults
def _configure_faults(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n", type=int, nargs="+", default=[50_000],
        help="series counts for the disabled-hook overhead cells",
    )
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument(
        "--fetch-fraction", type=float, default=0.3,
        help="fraction of records the gather visits",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per cell (best-of)",
    )
    parser.add_argument(
        "--recovery-seeds", type=int, default=4,
        help="seeded crash/recover schedules",
    )
    parser.add_argument("--seed", type=int, default=7)


def _run_faults(args: argparse.Namespace, spec: None) -> None:
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
        columns=[
            "workload", "n_series", "cores",
            "bare_s", "hooked_s", "overhead", "identical", "io_identical",
        ],
    )


# ------------------------------------------------------------------ scrub
def _configure_scrub(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n", type=int, nargs="+", default=[50_000],
        help="series counts for the verified-read overhead cells",
    )
    parser.add_argument("--length", type=int, default=128)
    parser.add_argument(
        "--fetch-fraction", type=float, default=0.3,
        help="fraction of records the gather visits",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repeats per cell (best-of)",
    )
    parser.add_argument(
        "--scrub-seeds", type=int, default=4,
        help="seeded decay + sweep schedules",
    )
    parser.add_argument("--seed", type=int, default=7)


def _run_scrub(args: argparse.Namespace, spec: None) -> None:
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
        columns=[
            "workload", "n_series", "cores",
            "plain_s", "verified_s", "overhead", "identical", "io_identical",
        ],
    )


# ------------------------------------------------------------------ space
def _run_space(args: argparse.Namespace, spec: DatasetSpec) -> None:
    rows = run_build_sweep(MATERIALIZED_GROUP + SECONDARY_GROUP, spec, [0.25])
    print_experiment(
        "space overhead",
        rows,
        columns=["index", "index_MB", "n_leaves", "leaf_fill"],
    )


# ---------------------------------------------------------------- updates
def _configure_updates(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batches", type=int, nargs="+", default=[50, 500, 4000]
    )
    parser.add_argument("--queries", type=int, default=10)


def _run_updates(args: argparse.Namespace, spec: DatasetSpec) -> None:
    rows = run_update_workload(
        ["CTree", "ADS+"], spec, args.batches, n_queries=args.queries
    )
    print_experiment("mixed insert/query workload", rows)


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--batch-rows", type=int, default=200)
    parser.add_argument("--batches", type=int, default=10)
    parser.add_argument("--k", type=int, default=3)


def _run_serve(args: argparse.Namespace, spec: DatasetSpec) -> None:
    rows = run_serve_sweep(
        spec,
        n_queries=args.queries,
        workers_list=args.workers,
        batch_rows=args.batch_rows,
        n_batches=args.batches,
        k=args.k,
    )
    print_experiment(
        "online service: concurrent ingest + query serving",
        rows,
        columns=[
            "workers", "cores", "n_series", "ingest_rows_per_s",
            "queries_per_s", "p50_ms", "p99_ms", "served", "shed",
            "degraded_batches", "session_conflicts", "identical",
        ],
    )


#: The single registration table every subcommand lives in.
COMMANDS: tuple[_Command, ...] = (
    _Command("build", "construction vs memory sweep",
             _configure_build, _run_build),
    _Command("query", "query cost experiment",
             _configure_query, _run_query, validate=_validate_query),
    _Command("parallel", "build speedup vs worker count",
             _configure_parallel, _run_parallel),
    _Command("spilled",
             "sharded parallel spilled-run merge vs the serial sorter",
             _configure_spilled, _run_spilled, needs_dataset=False),
    _Command("faults",
             "fault-layer overhead (hooks disabled) + crash-recovery smoke",
             _configure_faults, _run_faults, needs_dataset=False),
    _Command("scrub",
             "integrity: verified-read overhead + seeded scrub/repair smoke",
             _configure_scrub, _run_scrub, needs_dataset=False),
    _Command("space", "index size and fill factors",
             lambda parser: None, _run_space),
    _Command("updates", "mixed insert/query workload",
             _configure_updates, _run_updates),
    _Command("serve",
             "online service: concurrent ingest + query serving",
             _configure_serve, _run_serve),
)

_BY_NAME = {command.name: command for command in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run Coconut reproduction experiments from the shell.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command.name, help=command.help)
        if command.needs_dataset:
            _add_dataset_arguments(sub)
        command.configure(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _BY_NAME[args.command]
    if command.validate is not None:
        command.validate(parser, args)
    spec = (
        DatasetSpec(args.dataset, args.n, args.length, args.seed)
        if command.needs_dataset
        else None
    )
    command.run(args, spec)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
