"""Benchmark harness: workloads, experiment runners, table reports."""

from .harness import (
    INDEX_FACTORIES,
    LEAF_SIZE,
    MATERIALIZED_GROUP,
    PAGE_SIZE,
    SECONDARY_GROUP,
    Environment,
    default_config,
    make_environment,
    make_presorted_runs,
    run_batch_query_experiment,
    run_build_sweep,
    run_complete_workload,
    run_length_sweep,
    run_parallel_build_sweep,
    run_query_experiment,
    run_scaling_sweep,
    run_update_workload,
)
from .report import format_table, print_experiment
from .workloads import DatasetSpec, UpdateEvent, mixed_workload

__all__ = [
    "DatasetSpec",
    "Environment",
    "INDEX_FACTORIES",
    "LEAF_SIZE",
    "MATERIALIZED_GROUP",
    "PAGE_SIZE",
    "SECONDARY_GROUP",
    "UpdateEvent",
    "default_config",
    "format_table",
    "make_environment",
    "make_presorted_runs",
    "mixed_workload",
    "print_experiment",
    "run_batch_query_experiment",
    "run_build_sweep",
    "run_complete_workload",
    "run_length_sweep",
    "run_parallel_build_sweep",
    "run_query_experiment",
    "run_scaling_sweep",
    "run_update_workload",
]
