"""Data series substrate: normalization, distances, generators, windows."""

from .dataseries import EPSILON, is_z_normalized, validate_series_batch, z_normalize
from .distance import (
    dtw,
    early_abandon_euclidean,
    early_abandon_euclidean_block,
    euclidean,
    euclidean_batch,
    euclidean_lower_bounds,
    lb_keogh,
    squared_euclidean,
)
from .generators import (
    GENERATORS,
    astronomy,
    make_dataset,
    query_workload,
    random_walk,
    seismic,
)
from .windows import sliding_windows, window_count

__all__ = [
    "EPSILON",
    "GENERATORS",
    "astronomy",
    "dtw",
    "early_abandon_euclidean",
    "early_abandon_euclidean_block",
    "euclidean",
    "euclidean_batch",
    "euclidean_lower_bounds",
    "is_z_normalized",
    "lb_keogh",
    "make_dataset",
    "query_workload",
    "random_walk",
    "seismic",
    "sliding_windows",
    "squared_euclidean",
    "validate_series_batch",
    "window_count",
    "z_normalize",
]
