"""The one worker pool: threads, or the same plan mapped inline.

Every parallel path in the repository — the query engines' scan and
fetch partitions — asks this module for its pool.  ``"thread"`` runs
the work units on a ``ThreadPoolExecutor``: they are NumPy kernels
that release the GIL and share their arrays (and the simulated device)
zero-copy.  ``"serial"`` is not a second engine but the same partition
plan mapped on the calling thread, the replay reference the
equivalence suites pin the threaded runs to.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor

#: The values every ``pool_kind`` / ``kind`` / ``query_pool_kind`` takes.
POOL_KINDS = ("thread", "serial")


def check_pool_kind(kind: str) -> str:
    """Return ``kind`` or raise ``ValueError`` if it is not a pool kind."""
    if kind not in POOL_KINDS:
        raise ValueError(f"pool kind must be one of {POOL_KINDS}, got {kind!r}")
    return kind


def resolve_workers(workers: int | None) -> int:
    """``None`` / ``0`` / negative -> all cores; otherwise ``workers``.

    Anything else that is not a Python or NumPy integer (``bool``,
    ``2.5``, ``"2"``) raises ``ValueError``.
    """
    if workers is not None and (
        isinstance(workers, bool) or not isinstance(workers, numbers.Integral)
    ):
        raise ValueError(f"workers must be an integer or None, got {workers!r}")
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


def pool_map(fn, arg_columns: list, workers: int, kind: str) -> list:
    """``fn`` over the rows of ``arg_columns``, results in row order.

    Inline for one worker or ``kind="serial"``, else on a thread pool of
    ``workers``.  An exception raised by ``fn`` propagates once the pool
    has drained.
    """
    if workers <= 1 or kind == "serial":
        return [fn(*row) for row in zip(*arg_columns)]
    with ThreadPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, *arg_columns))
