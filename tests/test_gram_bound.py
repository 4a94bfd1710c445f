"""The Gram-form distance bound and the engines that trust it.

``euclidean_lower_bounds`` may only drop a row whose exact distance is
above the threshold, so the property is rigorous — bound <=
``euclidean_batch`` for every row, in both storage dtypes, at every
scale — and the engines must answer, count and order ties exactly as
they do with the bound switched off.
"""

import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import knn as knn_module
from repro.core import sims as sims_module
from repro.core.sims import BOUND_MIN_ELEMENTS, rows_that_can_win, sims_scan
from repro.core.summary_column import WordColumn
from repro.parallel.batch import batched_exact_knn
from repro.series import (
    euclidean_batch,
    euclidean_lower_bounds,
    make_dataset,
    query_workload,
)
from repro.series import distance as distance_module
from repro.summaries import SAXConfig, sax_words

KINDS = ["random", "equal", "near", "constant", "nonfinite", "empty"]


def _block(kind, rng, query, n_rows, scale):
    length = len(query)
    if kind == "random":
        return rng.standard_normal((n_rows, length)) * scale
    if kind == "equal":
        return np.tile(query, (n_rows, 1))
    if kind == "near":
        spread = scale * 10.0 ** rng.uniform(-9, -2, size=(n_rows, 1))
        return query + rng.standard_normal((n_rows, length)) * spread
    if kind == "constant":
        return np.repeat(rng.standard_normal((n_rows, 1)) * scale, length, axis=1)
    if kind == "nonfinite":
        block = rng.standard_normal((n_rows, length)) * scale
        hit = rng.integers(0, n_rows, size=max(1, n_rows // 2))
        where = rng.integers(0, length, size=len(hit))
        block[hit, where] = rng.choice([np.nan, np.inf, -np.inf], size=len(hit))
        return block
    return np.empty((0, length))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@settings(max_examples=40, deadline=None)
@given(
    length=st.integers(1, 1000),
    n_rows=st.integers(1, 24),
    scale_exp=st.floats(-3, 5),
    constant_query=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_gram_bound_never_exceeds_the_exact_distance(
    kind, dtype, length, n_rows, scale_exp, constant_query, seed
):
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exp
    if constant_query:
        query = np.full(length, rng.standard_normal() * scale)
    else:
        query = rng.standard_normal(length) * scale
    block = _block(kind, rng, query, n_rows, scale).astype(dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        exact = euclidean_batch(query, block)
    bounds = euclidean_lower_bounds(query, block)
    assert bounds.shape == (len(block),) and bounds.dtype == np.float64
    finite = np.isfinite(block).all(axis=1)
    assert np.all(bounds[finite] <= exact[finite])
    # A NaN / inf row is kept under any threshold.
    assert np.all(bounds[~finite] == 0.0)


def test_gram_bound_is_tight_on_stored_series():
    """The slack is worst-case, yet the median bound ÷ distance is
    0.99994 on float32 series of length 256."""
    data = make_dataset("seismic", 400, length=256, seed=3)
    query = query_workload("seismic", 1, length=256, seed=3)[0].astype(np.float64)
    ratio = euclidean_lower_bounds(query, data) / euclidean_batch(query, data)
    assert np.all(ratio <= 1.0)
    assert np.median(ratio) > 0.99993


@pytest.mark.parametrize("dtype", [np.int16, np.float16])
def test_gram_bound_refuses_other_dtypes(dtype):
    """The slack is derived for float32 and float64, the dtypes a fetch
    returns; anything else is refused rather than cast."""
    with pytest.raises(ValueError, match="float32 or float64"):
        euclidean_lower_bounds(np.zeros(4), np.zeros((2, 4), dtype=dtype))


def _blas_calls(nodes):
    """``@``, a BLAS-backed numpy call, or an einsum ``optimize`` (which
    may dispatch to BLAS) among ``nodes``."""
    banned = {"dot", "vdot", "matmul", "inner", "tensordot", "outer"}
    return [
        node
        for node in nodes
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        or (isinstance(node, ast.Attribute) and node.attr in banned)
        or (isinstance(node, ast.keyword) and node.arg == "optimize")
    ]


def _walk(statements):
    return [node for statement in statements for node in ast.walk(statement)]


def test_gram_bound_makes_no_blas_call():
    """One query's bound makes no BLAS call: a lone matrix-vector
    product is too small to repay an unpinned multi-threaded BLAS, and
    library callers do not pin threads.  A query block's products are
    one GEMM, and the kernel's only BLAS call is that ``@`` in the
    branch a 2-D query block takes."""
    tree = ast.parse(inspect.getsource(distance_module.euclidean_lower_bounds))

    def tests_one_query(test):
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Attribute)
            and test.left.attr == "ndim"
            and isinstance(test.ops[0], ast.Eq)
            and getattr(test.comparators[0], "value", None) == 1
        )

    (branch,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and tests_one_query(node.test)
    ]
    assert not _blas_calls(_walk(branch.body))
    (gemm,) = _blas_calls(ast.walk(tree))
    assert isinstance(gemm, ast.BinOp) and isinstance(gemm.op, ast.MatMult)
    assert any(node is gemm for node in _walk(branch.orelse))
    # Both branches run: one query returns (N,), a query block (Q, N).
    rng = np.random.default_rng(2)
    block = rng.standard_normal((6, 8)).astype(np.float32)
    queries = rng.standard_normal((3, 8))
    assert euclidean_lower_bounds(queries[0], block).shape == (6,)
    assert euclidean_lower_bounds(queries, block).shape == (3, 6)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@settings(max_examples=40, deadline=None)
@given(
    n_queries=st.integers(2, 8),
    length=st.integers(1, 1000),
    n_rows=st.integers(1, 24),
    scale_exp=st.floats(-3, 5),
    constant_query=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_a_query_block_bound_never_exceeds_the_exact_distance(
    kind, dtype, n_queries, length, n_rows, scale_exp, constant_query, seed
):
    """The ``(Q, N)`` bound of a query block: every value is ``<=``
    ``euclidean_batch`` for its own query and row, non-finite rows get
    0, and the shape is ``(Q, N)``, the empty block included.  The
    block is built around the first query, and one query may be a
    stored row, so equal and near rows meet several queries.

    Against the 1-D call of each query, the GEMM only reorders the
    sums of the products: each errs by at most ``γ_n·‖x‖‖q̃‖``, so the
    squared bounds differ by at most ``4γ_n·‖x‖‖q̃‖ <= 2γ_n(‖x‖ + ‖q̃‖)²``
    with room for the float64 roundings."""
    rng = np.random.default_rng(seed)
    scale = 10.0**scale_exp
    queries = rng.standard_normal((n_queries, length)) * scale
    if constant_query:
        queries[0] = rng.standard_normal() * scale
    block = _block(kind, rng, queries[0], n_rows, scale).astype(dtype)
    finite = np.isfinite(block).all(axis=1)
    if finite.any() and rng.random() < 0.5:
        queries[-1] = block[np.flatnonzero(finite)[0]]
    bounds = euclidean_lower_bounds(queries, block)
    assert bounds.shape == (n_queries, len(block)) and bounds.dtype == np.float64
    unit = float(np.finfo(dtype).eps) / 2
    gamma = length * unit / (1 - length * unit)
    with np.errstate(invalid="ignore", over="ignore"):
        row_norms = np.sqrt(np.sum(block.astype(np.float64) ** 2, axis=1))
    for query, query_bounds in zip(queries, bounds):
        with np.errstate(invalid="ignore", over="ignore"):
            exact = euclidean_batch(query, block)
        assert np.all(query_bounds[finite] <= exact[finite])
        assert np.all(query_bounds[~finite] == 0.0)
        alone = euclidean_lower_bounds(query, block)
        query_norm = np.linalg.norm(query.astype(dtype).astype(np.float64))
        spread = 2 * gamma * (row_norms[finite] + query_norm) ** 2
        gap = np.abs(query_bounds[finite] ** 2 - alone[finite] ** 2)
        assert np.all(gap <= spread)


# ------------------------------------------------------------ engines
CONFIG = SAXConfig(series_length=256, word_length=16, cardinality=256)


def _corpus(n=1200, seed=4):
    """Unprunable data with exact duplicates, so ties are exercised."""
    data = make_dataset("seismic", n, length=256, seed=seed)
    data[n // 2 : n // 2 + 40] = data[:40]
    column = WordColumn(CONFIG, sax_words(data, CONFIG))
    queries = query_workload("seismic", 4, length=256, seed=seed).astype(np.float64)
    queries[0] = data[7]  # a query with a zero-distance answer and its twin

    def fetch(positions):
        return data[positions], np.asarray(positions)

    return data, column, queries, fetch


@pytest.fixture
def kernel_rows(monkeypatch):
    """Rows the engine hands the exact kernel, per call."""
    seen = []
    real = distance_module.early_abandon_euclidean_block

    def counting(query, block, best_so_far):
        seen.append(len(block))
        return real(query, block, best_so_far)

    monkeypatch.setattr(knn_module, "early_abandon_euclidean_block", counting)
    return seen


def _bound_off(monkeypatch):
    monkeypatch.setattr(sims_module, "BOUND_MIN_ELEMENTS", 1 << 62)


def _run_both(monkeypatch, kernel_rows, run):
    kernel_rows.clear()
    with_bound = run()
    rows_with = sum(kernel_rows)
    kernel_rows.clear()
    with monkeypatch.context() as patch:
        _bound_off(patch)
        without = run()
    rows_without = sum(kernel_rows)
    return with_bound, without, rows_with, rows_without


@pytest.mark.parametrize("block_records", [256, 4096])
@pytest.mark.parametrize("seeded", [False, True])
def test_sims_scan_answers_as_without_the_bound(
    monkeypatch, kernel_rows, block_records, seeded
):
    data, column, queries, fetch = _corpus()
    into_kernel = np.zeros(2, dtype=np.int64)
    for query in queries:
        seed = (
            dict(initial_bsf=float(euclidean_batch(query, data[100:101])[0]),
                 initial_answer=100)
            if seeded else {}
        )
        a, b, rows_a, rows_b = _run_both(
            monkeypatch,
            kernel_rows,
            lambda: sims_scan(
                query, column, CONFIG, fetch, block_records=block_records, **seed
            ),
        )
        assert (a.answer_idx, a.visited_records, a.pruned_fraction) == (
            b.answer_idx, b.visited_records, b.pruned_fraction
        )
        assert np.float64(a.distance).tobytes() == np.float64(b.distance).tobytes()
        into_kernel += (rows_a, rows_b)
    # An unseeded scan is primed from its 64 lowest-bound rows, so even
    # its one-block walk has a finite threshold to bound against.
    assert into_kernel[0] < into_kernel[1] / 1.5


@pytest.mark.parametrize("k", [1, 3, 50])
def test_one_query_engine_call_answers_as_without_the_bound(monkeypatch, kernel_rows, k):
    data, column, queries, fetch = _corpus()
    for query in queries:
        distances = euclidean_batch(query, data[200:203])
        seeds = [(float(d), 200 + i) for i, d in enumerate(distances)]
        a, b, rows_a, rows_b = _run_both(
            monkeypatch,
            kernel_rows,
            lambda: batched_exact_knn(
                query[None], k, column, CONFIG, fetch, [seeds], block_records=256,
            )[0],
        )
        assert a.answer_ids == b.answer_ids
        assert np.array(a.distances).tobytes() == np.array(b.distances).tobytes()
        assert (a.visited_records, a.pruned_fraction) == (
            b.visited_records, b.pruned_fraction
        )
        assert rows_a < rows_b


@pytest.mark.parametrize("k", [1, 3])
def test_batched_exact_knn_answers_as_without_the_bound(
    monkeypatch, kernel_rows, k
):
    data, column, queries, fetch = _corpus()
    seeds = [
        [(float(euclidean_batch(q, data[300:301])[0]), 300)] for q in queries
    ]
    a, b, rows_a, rows_b = _run_both(
        monkeypatch,
        kernel_rows,
        lambda: batched_exact_knn(
            queries, k, column, CONFIG, fetch, seeds, block_records=512
        ),
    )
    for one, other in zip(a, b):
        assert one.answer_ids == other.answer_ids
        assert np.array(one.distances).tobytes() == np.array(other.distances).tobytes()
        assert one.visited_records == other.visited_records
    assert rows_a < rows_b


def test_small_blocks_and_open_thresholds_take_the_old_path():
    """Below the cutoff (a served exact block, ~163 x 128) or at an
    infinite threshold no bound is computed and ``rows`` come back as
    the same object."""
    rng = np.random.default_rng(8)
    query = rng.standard_normal(128)
    small = rng.standard_normal((163, 128)).astype(np.float32)
    rows = np.arange(163)
    assert 163 * 128 < BOUND_MIN_ELEMENTS
    assert rows_that_can_win(query, small, rows, 1.0) is rows
    large = rng.standard_normal((512, 128)).astype(np.float32)
    rows = np.arange(512)
    assert rows_that_can_win(query, large, rows, float("inf")) is rows
    kept = rows_that_can_win(query, large, rows, 15.0)
    exact = euclidean_batch(query, large)
    assert set(np.nonzero(exact <= 15.0)[0]) <= set(kept)
    assert len(kept) < len(rows)



@pytest.mark.parametrize("k", [10, 100])
def test_a_short_heap_bounds_its_first_block_at_the_threshold_it_reaches(
    monkeypatch, kernel_rows, k
):
    """Both kNN engines, one seed per heap, one block at an infinite
    threshold.  k = 10: the prime pass reaches a finite threshold on
    the heap's 64 lowest-bound rows before the block is walked, and the
    Gram bound drops most rows against it.  k = 100 is above
    ``REFINE_FIRST_ROWS``, so the heap is not primed, the block is
    refined at ``inf`` and nothing is bounded."""
    data, column, queries, fetch = _corpus()
    assert len(data) < 4096  # the first block is the whole corpus
    seeds = [
        [(float(euclidean_batch(q, data[300:301])[0]), 300)] for q in queries
    ]

    def run():
        scans = [
            batched_exact_knn(
                query[None], k, column, CONFIG, fetch, [query_seeds],
                block_records=4096,
            )[0]
            for query, query_seeds in zip(queries, seeds)
        ]
        return scans + batched_exact_knn(
            queries, k, column, CONFIG, fetch, seeds, block_records=4096
        )

    a, b, rows_a, rows_b = _run_both(monkeypatch, kernel_rows, run)
    for one, other in zip(a, b):
        assert one.answer_ids == other.answer_ids
        assert np.array(one.distances).tobytes() == np.array(other.distances).tobytes()
        assert (one.visited_records, one.pruned_fraction) == (
            other.visited_records, other.pruned_fraction
        )
    if k <= knn_module.REFINE_FIRST_ROWS:
        assert rows_a < rows_b / 4
    else:
        assert rows_a == rows_b
