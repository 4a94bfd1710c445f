"""Distance functions for data series.

Euclidean distance is the paper's metric (Sec. 2): on z-normalized
series it is equivalent to maximizing Pearson correlation, and its
error rate converges to DTW's as datasets grow.  DTW and the LB_Keogh
lower bound are included as the modification the paper notes can be
applied to make the indexes DTW-compatible.
"""

from __future__ import annotations

import numpy as np


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def squared_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance (avoids the sqrt for comparisons)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum((a - b) ** 2))


def _check_rows(query: np.ndarray, batch: np.ndarray) -> None:
    """Refuse anything but a 1-D query and a 2-D batch of its length."""
    if query.ndim != 1 or batch.ndim != 2 or batch.shape[1] != query.shape[0]:
        raise ValueError(f"shape mismatch: {batch.shape} vs {query.shape}")


#: Bytes of float64 scratch per tile of :func:`euclidean_batch`: stays
#: L2-resident across the subtract, the square and the row sums, and
#: below the size at which every fresh temporary costs an mmap.
TILE_BYTES = 256 * 1024


def euclidean_batch(query: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Euclidean distances from one query to every row of a batch.

    ``sqrt(sum((batch - query) ** 2, axis=1))`` evaluated tile by tile
    into one reused float64 scratch of at most :data:`TILE_BYTES`, so
    the pass allocates the scratch and the output and nothing else; a
    float32 (or integer) batch is cast inside the subtract.  The
    arithmetic per row — float64 difference, square, pairwise row sum,
    root — is that of the one-shot formula, so the result is bitwise
    equal to it for any dtype, row stride or number of tiles (a
    column-major batch is reduced row-major like every other).

    Raises ``ValueError`` unless ``query`` is 1-D and ``batch`` 2-D
    with rows of its length (it used to broadcast a length-1 query).
    """
    query = np.asarray(query, dtype=np.float64)
    batch = np.asarray(batch)
    _check_rows(query, batch)
    n, length = batch.shape
    out = np.empty(n)
    rows = max(1, TILE_BYTES // (8 * length or 1))
    scratch = np.empty((min(n, rows), length))
    for lo in range(0, n, rows):
        tile = scratch[: n - lo]
        np.subtract(batch[lo : lo + rows], query, out=tile)
        np.multiply(tile, tile, out=tile)
        np.add.reduce(tile, axis=1, out=out[lo : lo + rows])
    return np.sqrt(out, out=out)


def euclidean_lower_bounds(queries: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A lower bound of ``euclidean_batch(query, block)``, row by row.

    ``queries`` is one query (returns ``(N,)``) or a ``(Q, n)`` block
    of them (returns ``(Q, N)``, row ``i`` bounding query ``i``).

    The Gram form ``‖x‖² + ‖q‖² − 2·x·q`` costs one multiply-add per
    element against the exact kernel's subtract, square and add, and
    reads the block in its own dtype (no float64 copy of a float32
    block).  It rounds differently from the exact kernel and can
    cancel badly, so a worst-case slack is subtracted and the result
    is **rigorous**: every returned value is ``<=`` the float64
    distance :func:`euclidean_batch` computes for its row.  Rows with a
    non-finite value, and rows whose arithmetic overflows, get 0 — a
    bound that rules nothing out.

    The slack.  Let ``u`` be the unit roundoff of the block's dtype,
    ``n`` the length, ``γ_k = k·u / (1 − k·u)``, ``q̃`` the query
    rounded to that dtype, ``a = ‖x‖`` and ``b = ‖q̃‖``.

    * Any summation order of ``n`` products, with or without FMA,
      errs by at most ``γ_n·Σ|xᵢ q̃ᵢ| <= γ_n·ab`` (Cauchy–Schwarz),
      and ``‖x‖²`` by at most ``γ_n·a²``; ``‖q̃‖²`` is summed in
      float64.
    * Combining them in float64 adds three roundings of at most
      ``u·(a + b)²`` each (float64's roundoff is at most ``u``).
    * Rounding the query moves the distance by ``‖q − q̃‖ <= u·‖q‖``,
      so the squared distance by at most ``~2u·(a + b)²``.

    So the computed ``G`` exceeds ``‖x − q‖²`` by at most
    ``~(n + 6)·u·(a + b)²``.  The slack subtracted is
    ``4·γ_{n+2}·(a + b)²``, taken from the *computed* norms: their own
    ``1 ± γ_n`` error and the float64 rounding of the slack sit inside
    the factor of four.  ``8·(n+2)`` subnormals of the dtype are
    added for gradual underflow (at most half a subnormal per
    product).  Last, the exact kernel's own float64 value is at least
    ``‖x − q‖·(1 − γ⁶⁴_{n+3})`` (a rounded difference, square and root
    per row, a sum of ``n`` non-negative terms), so the root is scaled
    by ``1 − 4·γ⁶⁴_{n+4}``, which also covers its own rounding.  Past
    ``(n + 2)·u > 1/8`` (about two million float32 values per row) the
    analysis no longer holds and every bound is 0.

    The median bound ÷ distance is 0.99994 on z-normalized float32
    series of length 256 (``docs/fetch.md``, *The second bound*).

    The row norms are computed once per call, whatever ``Q``.  One
    query's product is an ``np.einsum`` and makes no BLAS call (``@``,
    ``np.dot``, ``matmul``): on a 2-core host, for a 4 000 × 256
    float32 block, an unpinned multi-threaded ``sgemv`` took 0.09 ms
    at the median but 8.1 ms at worst with the other core busy, the
    ``einsum`` 0.27 ms and 0.58 ms.  A query block's ``Q`` products
    are one ``rounded @ block.T``, a single GEMM in the block's dtype:
    for 64 queries 1.1 ms at the median (17.6 ms at worst, one core
    busy) against 16.6 ms (24.1 ms) for 64 ``einsum`` products
    (``docs/fetch.md``, *The bound*).  The GEMM's summation order
    depends on the shapes, so a query's bounds in a block can differ
    in the last bits from its 1-D call; each is rigorous.
    Raises ``ValueError`` unless ``queries`` is 1-D or 2-D and
    ``block`` a 2-D float32 or float64 array with rows of its length.
    """
    queries = np.asarray(queries, dtype=np.float64)
    block = np.asarray(block)
    if queries.ndim not in (1, 2) or block.ndim != 2 or (
        block.shape[1] != queries.shape[-1]
    ):
        raise ValueError(f"shape mismatch: {block.shape} vs {queries.shape}")
    if block.dtype not in (np.float32, np.float64):
        raise ValueError(f"block must be float32 or float64, got {block.dtype}")
    n, length = block.shape
    info = np.finfo(block.dtype)
    unit = float(info.eps) / 2
    k = length + 2
    if n == 0 or k * unit > 0.125:
        return np.zeros(queries.shape[:-1] + (n,))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", block, block)
        rounded = queries.astype(block.dtype)
        wide = rounded.astype(np.float64)  # the exact values of q̃
        if queries.ndim == 1:
            query_norm2 = float(np.einsum("i,i->", wide, wide))
            gram = np.einsum("ij,j->i", block, rounded).astype(np.float64)
        else:
            query_norm2 = np.einsum("qi,qi->q", wide, wide)[:, None]
            gram = (rounded @ block.T).astype(np.float64)
        gram *= -2.0
        gram += norms
        gram += query_norm2
        slack = np.sqrt(norms, dtype=np.float64) + np.sqrt(query_norm2)
        slack *= slack
        slack *= 4 * k * unit / (1 - k * unit)
        slack += 8 * k * float(info.smallest_subnormal)
        gram -= slack
        bounds = np.sqrt(np.fmax(gram, 0.0, out=gram), out=gram)
        unit64 = float(np.finfo(np.float64).eps) / 2
        bounds *= 1 - 4 * (length + 4) * unit64 / (1 - (length + 4) * unit64)
    bounds[~np.isfinite(bounds)] = 0.0
    return bounds


#: Elements summed per partial-sum step of the early-abandoning ED.
EARLY_ABANDON_CHUNK = 32


def early_abandon_euclidean(
    a: np.ndarray, b: np.ndarray, best_so_far: float, chunk: int = 0
) -> float:
    """ED with early abandoning against a best-so-far threshold.

    The UCR-suite optimization used throughout the data series
    indexing literature: partial sums of squared differences
    accumulate in chunks of ``chunk`` elements (default
    :data:`EARLY_ABANDON_CHUNK`) and the candidate is abandoned —
    ``inf`` returned — as soon as a *proper prefix* of the series
    already exceeds ``best_so_far``.  Squared differences only ever
    grow the sum, so an abandoned candidate provably has full distance
    strictly above the threshold.

    Survivors are returned as :func:`euclidean` of the full series —
    the exact same reduction every non-abandoning path uses — so
    every finite result is **bitwise identical** to the plain
    distance, independent of ``chunk``.  The threshold is never
    checked after the final chunk: a candidate whose full distance
    ties ``best_so_far`` exactly comes back finite, not ``inf``,
    keeping tie-handling identical to the non-abandoning code path.

    Raises ``ValueError`` on mismatched shapes (it used to silently
    truncate to the shorter input, producing a wrong finite distance).
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    chunk = chunk if chunk > 0 else EARLY_ABANDON_CHUNK
    total = 0.0
    for at in range(0, len(a) - chunk, chunk):
        diff = a[at : at + chunk] - b[at : at + chunk]
        total += float(np.sum(diff * diff))
        if np.sqrt(total) > best_so_far:
            return float("inf")
    return euclidean(a, b)


def early_abandon_euclidean_block(
    query: np.ndarray, block: np.ndarray, best_so_far: float
) -> np.ndarray:
    """Refine one candidate block: ED of every row against ``query``.

    Contract: each returned value is the bitwise
    :func:`euclidean_batch` distance of its row, or ``inf`` only for a
    row whose distance is provably above ``best_so_far`` — with no
    obligation to abandon anything.  Every consumer either takes an
    ``argmin`` against its bound (the index probes) or feeds
    ``offer_block`` (the SIMS walk), which drops rows above the
    threshold itself, so answers and tie order cannot depend on which
    rows come back ``inf``.  ``best_so_far`` is the caller's threshold at the call;
    :func:`repro.core.knn.refine_block` calls once per fetched block for
    each query, or, where the Gram bound ran, once for the query's k
    lowest-bound rows and once more for the rows the threshold they
    leave still lets in (usually none).

    The body is one :func:`euclidean_batch` pass that abandons nothing:
    the rows that reach it and lose cross the threshold only near full
    length, so a prefix check saves little (``docs/fetch.md`` has the
    measurement), and finishing every row costs less than gathering
    survivors chunk by chunk.  In the SIMS engines most losing rows
    never get here: :func:`repro.core.sims.rows_that_can_win` drops
    them on :func:`euclidean_lower_bounds` first.  The scalar
    :func:`early_abandon_euclidean` remains the UCR reference: this
    kernel never returns ``inf`` where that one returns a finite
    distance.

    Raises ``ValueError`` when ``block`` is not 2-D with rows the
    length of ``query``.
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] != query.shape[0]:
        raise ValueError(f"shape mismatch: {block.shape} vs {query.shape}")
    return euclidean_batch(query, block)


def check_window(window) -> int:
    """A Sakoe-Chiba half-width: an integer >= 0, not a bool."""
    if isinstance(window, bool) or not isinstance(window, (int, np.integer)):
        raise ValueError(f"window must be an integer >= 0, got {window!r}")
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    return int(window)


def dtw(a: np.ndarray, b: np.ndarray, window: int | None = None) -> float:
    """Dynamic time warping distance with a Sakoe-Chiba band.

    ``window`` is the band half-width; ``None`` means unconstrained.
    Raises ``ValueError`` for a window that is not ``None`` or an
    integer ``>= 0`` (a negative one used to mean a band of width 0).
    """
    if window is not None:
        window = check_window(window)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("DTW requires non-empty series")
    w = max(n, m) if window is None else max(window, abs(n - m))
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, np.inf)
        lo = max(1, i - w)
        hi = min(m, i + w)
        for j in range(lo, hi + 1):
            cost = (a[i - 1] - b[j - 1]) ** 2
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(np.sqrt(prev[m]))


def lb_keogh(query: np.ndarray, candidate: np.ndarray, window: int) -> float:
    """LB_Keogh lower bound for DTW under a Sakoe-Chiba band.

    Raises ``ValueError`` for a window that is not an integer ``>= 0``.
    """
    window = check_window(window)
    query = np.asarray(query, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if query.shape != candidate.shape:
        raise ValueError(f"shape mismatch: {query.shape} vs {candidate.shape}")
    n = len(query)
    upper = np.empty(n)
    lower = np.empty(n)
    for i in range(n):
        lo = max(0, i - window)
        hi = min(n, i + window + 1)
        upper[i] = query[lo:hi].max()
        lower[i] = query[lo:hi].min()
    above = np.where(candidate > upper, candidate - upper, 0.0)
    below = np.where(candidate < lower, lower - candidate, 0.0)
    return float(np.sqrt(np.sum(above**2 + below**2)))
