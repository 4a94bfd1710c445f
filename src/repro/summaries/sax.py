"""Symbolic Aggregate approXimation (SAX).

SAX discretizes PAA values into symbols using breakpoints that divide
the N(0, 1) value space into equiprobable regions (paper Fig. 1): more
regions near zero, fewer at the extremes, so symbols are roughly
uniformly used on z-normalized data.

The full-cardinality SAX word of a series is the per-segment symbol
sequence; :mod:`repro.summaries.isax` adds the multi-resolution view
and :mod:`repro.core.invsax` adds the sortable (z-ordered) view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: The 255 interior breakpoints of cardinality 256, ``ndtri(s / 256)``
#: for ``s = 1 .. 255``, as hex floats: bit-exact, and ``import repro``
#: needs no scipy.  Every smaller power-of-two table is a stride of it
#: (``s / c == (s * 256 / c) / 256`` exactly), the same bits ``ndtri``
#: returns (``tests/test_sax.py`` pins every table against scipy).
_BREAKPOINTS_256 = np.array([float.fromhex(h) for h in """
    -0x1.547d173f6ec88p+1  -0x1.357292e7715f6p+1  -0x1.2213b8576fdbap+1
    -0x1.13b22a7d5685ep+1  -0x1.0821aea2d370ep+1  -0x1.fcc812ed3a31cp+0
    -0x1.ebdda4f3bc592p+0  -0x1.dcdbfee3cb022p+0  -0x1.cf5519058ef66p+0
    -0x1.c2fcd4fed71c2p+0  -0x1.b79c430c75742p+0  -0x1.ad0a62bb61166p+0
    -0x1.a327c19be646bp+0  -0x1.99dbb4304c5eap+0  -0x1.911280d02e294p+0
    -0x1.88bc1fbe1dabep+0  -0x1.80cb5abf42f6fp+0  -0x1.79352bd2ffc71p+0
    -0x1.71f046ceaa3c0p+0  -0x1.6af4c0d40e6e0p+0  -0x1.643bcd0219b2cp+0
    -0x1.5dbf8886fd11bp+0  -0x1.577ad207e6402p+0  -0x1.51692983b0b7ep+0
    -0x1.4b8696a46380dp+0  -0x1.45cf940193b5ap+0  -0x1.4040fe397a838p+0
    -0x1.3ad8060d88cdbp+0  -0x1.359224e282f19p+0  -0x1.306d1329acdccp+0
    -0x1.2b66c054507b0p+0  -0x1.267d4c07b0566p+0  -0x1.21af0057305c8p+0
    -0x1.1cfa4cd68023ep+0  -0x1.185dc25ed274cp+0  -0x1.13d80f695e703p+0
    -0x1.0f67fce7084ebp+0  -0x1.0b0c6b8181421p+0  -0x1.06c45135b5deap+0
    -0x1.028eb73a355dap+0  -0x1.fcd5704d039b0p-1  -0x1.f4aefca4206f7p-1
    -0x1.eca884c67e2f1p-1  -0x1.e4c0940f865dap-1  -0x1.dcf5cda2197aap-1
    -0x1.d546ea5ff88ecp-1  -0x1.cdb2b717de135p-1  -0x1.c63812e37d717p-1
    -0x1.bed5edaf97491p-1  -0x1.b78b46e920380p-1  -0x1.b0572c4b26eebp-1
    -0x1.a938b8c9ba967p-1  -0x1.a22f139690790p-1  -0x1.9b396f3c932f8p-1
    -0x1.945708cfe1646p-1  -0x1.8d87273010eefp-1  -0x1.86c91a5acec53p-1
    -0x1.801c3acd2ead4p-1  -0x1.797fe8f2301f7p-1  -0x1.72f38c9d29a1bp-1
    -0x1.6c76948ef1fc7p-1  -0x1.66087604bfe6ep-1  -0x1.5fa8ac4fd5c9bp-1
    -0x1.5956b87528a49p-1  -0x1.531220d447709p-1  -0x1.4cda70d4dbf64p-1
    -0x1.46af389a2f5b2p-1  -0x1.40900cbc2beb4p-1  -0x1.3a7c860563298p-1
    -0x1.34744135ab273p-1  -0x1.2e76dec8f0c94p-1  -0x1.288402c1e614fp-1
    -0x1.229b54783c0c1p-1  -0x1.1cbc7e6a1f29dp-1  -0x1.16e72e10b447dp-1
    -0x1.111b13b759bcap-1  -0x1.0b57e25575e9dp-1  -0x1.059d4f6aa14b8p-1
    -0x1.ffd625b9fcee7p-2  -0x1.f481cdb32cce8p-2  -0x1.e93d0f6d25f47p-2
    -0x1.de0767ae69873p-2  -0x1.d2e05722c859cp-2  -0x1.c7c7622981109p-2
    -0x1.bcbc10a624286p-2  -0x1.b1bdedd40c2e3p-2  -0x1.a6cc881c3c628p-2
    -0x1.9be770ed7b920p-2  -0x1.910e3c96842b8p-2  -0x1.8640822225902p-2
    -0x1.7b7ddb35354c6p-2  -0x1.70c5e3ee31608p-2  -0x1.66183ac676fc4p-2
    -0x1.5b748074f3236p-2  -0x1.50da57d23490fp-2  -0x1.464965bdc7eafp-2
    -0x1.3bc15104c8ebfp-2  -0x1.3141c249949c9p-2  -0x1.26ca63ec8a0d5p-2
    -0x1.1c5ae1f5c8389p-2  -0x1.11f2e9ffd8d7ap-2  -0x1.07922b2338fcfp-2
    -0x1.fa70abc56274ep-3  -0x1.e5ca3830dff7fp-3  -0x1.d13061c7b3170p-3
    -0x1.bca2913003e73p-3  -0x1.a82031558b4a5p-3  -0x1.93a8af48ecc97p-3
    -0x1.7f3b7a2025340p-3  -0x1.6ad802d7fb488p-3  -0x1.567dbc3660aa1p-3
    -0x1.422c1aadb2493p-3  -0x1.2de29440c83fep-3  -0x1.19a0a067c5e03p-3
    -0x1.0565b7f59b6a1p-3  -0x1.e262a9fc56fbap-4  -0x1.ba05e57a0df13p-4
    -0x1.91b41af964dc7p-4  -0x1.696c44fcd1de6p-4  -0x1.412d5fc4a071ap-4
    -0x1.18f6692025a3bp-4  -0x1.e18cc07f53b76p-5  -0x1.91388b0de5074p-5
    -0x1.40ee34c0ace25p-5  -0x1.e1578441218c4p-6  -0x1.40de72250d347p-6
    -0x1.40da82002404bp-7               0x0.0p+0   0x1.40da82002404bp-7
     0x1.40de72250d347p-6   0x1.e1578441218c4p-6   0x1.40ee34c0ace25p-5
     0x1.91388b0de5074p-5   0x1.e18cc07f53b76p-5   0x1.18f6692025a3bp-4
     0x1.412d5fc4a071ap-4   0x1.696c44fcd1de6p-4   0x1.91b41af964dc7p-4
     0x1.ba05e57a0df13p-4   0x1.e262a9fc56fbap-4   0x1.0565b7f59b6a1p-3
     0x1.19a0a067c5e03p-3   0x1.2de29440c83fep-3   0x1.422c1aadb2493p-3
     0x1.567dbc3660aa1p-3   0x1.6ad802d7fb488p-3   0x1.7f3b7a2025340p-3
     0x1.93a8af48ecc97p-3   0x1.a82031558b4a5p-3   0x1.bca2913003e73p-3
     0x1.d13061c7b3170p-3   0x1.e5ca3830dff7fp-3   0x1.fa70abc56274ep-3
     0x1.07922b2338fcfp-2   0x1.11f2e9ffd8d7ap-2   0x1.1c5ae1f5c8389p-2
     0x1.26ca63ec8a0d5p-2   0x1.3141c249949c9p-2   0x1.3bc15104c8ebfp-2
     0x1.464965bdc7eafp-2   0x1.50da57d23490fp-2   0x1.5b748074f3236p-2
     0x1.66183ac676fc4p-2   0x1.70c5e3ee31608p-2   0x1.7b7ddb35354c6p-2
     0x1.8640822225902p-2   0x1.910e3c96842b8p-2   0x1.9be770ed7b920p-2
     0x1.a6cc881c3c628p-2   0x1.b1bdedd40c2e3p-2   0x1.bcbc10a624286p-2
     0x1.c7c7622981109p-2   0x1.d2e05722c859cp-2   0x1.de0767ae69873p-2
     0x1.e93d0f6d25f47p-2   0x1.f481cdb32cce8p-2   0x1.ffd625b9fcee7p-2
     0x1.059d4f6aa14b8p-1   0x1.0b57e25575e9dp-1   0x1.111b13b759bcap-1
     0x1.16e72e10b447dp-1   0x1.1cbc7e6a1f29dp-1   0x1.229b54783c0c1p-1
     0x1.288402c1e614fp-1   0x1.2e76dec8f0c94p-1   0x1.34744135ab273p-1
     0x1.3a7c860563298p-1   0x1.40900cbc2beb4p-1   0x1.46af389a2f5b2p-1
     0x1.4cda70d4dbf64p-1   0x1.531220d447709p-1   0x1.5956b87528a49p-1
     0x1.5fa8ac4fd5c9bp-1   0x1.66087604bfe6ep-1   0x1.6c76948ef1fc7p-1
     0x1.72f38c9d29a1bp-1   0x1.797fe8f2301f7p-1   0x1.801c3acd2ead4p-1
     0x1.86c91a5acec53p-1   0x1.8d87273010eefp-1   0x1.945708cfe1646p-1
     0x1.9b396f3c932f8p-1   0x1.a22f139690790p-1   0x1.a938b8c9ba967p-1
     0x1.b0572c4b26eebp-1   0x1.b78b46e920380p-1   0x1.bed5edaf97491p-1
     0x1.c63812e37d717p-1   0x1.cdb2b717de135p-1   0x1.d546ea5ff88ecp-1
     0x1.dcf5cda2197aap-1   0x1.e4c0940f865dap-1   0x1.eca884c67e2f1p-1
     0x1.f4aefca4206f7p-1   0x1.fcd5704d039b0p-1   0x1.028eb73a355dap+0
     0x1.06c45135b5deap+0   0x1.0b0c6b8181421p+0   0x1.0f67fce7084ebp+0
     0x1.13d80f695e703p+0   0x1.185dc25ed274cp+0   0x1.1cfa4cd68023ep+0
     0x1.21af0057305c8p+0   0x1.267d4c07b0566p+0   0x1.2b66c054507b0p+0
     0x1.306d1329acdccp+0   0x1.359224e282f19p+0   0x1.3ad8060d88cdbp+0
     0x1.4040fe397a838p+0   0x1.45cf940193b5ap+0   0x1.4b8696a46380dp+0
     0x1.51692983b0b7ep+0   0x1.577ad207e6402p+0   0x1.5dbf8886fd11bp+0
     0x1.643bcd0219b2cp+0   0x1.6af4c0d40e6e0p+0   0x1.71f046ceaa3c0p+0
     0x1.79352bd2ffc71p+0   0x1.80cb5abf42f6fp+0   0x1.88bc1fbe1dabep+0
     0x1.911280d02e294p+0   0x1.99dbb4304c5eap+0   0x1.a327c19be646bp+0
     0x1.ad0a62bb61166p+0   0x1.b79c430c75742p+0   0x1.c2fcd4fed71c2p+0
     0x1.cf5519058ef66p+0   0x1.dcdbfee3cb022p+0   0x1.ebdda4f3bc592p+0
     0x1.fcc812ed3a31cp+0   0x1.0821aea2d370ep+1   0x1.13b22a7d5685ep+1
     0x1.2213b8576fdbap+1   0x1.357292e7715f6p+1   0x1.547d173f6ec88p+1
""".split()])
_BREAKPOINTS_256.flags.writeable = False


@lru_cache(maxsize=None)
def breakpoints(cardinality: int) -> np.ndarray:
    """The ``cardinality - 1`` interior breakpoints of N(0, 1).

    Region ``s`` (symbol value ``s``) covers
    ``(breakpoints[s-1], breakpoints[s]]`` with the conventions
    ``breakpoints[-1] = -inf`` and ``breakpoints[c-1] = +inf``.
    Cardinalities up to 256 read the committed table; above it, scipy
    is imported to compute the quantiles.
    """
    if cardinality < 2:
        raise ValueError(f"cardinality must be >= 2, got {cardinality}")
    if cardinality & (cardinality - 1):
        raise ValueError(f"cardinality must be a power of two, got {cardinality}")
    if cardinality <= 256:
        stride = 256 // cardinality
        result = _BREAKPOINTS_256[stride - 1 :: stride].copy()
    else:
        from scipy.special import ndtri

        result = ndtri(np.linspace(0.0, 1.0, cardinality + 1)[1:-1])
    result.flags.writeable = False
    return result


@lru_cache(maxsize=None)
def extended_breakpoints(cardinality: int) -> np.ndarray:
    """Breakpoints with ``-inf`` / ``+inf`` sentinels (length c + 1)."""
    result = np.concatenate([[-np.inf], breakpoints(cardinality), [np.inf]])
    result.flags.writeable = False
    return result


@dataclass(frozen=True)
class SAXConfig:
    """Shape of the summarization used throughout an index.

    Defaults follow the iSAX literature the paper builds on: 16
    segments at cardinality 256 (8 bits per symbol), series length 256.
    """

    series_length: int = 256
    word_length: int = 16
    cardinality: int = 256

    def __post_init__(self) -> None:
        if self.cardinality & (self.cardinality - 1) or self.cardinality < 2:
            raise ValueError(
                f"cardinality must be a power of two >= 2, got {self.cardinality}"
            )
        if self.word_length <= 0:
            raise ValueError(f"word_length must be positive, got {self.word_length}")
        if self.series_length < self.word_length:
            raise ValueError(
                f"series_length {self.series_length} shorter than "
                f"word_length {self.word_length}"
            )

    @property
    def bits_per_symbol(self) -> int:
        return int(self.cardinality).bit_length() - 1

    @property
    def key_bits(self) -> int:
        """Total bits in a full word (= bits in an invSAX key)."""
        return self.word_length * self.bits_per_symbol

    @property
    def key_bytes(self) -> int:
        return -(-self.key_bits // 8)

    @property
    def key_dtype(self) -> np.dtype:
        return np.dtype(f"S{self.key_bytes}")

    @property
    def segment_size(self) -> float:
        return self.series_length / self.word_length


class SymbolTable:
    """SAX symbols by table lookup: a uniform grid of cells over the
    breakpoints, narrower than the closest pair, so a cell holds at most
    one breakpoint.

    A value's symbol is the number of breakpoints strictly below it
    (``searchsorted(..., side="left")``).  Its cell gives the count below
    the cell (``base``) and the one breakpoint inside it (``upper``,
    ``+inf`` when none), so one compare finishes the count — no binary
    search, no branch to mispredict.  Exact for every float64: the cell
    map is monotone (a scale, a shift, two clamps), so a breakpoint in
    an earlier cell is below the value and one in a later cell is not.
    NaN and ``+inf`` clamp into a last, empty cell whose base is
    ``cardinality - 1``, as ``searchsorted`` sorts NaN last; ``-inf``
    clamps into the first.
    """

    __slots__ = ("scale", "offset", "n_cells", "base", "upper")

    def __init__(self, cardinality: int):
        bps = breakpoints(cardinality)
        # Cardinality 2 has one breakpoint and no width: any span works.
        span = float(bps[-1] - bps[0]) or 1.0
        min_gap = float(np.diff(bps).min()) if len(bps) > 1 else span
        self.n_cells = int(np.ceil(span / min_gap)) + 1
        # The breakpoints fill the first n_cells - 1/2 cells, so the
        # last one (for NaN and everything above) stays empty.
        self.scale = (self.n_cells - 0.5) / span
        self.offset = bps[0] * self.scale
        cells = self.cells(bps)
        counts = np.bincount(cells, minlength=self.n_cells + 1)
        if counts.max() > 1 or counts[-1]:
            raise RuntimeError(f"cardinality {cardinality}: cells too wide")
        self.base = np.searchsorted(
            cells, np.arange(self.n_cells + 1), side="left"
        ).astype(np.uint16)
        self.upper = np.full(self.n_cells + 1, np.inf)
        self.upper[cells] = bps
        self.base.flags.writeable = self.upper.flags.writeable = False

    def cells(self, values: np.ndarray) -> np.ndarray:
        """The cell of each value (``intp``, in ``[0, n_cells]``)."""
        with np.errstate(over="ignore"):  # |value| near float max: +-inf
            t = np.multiply(values, self.scale)
        t -= self.offset
        np.fmin(t, self.n_cells, out=t)  # NaN and +inf: the last cell
        np.maximum(t, 0.0, out=t)
        return t.astype(np.intp)

    def symbols(self, values: np.ndarray) -> np.ndarray:
        """``searchsorted(breakpoints, values, side="left")`` as uint16."""
        cells = self.cells(values)
        out = self.base.take(cells)
        out += self.upper.take(cells) < values
        return out


@lru_cache(maxsize=None)
def symbol_table(cardinality: int) -> SymbolTable:
    """The cached :class:`SymbolTable` of a cardinality."""
    return SymbolTable(cardinality)


#: Fewer values than this take one binary search each: the table's ten
#: or so whole-array passes cost more than the searches below ~512
#: values, and a query's single word is 16.
TABLE_MIN_VALUES = 512


def sax_from_paa(paa_values: np.ndarray, cardinality: int) -> np.ndarray:
    """Quantize PAA values into SAX symbols (uint16).

    Bulk inputs go through the cardinality's :class:`SymbolTable`; a
    handful of values (a query) through ``np.searchsorted``, which
    produces the same symbols.
    """
    paa_values = np.asarray(paa_values, dtype=np.float64)
    if paa_values.size >= TABLE_MIN_VALUES:
        return symbol_table(cardinality).symbols(paa_values)
    return np.searchsorted(
        breakpoints(cardinality), paa_values, side="left"
    ).astype(np.uint16)


def sax_words(batch: np.ndarray, config: SAXConfig) -> np.ndarray:
    """Full-cardinality SAX words for a batch: (N, word_length) uint16."""
    from .paa import paa

    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim == 1:
        batch = batch[None, :]
    if batch.shape[1] != config.series_length:
        raise ValueError(
            f"expected series of length {config.series_length}, "
            f"got {batch.shape[1]}"
        )
    return sax_from_paa(paa(batch, config.word_length), config.cardinality)


def symbol_bounds(
    words: np.ndarray, cardinality: int
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) region bounds for each symbol in ``words``."""
    ext = extended_breakpoints(cardinality)
    words = np.asarray(words, dtype=np.int64)
    return ext[words], ext[words + 1]


class CellIndex:
    """Where every symbol of a word column sits in a query's gap table.

    A lower-bound table holds one value per (segment, symbol) cell,
    flattened to ``segment * cardinality + symbol``; ``cells[j, i]`` is
    the cell of record ``i`` in segment ``j``.  The array depends on the
    words alone, so a column builds it once and every query gathers
    through it.  Its layout is what ``ndarray.take`` wants: segment-major
    and C-contiguous, so each segment of any record range is one
    contiguous index row, and ``intp``, because ``take`` re-casts every
    other index dtype on each call (8x slower at ``int32`` / ``uint16``).

    Symbols are validated where it is built (:meth:`of`), once: a symbol
    ``>= cardinality`` in any segment but the last would silently read
    the next segment's cells.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray):
        self.cells = cells

    @classmethod
    def of(cls, words: "np.ndarray | CellIndex", config: SAXConfig) -> "CellIndex":
        """The index over ``(N, word_length)`` symbols — or ``words``
        itself when a column already built and handed over its index."""
        if isinstance(words, CellIndex):
            return words
        words = np.atleast_2d(words)
        cardinality = config.cardinality
        if words.size and not (0 <= words.min() and words.max() < cardinality):
            raise ValueError(
                f"SAX symbols must lie in [0, {cardinality}), got "
                f"{words.min()}..{words.max()}"
            )
        # order="C": adding to the transposed view would otherwise
        # return an F-ordered result, which ``take`` gathers 10x slower.
        return cls(
            np.add(
                words.T,
                (np.arange(words.shape[1]) * cardinality)[:, None],
                dtype=np.intp,
                order="C",
            )
        )

    def rows(self, start: int, stop: int | None) -> "CellIndex":
        """The index of records ``start:stop`` (a view, nothing copied)."""
        return CellIndex(self.cells[:, start:stop])


def _lane_sums(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """``sum_j table[cells[j]]`` per record, in numpy's own summing order.

    ``np.sum(axis=1)`` over a C-contiguous ``(N, w)`` array adds each
    row pairwise: fewer than 8 values left to right; up to 128 in eight
    accumulators ``r[k] += row[8i + k]``, combined as ``((r0 + r1) +
    (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, then the ``w % 8`` tail left
    to right; longer rows split at ``w // 2`` rounded down to a multiple
    of 8.  Doing the same additions with one whole-column array per
    operand yields the same floats byte for byte without materializing
    the ``(N, w)`` gather — at most eight lanes of ``N`` floats are live.
    """
    n_rows = len(cells)
    if n_rows > 128:
        half = n_rows // 2
        half -= half % 8
        return _lane_sums(table, cells[:half]) + _lane_sums(table, cells[half:])
    lanes = [table.take(row) for row in cells[:8]]
    body = n_rows - n_rows % 8
    if body:
        for j in range(8, body):
            lanes[j % 8] += table.take(cells[j])
        for step in (1, 2, 4):
            for k in range(0, 8, 2 * step):
                lanes[k] += lanes[k + step]
        tail = (table.take(row) for row in cells[body:])
    else:
        tail = lanes[1:]
    total = lanes[0]
    for lane in tail:
        total += lane
    return total


def bounds_from_tables(
    tables: np.ndarray, index: CellIndex, config: SAXConfig
) -> np.ndarray:
    """``(Q, N)`` lower bounds: each record's cells gathered from each of
    ``Q`` flattened squared-gap tables, summed and scaled.

    The one scan kernel: the Euclidean bound below and the DTW bound of
    :mod:`repro.core.dtw_search` differ only in the table they fill.
    """
    cells = index.cells
    bounds = np.empty((len(tables), cells.shape[1]))
    for table, row in zip(tables, bounds):
        sums = _lane_sums(table, cells)
        sums *= config.segment_size
        np.sqrt(sums, out=row)
    return bounds


def mindist_paa_to_words(
    query_paa: np.ndarray, words: "np.ndarray | CellIndex", config: SAXConfig
) -> np.ndarray:
    """Vectorized lower bound from query PAAs to many SAX words.

    This is the tighter PAA-to-region mindist used by iSAX
    implementations: per segment, distance from the query's PAA value
    to the candidate symbol's region (zero if inside), scaled by the
    segment size.  Guaranteed ``<=`` the true Euclidean distance.

    A word column is dictionary-encoded: per query a (segment, symbol)
    cell takes one of ``word_length * cardinality`` values, so the gap
    is evaluated once per dictionary entry — the squared-gap table
    ``T[j, s]`` — and every record gathers its ``word_length`` cells
    from it through a :class:`CellIndex`.  The gathered values are the
    floats the per-cell evaluation would have produced and
    :func:`_lane_sums` adds them in the order ``np.sum`` would, so the
    bounds are byte-identical to it.

    ``words`` is an ``(N, word_length)`` array of symbols or the
    :class:`CellIndex` a column already built over one (the index
    depends on the words alone; handed raw words, the call builds and
    drops it).  ``query_paa`` is one PAA vector (returns ``(N,)``) or a
    ``(Q, w)`` block (returns ``(Q, N)``).
    """
    query_paa = np.asarray(query_paa, dtype=np.float64)
    index = CellIndex.of(words, config)
    word_length = len(index.cells)
    if query_paa.ndim not in (1, 2) or query_paa.shape[-1] != word_length:
        raise ValueError(
            f"query PAA of shape {query_paa.shape} does not match "
            f"words of {word_length} segments"
        )
    cardinality = config.cardinality
    ext = extended_breakpoints(cardinality)
    lower, upper = ext[:-1], ext[1:]
    values = query_paa.reshape(-1, word_length, 1)
    below = np.where(values < lower, lower - values, 0.0)
    above = np.where(values > upper, values - upper, 0.0)
    gap = below + above
    tables = (gap * gap).reshape(len(values), word_length * cardinality)
    bounds = bounds_from_tables(tables, index, config)
    return bounds[0] if query_paa.ndim == 1 else bounds


def mindist_words(
    word_a: np.ndarray, word_b: np.ndarray, config: SAXConfig
) -> float:
    """Symbol-to-symbol mindist (the original SAX MINDIST)."""
    ext = extended_breakpoints(config.cardinality)
    a = np.asarray(word_a, dtype=np.int64).ravel()
    b = np.asarray(word_b, dtype=np.int64).ravel()
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    gap = np.where(hi - lo <= 1, 0.0, ext[hi] - ext[np.minimum(lo + 1, len(ext) - 1)])
    return float(np.sqrt(config.segment_size * np.sum(gap * gap)))


_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def word_to_text(word: np.ndarray, cardinality: int) -> str:
    """Render a low-cardinality word as letters, e.g. 'fcfd' (Fig. 1)."""
    if cardinality > len(_ALPHABET):
        raise ValueError(
            f"text rendering supports cardinality <= {len(_ALPHABET)}"
        )
    return "".join(_ALPHABET[int(s)] for s in np.asarray(word).ravel())
