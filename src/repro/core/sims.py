"""Skip-sequential scan of in-memory summarizations (SIMS).

The exact-search engine shared by the Coconut indexes (Algorithm 5,
CoconutTreeSIMS) and the ADS baseline (the original SIMS).  The
summarizations of the whole collection are held in memory, a vectorized
pass computes a lower bound for every record, and only records whose
bound beats the best-so-far answer are fetched from disk — in storage
order, so the disk head only moves forward (skip-sequential access).

The caller provides the summary column (aligned with its on-disk record
order) and a fetch callback.  Every exact answer comes from one
engine, :func:`repro.parallel.batch.batched_exact_knn`; the 1-NN
:func:`sims_scan` is its seeded ``k = 1`` one-query call.  Its walk
re-filters after every fetched block because the best-so-far keeps
shrinking as real distances come in.  Between the fetch and the exact
kernel, a Gram-form distance bound drops the fetched rows that cannot
win; a raw-file fetch (:class:`RawFetch`) bounds a dense block on the
pages it read and copies only those that can
(:func:`fetch_rows_that_can_win`), and the kept rows' bounds go on to
the refine, which takes the lowest first.

:class:`SIMSIndex` is the one query front-end above that engine: its
four entry points (approximate search, exact search, exact k-NN and
``query_batch``) are defined once, over three hooks each index supplies
— the probe, the batched probe and the ``(column, fetch)`` pair — for
the Coconut indexes and ADS alike.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..indexes.base import (
    BatchReport,
    Measurement,
    QueryResult,
    SeriesIndex,
    best_of,
    check_k,
)
from ..series.distance import euclidean_lower_bounds
from ..storage.seriesfile import PagedRecords
from ..summaries.sax import SAXConfig
from .summary_column import WordColumn

#: fetch(positions ascending) -> (series matrix, identifier per row)
FetchFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Records refined per skip-sequential fetch block.  Shared by every
#: SIMS-style engine (single-query and batched) so thresholds are
#: re-consulted on the same cadence everywhere.
SIMS_BLOCK_RECORDS = 4096

#: Elements (rows x length) a fetched block's rows must hold before the
#: engines bound them ahead of the exact kernel: the measured crossover
#: below which the Gram bound costs more than the refine it saves
#: (``docs/fetch.md``, *The second bound*).
BOUND_MIN_ELEMENTS = 32_768

#: Share of the records on a fetched block's pages that the block must
#: request to be *dense*: a dense raw-file block that will be bounded
#: is bounded on the pages it read, where its records lie, and only the
#: rows that can win are copied (``docs/fetch.md``, *Bound before the
#: gather*).  The same share decides, per query, whether the query's
#: own rows are bounded on those pages or on a copy, so bounding every
#: record on the pages never costs more than twice bounding its rows.
#: Every query of a batch that bounds the whole block shares one
#: ``(Q, N)`` bound per page run, its products one GEMM: on the 64-query
#: ``query_seismic`` batch that is one call per run instead of 64
#: (``docs/fetch.md``, *One bound per block in a batch*).
DENSE_FETCH_SHARE = 0.5


def bound_will_run(n_rows: int, length: int, threshold: float) -> bool:
    """Whether :func:`rows_that_can_win` bounds ``n_rows`` rows."""
    return threshold < float("inf") and n_rows * length >= BOUND_MIN_ELEMENTS


def bounds_every_record(series: "np.ndarray | PagedRecords", rows: np.ndarray) -> bool:
    """Whether :func:`rows_that_can_win` bounds ``rows`` of ``series``
    by bounding every record in place (:func:`block_bounds`): the rows
    are the whole array, or at least :data:`DENSE_FETCH_SHARE` of the
    records on a :class:`~repro.storage.seriesfile.PagedRecords`' pages."""
    if isinstance(series, PagedRecords):
        return len(rows) >= DENSE_FETCH_SHARE * series.on_pages
    return len(rows) == len(series)


def block_bounds(
    queries: np.ndarray, series: "np.ndarray | PagedRecords"
) -> np.ndarray:
    """:func:`~repro.series.distance.euclidean_lower_bounds` of one query
    or a ``(Q, n)`` block of them against every row of ``series``,
    without a copy: a :class:`~repro.storage.seriesfile.PagedRecords`
    block is bounded one page run at a time, every record on its pages."""
    if isinstance(series, PagedRecords):
        return series.per_record(lambda run: euclidean_lower_bounds(queries, run))
    return euclidean_lower_bounds(queries, series)


def rows_that_can_win(
    query: np.ndarray,
    series: "np.ndarray | PagedRecords",
    rows: np.ndarray,
    threshold: float,
) -> np.ndarray:
    """The ``rows`` of a fetched block whose distance may be ``<= threshold``.

    ``rows`` are ascending positions into ``series``.  A row is dropped
    only when its :func:`repro.series.distance.euclidean_lower_bounds`
    value is strictly above ``threshold``, so its exact distance is
    too: no heap could have admitted it (a heap admits only a distance
    ``<=`` its threshold, and thresholds only shrink).  Below
    :data:`BOUND_MIN_ELEMENTS` elements in ``rows``, or while
    ``threshold`` is ``inf``, ``rows`` come back as they are.  When
    :func:`bounds_every_record` holds, the whole block is bounded in
    place (a :class:`~repro.storage.seriesfile.PagedRecords` block on
    its page views); otherwise a copy of ``rows`` is (one query of a
    batch may need few rows of a block that is dense for the batch).
    The bound is row by row, so a row gets the same bits either way.
    :func:`fetch_rows_that_can_win` takes the same step, keeping the
    kept rows' bounds.
    """
    return _bound_rows(query, series, rows, threshold)[0]


def _bound_rows(
    query: np.ndarray,
    series: "np.ndarray | PagedRecords",
    rows: np.ndarray,
    threshold: float,
    bounds: "np.ndarray | None" = None,
) -> "tuple[np.ndarray, np.ndarray | None]":
    """:func:`rows_that_can_win` and the bounds of the rows it keeps.

    Returns ``(kept, kept_bounds)``: ``kept_bounds[j]`` is the bound of
    row ``kept[j]``, or ``kept_bounds`` is ``None`` (and ``kept`` is
    ``rows`` itself) where no bound runs.  ``bounds``, when given, is
    the query's :func:`block_bounds` over every record of ``series``,
    already computed (a batch's shared call).
    """
    if not bound_will_run(len(rows), series.shape[1], threshold):
        return rows, None
    if bounds is not None:
        bounds = bounds[rows]
    elif bounds_every_record(series, rows):
        bounds = block_bounds(query, series)[rows]
    else:
        block = series.take(rows) if isinstance(series, PagedRecords) else series[rows]
        bounds = euclidean_lower_bounds(query, block)
    keep = bounds <= threshold
    return rows[keep], bounds[keep]


class RawFetch:
    """The SIMS fetch of records in a raw file: positions -> rows.

    ``offsets[p]`` is the raw-file record at column position ``p`` —
    a secondary index's column is in key order — or, with ``offsets``
    ``None``, record ``p`` itself.  Called, it gathers the records
    (:meth:`~repro.storage.seriesfile.RawSeriesFile.get_many`) and
    returns ``(series, record ids)``; :meth:`paged` may leave a dense
    block on its pages instead.
    """

    def __init__(self, raw, offsets: "np.ndarray | None" = None):
        self.raw = raw
        self.offsets = offsets

    def _records(self, positions: np.ndarray) -> np.ndarray:
        return positions if self.offsets is None else self.offsets[positions]

    def __call__(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        records = self._records(positions)
        return self.raw.get_many(records), records

    def paged(self, positions: np.ndarray):
        """Like a call, but a dense block comes back as the
        :class:`~repro.storage.seriesfile.PagedRecords` of its pages.

        One plan decides, before any I/O: the block is dense when its
        records are at least :data:`DENSE_FETCH_SHARE` of the records
        on the pages it reads and those pages hold records back to back
        (no tail padding, one page or fewer per record).  Any other
        block is gathered from that plan, exactly as a call would.
        """
        records = self._records(positions)
        plan = self.raw.plan_fetch(records)
        if plan.share >= DENSE_FETCH_SHARE and self.raw.records_fill_pages:
            return self.raw.read_records(plan), records
        return self.raw.get_many(plan), records


def fetch_rows_that_can_win(
    fetch: FetchFn,
    positions: np.ndarray,
    wants: "list[tuple[np.ndarray, np.ndarray, float]]",
):
    """Fetch a block and keep, per query, the rows that can win.

    ``wants`` holds one ``(query, rows, threshold)`` per query the
    block ``positions`` is fetched for, ``rows`` ascending positions
    into the block.  Returns ``(series, identifiers, kept, bounds)``:
    ``kept[i]`` are the rows of ``series`` :func:`rows_that_can_win`
    keeps for want ``i``, ascending, and ``bounds[i]`` their bounds in
    the same order, or ``None`` where no bound ran for want ``i``
    (:func:`bound_will_run`; ``kept[i]`` is then every row of the want).
    The bounds let the refine take the lowest-bound rows first
    (:func:`repro.core.knn.refine_block`).

    When some want will be bounded (:func:`bound_will_run`) and
    ``fetch`` is a :class:`RawFetch`, the block is read
    :meth:`RawFetch.paged`.  A dense block is then bounded on the page
    views and only the union of the kept rows is copied out:
    ``series`` and ``identifiers`` hold those rows in block order, and
    no view outlives this call.  Otherwise ``series`` is the whole
    gathered block.

    Two or more wants that bound the whole block
    (:func:`bounds_every_record`) are bounded together: one ``(Q, N)``
    :func:`block_bounds` call, so one kernel call per page run, and
    each query keeps its rows at its own threshold.  Any other want is
    bounded alone, exactly as :func:`rows_that_can_win` bounds it.
    """
    if isinstance(fetch, RawFetch) and any(
        bound_will_run(len(rows), len(query), threshold)
        for query, rows, threshold in wants
    ):
        series, identifiers = fetch.paged(positions)
    else:
        series, identifiers = fetch(positions)
    shared = [
        i
        for i, (query, rows, threshold) in enumerate(wants)
        if bound_will_run(len(rows), len(query), threshold)
        and bounds_every_record(series, rows)
    ]
    together = {}
    if len(shared) > 1:
        bounds = block_bounds(np.stack([wants[i][0] for i in shared]), series)
        together = dict(zip(shared, bounds))
    pairs = [
        _bound_rows(query, series, rows, threshold, together.get(i))
        for i, (query, rows, threshold) in enumerate(wants)
    ]
    kept = [rows for rows, _ in pairs]
    bounds = [row_bounds for _, row_bounds in pairs]
    if not isinstance(series, PagedRecords):
        return series, identifiers, kept, bounds
    union = np.zeros(len(positions), dtype=bool)
    for rows in kept:
        union[rows] = True
    taken = np.flatnonzero(union)
    return (
        series.take(taken),
        identifiers[taken],
        [np.searchsorted(taken, rows) for rows in kept],
        bounds,
    )


def sims_scan(
    query: np.ndarray,
    column: WordColumn,
    config: SAXConfig,
    fetch: FetchFn,
    initial_bsf: float = float("inf"),
    initial_answer: int = -1,
    block_records: int = SIMS_BLOCK_RECORDS,
) -> QueryResult:
    """Exact nearest neighbor via lower-bound scan + skip-sequential fetch.

    Parameters
    ----------
    query:
        Raw (z-normalized) query series.
    column:
        The full-cardinality SAX words of the N records, in the same
        order as the records are laid out on disk.
    fetch:
        Callback that reads raw series for ascending positions and
        returns (series rows, identifier per row).  It is responsible
        for charging I/O to the simulated disk.  A :class:`RawFetch`
        may also read a block paged (:func:`fetch_rows_that_can_win`).
    initial_bsf / initial_answer:
        Best-so-far seeded by a preceding approximate search; the
        better the seed, the more records are pruned (paper Fig. 9d-f).
        A finite ``initial_bsf`` needs the ``initial_answer`` at that
        distance: ``ValueError`` otherwise, before anything is read.

    The ``k = 1`` one-query call of
    :func:`repro.parallel.batch.batched_exact_knn`, its heap seeded
    with ``(initial_bsf, initial_answer)``; unseeded, the heap is
    primed from the lowest bounds.  The answer is the smallest
    ``(distance, id)`` pair: a record whose bound ties ``bsf`` is
    still fetched, and distance ties go to the smaller identifier.
    Returned as the engine's outcome's unmeasured
    :func:`~repro.indexes.base.best_of` (``-1`` at ``inf`` when the
    column is empty).
    """
    if initial_answer < 0 and initial_bsf < float("inf"):
        raise ValueError(
            f"initial_bsf {initial_bsf!r} needs the initial_answer at that distance"
        )
    from ..parallel.batch import batched_exact_knn  # deferred: batch imports sims

    query = np.asarray(query, dtype=np.float64).ravel()
    (outcome,) = batched_exact_knn(
        query[None], 1, column, config, fetch,
        [[(initial_bsf, initial_answer)]], block_records,
    )
    return best_of(outcome)


class SIMSIndex(SeriesIndex):
    """Algorithm 5's four entry points over a summary column, written once.

    Approximate search, exact search, exact k-NN and ``query_batch`` are
    the same code whether the records sit in median-split leaves,
    prefix-split leaves, LSM runs or ADS's raw-file order.  A subclass
    supplies three hooks:

    * ``_seed(query, *probe_args)`` — the approximate probe's unmeasured
      :class:`QueryResult` for a query already checked: the approximate
      answer, and the pruning seed of a 1-NN search;
    * ``_approximate_batch(queries)`` — the unmeasured probe answers of
      a checked batch, in batch order, sharing the probe's reads across
      it;
    * ``_prepare_sims()`` -> ``(column, fetch)`` — loading whatever the
      column needs, charging its I/O to the caller's measurement.

    The one-query entry points pass their extra arguments through
    ``_probe_args``, which checks them before anything is read and
    returns what ``_seed`` gets after the query: none, and any extra
    argument is a ``TypeError``, except on ``CoconutTree``, whose probe
    takes a radius.
    """

    def _probe_args(self) -> tuple:
        """The probe arguments of a one-query call: none."""
        return ()

    @staticmethod
    def _probe_seeds(k: int) -> bool:
        """Whether an exact search for ``k`` neighbors seeds from the probe.

        Only at ``k = 1``: the probe's one answer fills a 1-NN heap, so
        the walk starts at a finite threshold.  A heap of ``k > 1`` would
        still be short after it, and the engine primes a short heap from
        its lowest-bound rows anyway
        (:func:`repro.parallel.batch.prime_short_heaps`), so a ``k > 1``
        search runs unseeded, as a served exact ticket does.
        """
        return k == 1

    def approximate_search(self, query: np.ndarray, *probe_args) -> QueryResult:
        """The probe (Algorithm 4 on the Coconut indexes), measured."""
        probe_args = self._probe_args(*probe_args)
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            result = self._seed(query, *probe_args)
        return measure.stamp(result)

    def exact_search(self, query: np.ndarray, *probe_args) -> QueryResult:
        """Algorithm 5: the probe seeds :func:`sims_scan` over the column.

        The probe's records count as visited, and its leaves are the
        visited leaves.
        """
        probe_args = self._probe_args(*probe_args)
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            column, fetch = self._prepare_sims()
            seed = self._seed(query, *probe_args)
            result = sims_scan(
                query, column, self.config, fetch, seed.distance, seed.answer_idx
            )
        result.visited_records += seed.visited_records
        result.visited_leaves = seed.visited_leaves
        return measure.stamp(result)

    def exact_knn(self, query: np.ndarray, k: int, *probe_args):
        """Exact k nearest neighbors: the engine's one-query call.

        At ``k = 1`` the engine is seeded by the probe's answer; at
        ``k > 1`` it runs unseeded and primes its heap
        (:meth:`_probe_seeds`), so no probe runs and ``visited_records``
        counts only the rows the engine fetched.

        Returns a :class:`repro.core.knn.KNNOutcome` carrying the
        query's I/O, any probe's and summary load included.
        """
        probe_args = self._probe_args(*probe_args)
        k = check_k(k)
        query = self._query_array(query)
        (outcome,), probes, measure = self._exact_knn_batch(
            query[None], k, lambda: [self._seed(query, *probe_args)]
        )
        for probe in probes:
            outcome.visited_records += probe.visited_records
        return measure.stamp(outcome)

    def _exact_knn_batch(self, queries: np.ndarray, k: int, probe):
        """Exact k-NN of checked ``queries`` in one measurement.

        The column is prepared, ``probe()`` — the probe answers, one per
        query — runs only when :meth:`_probe_seeds` asks for seeds, and
        one :func:`repro.parallel.batch.batched_exact_knn` call answers
        every query.  Returns ``(outcomes, probe answers, measurement)``;
        the probe answers are empty when no probe ran.
        """
        from ..parallel.batch import batched_exact_knn  # deferred: batch imports sims

        with Measurement(self.disk) as measure:
            column, fetch = self._prepare_sims()
            probes = probe() if self._probe_seeds(k) else []
            seeds = [[(p.distance, p.answer_idx)] for p in probes] or None
            outcomes = batched_exact_knn(queries, k, column, self.config, fetch, seeds)
        return outcomes, probes, measure

    def query_batch(self, batch, query_workers=1):
        """Batched queries sharing work across the batch.

        The queries are checked, then ``query_workers`` (an integer or
        ``None``; it changes nothing, every batch runs on the calling
        thread).  An exact batch is :meth:`exact_knn`'s body over every
        query at once: the summary column is loaded once, a ``k = 1``
        batch is seeded from one probe pass (``_approximate_batch``),
        and every fetched record block serves all queries that still
        need it.  An approximate batch is that probe pass: a leaf — or,
        on the LSM, a run page window — several queries land in is read
        once.  Either way, answers are identical to issuing the queries
        one at a time.  The batch's predicted cost
        (:func:`repro.parallel.sched.plan_query_batch`) is attached as
        ``report.plan``.
        """
        from ..parallel import sched  # deferred: repro.parallel imports sims

        queries = self._query_matrix(batch.queries)
        sched.resolve_workers(query_workers)
        plan = sched.plan_query_batch(batch, self)
        if batch.mode == "approximate":
            with Measurement(self.disk) as measure:
                answers = self._approximate_batch(queries)
        else:
            answers, _, measure = self._exact_knn_batch(
                queries, batch.k, lambda: self._approximate_batch(queries)
            )
        report = BatchReport.of(answers, measure)
        report.plan = plan
        return report
