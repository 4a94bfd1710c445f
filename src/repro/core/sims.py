"""Skip-sequential scan of in-memory summarizations (SIMS).

The exact-search engine shared by the Coconut indexes (Algorithm 5,
CoconutTreeSIMS) and the ADS baseline (the original SIMS).  The
summarizations of the whole collection are held in memory, a vectorized
pass computes a lower bound for every record, and only records whose
bound beats the best-so-far answer are fetched from disk — in storage
order, so the disk head only moves forward (skip-sequential access).

The caller provides the summary column (aligned with its on-disk record
order) and a fetch callback; this module owns the pruning loop, which
re-filters after every fetched block because the best-so-far keeps
shrinking as real distances come in.

:class:`SIMSIndex` is what the Coconut indexes share *above* that loop:
given an approximate probe and a ``(column, fetch)`` pair, exact search,
exact k-NN and the batched entry points are the same code whether the
records sit in median-split leaves, prefix-split leaves or LSM runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..indexes.base import Measurement, QueryResult, SeriesIndex, check_k
from ..series.distance import early_abandon_euclidean_block
from ..summaries.paa import paa
from ..summaries.sax import SAXConfig
from .summary_column import WordColumn

#: fetch(positions ascending) -> (series matrix, identifier per row)
FetchFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

#: Records refined per skip-sequential fetch block.  Shared by every
#: SIMS-style engine (single-query, batched, parallel) so thresholds
#: are re-consulted on the same cadence everywhere, and used by the
#: query scheduler as the ceiling on its fetch-partition floor (a
#: partition never needs to be larger than one refine block).
SIMS_BLOCK_RECORDS = 4096


@dataclass
class SIMSOutcome:
    answer_id: int
    distance: float
    visited_records: int
    pruned_fraction: float


def sims_scan(
    query: np.ndarray,
    column: WordColumn,
    config: SAXConfig,
    fetch: FetchFn,
    initial_bsf: float = float("inf"),
    initial_answer: int = -1,
    block_records: int = SIMS_BLOCK_RECORDS,
) -> SIMSOutcome:
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
        for charging I/O to the simulated disk.
    initial_bsf / initial_answer:
        Best-so-far seeded by a preceding approximate search; the
        better the seed, the more records are pruned (paper Fig. 9d-f).
    """
    query = np.asarray(query, dtype=np.float64).ravel()
    query_paa = paa(query, config.word_length)[0]
    mindists = column.lower_bounds(query_paa)
    bsf = float(initial_bsf)
    answer = int(initial_answer)
    candidates = np.nonzero(mindists < bsf)[0]
    visited = 0
    for start in range(0, len(candidates), block_records):
        block = candidates[start : start + block_records]
        # bsf may have shrunk since the candidate list was computed.
        block = block[mindists[block] < bsf]
        if len(block) == 0:
            continue
        series, identifiers = fetch(block)
        # A row the kernel abandons (``inf``) provably has distance
        # > bsf, so it could never have won the argmin update below.
        distances = early_abandon_euclidean_block(query, series, bsf)
        visited += len(block)
        best = int(np.argmin(distances))
        if distances[best] < bsf:
            bsf = float(distances[best])
            answer = int(identifiers[best])
    n = len(column)
    pruned = 1.0 - (visited / n) if n else 0.0
    return SIMSOutcome(
        answer_id=answer,
        distance=bsf,
        visited_records=visited,
        pruned_fraction=pruned,
    )


class SIMSIndex(SeriesIndex):
    """Exact search, exact k-NN and batches over a summary column.

    A subclass supplies :meth:`approximate_search` (the pruning seed),
    ``_prepare_sims()`` -> ``(column, fetch)`` — loading whatever the
    column needs, charging its I/O to the caller's measurement — plus
    the two halves of its batched approximate pass,
    ``_approx_visit_order(queries)`` and
    ``_approx_answer_subset(queries, ctx, order, device=None)``: the
    visit order plus context, and the answers of a slice of that order
    with every read bound to ``device`` (the parent when ``None``).
    """

    def exact_search(self, query: np.ndarray) -> QueryResult:
        """Algorithm 5: SIMS over the column, seeded by the probe."""
        return self._sims_exact_search(query)

    def _sims_exact_search(self, query: np.ndarray, *probe_args) -> QueryResult:
        """``exact_search`` with ``probe_args`` passed on to the probe."""
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            column, fetch = self._prepare_sims()
            seed = self.approximate_search(query, *probe_args)
            outcome = sims_scan(
                query,
                column,
                self.config,
                fetch,
                initial_bsf=seed.distance,
                initial_answer=seed.answer_idx,
            )
        return QueryResult(
            answer_idx=outcome.answer_id,
            distance=outcome.distance,
            visited_records=outcome.visited_records + seed.visited_records,
            visited_leaves=seed.visited_leaves,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
            pruned_fraction=outcome.pruned_fraction,
        )

    def exact_knn(self, query: np.ndarray, k: int):
        """Exact k nearest neighbors via the SIMS kNN scan (core.knn).

        The heap is seeded with the probe's best answer; returns a
        :class:`repro.core.knn.KNNOutcome` carrying the query's I/O.
        """
        from .knn import seeded_sims_knn

        return seeded_sims_knn(self, query, check_k(k), self._prepare_sims)

    def query_batch(self, batch, query_workers=1):
        """Batched queries sharing work across the batch (repro.parallel).

        Exact batches share one SIMS pass: the summary column is loaded
        once and every fetched record block serves all queries that
        still need it.  Approximate batches share probe reads: a leaf
        (or, on the LSM, a run page window) several queries land in is
        read once.  Either way, answers are identical to issuing the
        queries one at a time.

        ``query_workers`` is checked (an integer or ``None``) and
        otherwise ignored: every batch runs on the calling thread.  The
        batch's predicted cost is attached as ``report.plan``
        (:func:`repro.parallel.sched.run_sims_query_batch`).
        """
        from ..parallel.sched import run_sims_query_batch

        return run_sims_query_batch(self, batch, query_workers=query_workers)

    def _approximate_batch(self, queries: np.ndarray) -> list[QueryResult]:
        """Per-query approximate answers sharing the probe's reads.

        Mirrors :meth:`approximate_search` exactly (same candidates,
        same answers): one subset spanning the whole visit order, on
        the parent device, with one cache.
        """
        order, ctx = self._approx_visit_order(queries)
        results: list[QueryResult | None] = [None] * len(queries)
        for qi, result in self._approx_answer_subset(queries, ctx, order):
            results[qi] = result
        return results
