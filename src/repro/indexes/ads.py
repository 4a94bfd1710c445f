"""ADS: the Adaptive Data Series index (ADSFull and ADS+).

The paper's main competitor (Zoumpatianos et al., VLDB J. 2016).

* **ADSFull** builds an iSAX-style *clustered* index in two passes:
  pass 1 inserts (summary, offset) pairs into the buffered prefix tree
  (cheap — summaries are tiny); pass 2 streams the raw file again and
  routes every series into its leaf, materializing the leaves.  With
  scarce memory, pass-2 leaf flushes become random read-modify-writes.

* **ADS+** stops after pass 1: a minimal secondary index whose leaves
  hold only offsets.  Leaves are *adaptively* refined during query
  answering: the first query that visits a leaf splits it down to a
  fine query-time leaf size and materializes the raw series into it,
  paying the I/O that construction skipped.

Exact search is SIMS (Zoumpatianos et al.): the in-memory summary
column — aligned with the raw file order — is scanned with vectorized
lower bounds, and surviving records are fetched skip-sequentially from
the raw file.  Coconut's CoconutTreeSIMS (Algorithm 5) differs only by
scanning summaries in *index* order, so ADS is a
:class:`~repro.core.sims.SIMSIndex`: it supplies the probe (the leaf
the query routes to, materialized first on ADS+) and the
``(column, raw-file fetch)`` pair, and answers through the same four
entry points as the Coconut indexes — exact k-NN and exact batches
included, pruned by the one engine.
"""

from __future__ import annotations

import numpy as np

from ..core.sims import RawFetch, SIMSIndex
from ..core.summary_column import WordColumn
from ..series.distance import early_abandon_euclidean_block
from ..storage.disk import SimulatedDisk
from ..storage.seriesfile import RawSeriesFile
from ..summaries.sax import SAXConfig, sax_words
from .base import BuildReport, Measurement, QueryResult
from .isax2 import ISAXTree, _Leaf


class ADSIndex(SIMSIndex):
    """ADSFull (``plus=False``) or ADS+ (``plus=True``)."""

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None = None,
        leaf_size: int = 100,
        plus: bool = True,
        query_leaf_size: int | None = None,
    ):
        super().__init__(disk, memory_bytes)
        self.config = config or SAXConfig()
        self.leaf_size = leaf_size
        self.plus = plus
        self.is_materialized = not plus
        self.query_leaf_size = query_leaf_size or max(1, leaf_size // 10)
        self.name = "ADS+" if plus else "ADSFull"
        self.tree: ISAXTree | None = None
        self._column: WordColumn | None = None  # raw-file order, in memory
        self.adaptive_splits = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        with Measurement(self.disk) as measure:
            self.tree = ISAXTree(
                self.disk,
                self.config,
                raw.length,
                self.leaf_size,
                self.memory_bytes,
                materialized=not self.plus,
            )
            words_parts = []
            if self.plus:
                # Single pass: build the minimal secondary index.
                for start, block in raw.scan():
                    words = sax_words(block, self.config)
                    words_parts.append(words)
                    for i in range(len(block)):
                        self.tree.insert(words[i], start + i, None)
                self.tree.flush_all()
            else:
                # Pass 1 over summaries only (cheap structure building).
                skeleton = ISAXTree(
                    self.disk,
                    self.config,
                    raw.length,
                    self.leaf_size,
                    self.memory_bytes,
                    materialized=False,
                )
                for start, block in raw.scan():
                    words = sax_words(block, self.config)
                    words_parts.append(words)
                    for i in range(len(block)):
                        skeleton.insert(words[i], start + i, None)
                skeleton.flush_all()
                # Pass 2 over the raw file: materialize the leaves.
                for start, block in raw.scan():
                    words = sax_words(block, self.config)
                    for i in range(len(block)):
                        self.tree.insert(words[i], start + i, block[i])
                self.tree.flush_all()
            self._column = WordColumn(
                self.config,
                np.concatenate(words_parts)
                if words_parts
                else np.empty((0, self.config.word_length), dtype=np.uint16),
            )
        self.built = True
        n_leaves, fill = self.leaf_stats()
        return BuildReport(
            index_name=self.name,
            n_series=raw.n_series,
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=n_leaves,
            avg_leaf_fill=fill,
            extra={"splits": self.tree.n_splits},
        )

    def insert_batch(self, data: np.ndarray) -> BuildReport:
        raw = self._require_built()
        data = np.asarray(data, dtype=np.float32)
        with Measurement(self.disk) as measure:
            first = raw.append_batch(data)
            words = sax_words(data, self.config)
            for i in range(len(data)):
                self.tree.insert(
                    words[i], first + i, None if self.plus else data[i]
                )
            self._column = WordColumn(
                self.config, np.vstack([self._column.words, words])
            )
        n_leaves, fill = self.leaf_stats()
        return BuildReport(
            index_name=self.name,
            n_series=len(data),
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=n_leaves,
            avg_leaf_fill=fill,
        )

    # ------------------------------------------------------------------
    # Adaptive refinement (ADS+)
    # ------------------------------------------------------------------
    def _materialize_leaf(self, leaf: _Leaf, query_word: np.ndarray) -> _Leaf:
        """Split a visited leaf down to query granularity and fill it.

        The raw series of the (sub-)leaf are fetched from the raw file
        and written into the leaf pages — the deferred construction
        cost ADS+ pays at query time.
        """
        target = self.tree
        # Refine until the leaf holding the query region is small.
        while leaf.count > self.query_leaf_size:
            records = target._leaf_records_in_memory(leaf)
            before = target.n_splits
            target._split_leaf(leaf, records)
            if target.n_splits == before:
                break  # unsplittable (identical words)
            self.adaptive_splits += 1
            routed = target.route(query_word)
            if routed.count == 0:
                # The prefix split pushed everything to the sibling
                # region; answer from the populated one instead.
                leaf = target.route(records["w"][0])
                break
            leaf = routed
        if not leaf.materialized and leaf.count:
            records = target._leaf_records_in_memory(leaf)
            series = self.raw.get_many(records["off"])
            # Rewrite the leaf with raw series appended conceptually:
            # we charge the write of the series pages alongside.
            extra_pages = -(
                -len(records) * 4 * self.raw.length // self.disk.page_size
            )
            first = self.disk.allocate(max(1, extra_pages))
            blob = series.astype(np.float32).tobytes()
            for i in range(max(1, extra_pages)):
                chunk = blob[
                    i * self.disk.page_size : (i + 1) * self.disk.page_size
                ]
                self.disk.write_page(first + i, chunk)
            leaf.materialized = True
        return leaf

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _seed(self, query: np.ndarray) -> QueryResult:
        """The probe, unmeasured, for a query already checked: the leaf
        the query's word routes to (split and materialized first on
        ADS+), every record in it refined.  The approximate answer, and
        the seed of a 1-NN search."""
        word = sax_words(query[None, :], self.config)[0]
        leaf = self.tree.route(word, create=False)
        best_idx, best_dist, visited = -1, float("inf"), 0
        if leaf is not None and leaf.count:
            if self.plus:
                leaf = self._materialize_leaf(leaf, word)
            records = self.tree._leaf_records_in_memory(leaf)
            if self.plus or not self.is_materialized:
                series = self.raw.get_many(records["off"])
            else:
                series = records["series"].astype(np.float64)
            distances = early_abandon_euclidean_block(query, series, float("inf"))
            visited = len(records)
            j = int(np.argmin(distances))
            best_idx, best_dist = int(records["off"][j]), float(distances[j])
        return QueryResult(
            answer_idx=best_idx,
            distance=best_dist,
            visited_records=visited,
            visited_leaves=1 if visited else 0,
        )

    def _approximate_batch(self, queries: np.ndarray) -> list[QueryResult]:
        """The probe per query, in batch order: an ADS+ probe materializes
        the leaf it visits, so a later query may find it materialized."""
        return [self._seed(query) for query in queries]

    def _prepare_sims(self):
        """SIMS's pair: the summary column in raw-file order, and the raw
        file read straight by position."""
        return self._column, RawFetch(self.raw)

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        return self.tree.storage_bytes() if self.tree else 0

    def leaf_stats(self) -> tuple[int, float]:
        return self.tree.leaf_stats() if self.tree else (0, 0.0)
