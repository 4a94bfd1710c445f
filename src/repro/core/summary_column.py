"""The SIMS summary column: every record's summary, in on-disk order.

Algorithm 5 keeps the summarizations of the whole collection in memory
"in the same order as the leaves" and scans them instead of the data.
:class:`SummaryColumn` is that structure, once: the sorted invSAX keys
of N records, the SAX words they convert to, and the raw-file offset of
each.  Every exact answer rests on one constraint — **row ``i`` of the
column describes the ``i``-th record of the holder's on-disk order**
(the leaf file in directory order, or an LSM's runs in list order and
then its memtable) — so position ``i`` of a lower-bound scan over the
column can be fetched as record ``i``.  The holders (``CoconutTree``,
``CoconutTrie``, ``CoconutLSM``, ``ServiceSnapshot``) build a column
from the key and offset pieces they wrote and hand the engines
``(column, fetch)``; nothing else reads its arrays.

The scans themselves live on :class:`WordColumn`, the part of a column
that needs only the words (all ADS+ keeps, in raw-file order): the
words' :class:`~repro.summaries.sax.CellIndex` is built by the first
scan, shared by every later one — single queries, blocks, ranges,
concurrent served batches — and freed with the column.

The ``(key, offset)`` row a column packs to is also the on-disk record
of the Tree / Trie sidecars and of every LSM run: one layout, defined
here.
"""

from __future__ import annotations

import threading

import numpy as np

from ..summaries.sax import CellIndex, SAXConfig, mindist_paa_to_words
from .dtw_search import dtw_mindist_to_words
from .invsax import deinterleave_keys


def row_dtype(config: SAXConfig, series_length: int | None = None) -> np.dtype:
    """One ``(key, offset)`` row of a sidecar or an LSM run — or, given a
    ``series_length``, the materialized leaf record that extends it."""
    fields = [("k", config.key_dtype), ("off", "<i8")]
    if series_length is not None:
        fields.append(("series", "<f4", (series_length,)))
    return np.dtype(fields)


def pack_rows(keys: np.ndarray, offsets: np.ndarray, config: SAXConfig) -> bytes:
    """The bytes of ``(key, offset)`` rows, as sidecars and runs store them."""
    rows = np.zeros(len(keys), dtype=row_dtype(config))
    rows["k"] = keys
    rows["off"] = offsets
    return rows.tobytes()


def window_around(
    keys: np.ndarray, key: bytes, window: int, config: SAXConfig
) -> tuple[int, int]:
    """``[start, stop)`` of the ``window`` sorted keys nearest ``key``.

    Centred on the key's insertion point and clamped to the array, so
    a probe at either end still sees a full window when one exists.
    """
    probe = np.array([key], dtype=config.key_dtype)
    position = int(np.searchsorted(keys, probe[0]))
    start = max(0, min(position - window // 2, len(keys) - window))
    return start, min(len(keys), start + window)


class WordColumn:
    """The SAX ``words`` of N records and the lower-bound scans over them."""

    def __init__(self, config: SAXConfig, words: np.ndarray):
        self.config = config
        self.words = words
        self._cells: CellIndex | None = None
        self._cells_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.words)

    def _cell_index(self) -> CellIndex:
        """The words' gather index: built by whoever scans first, once —
        scans arriving together wait for the one building it."""
        if self._cells is None:
            with self._cells_lock:
                if self._cells is None:
                    self._cells = CellIndex.of(self.words, self.config)
        return self._cells

    def lower_bounds(
        self, query_paa: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Euclidean lower bounds from one query PAA (``(n,)``) or a
        ``(Q, w)`` block (``(Q, n)``) to rows ``start:stop``."""
        return mindist_paa_to_words(
            query_paa, self._cell_index().rows(start, stop), self.config
        )

    def dtw_lower_bounds(self, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """DTW lower bounds from a query envelope to every row."""
        return dtw_mindist_to_words(upper, lower, self._cell_index(), self.config)


class SummaryColumn(WordColumn):
    """``keys``, ``offsets`` and ``words`` of N records, in on-disk order."""

    def __init__(
        self,
        config: SAXConfig,
        key_parts: list[np.ndarray],
        offset_parts: list[np.ndarray],
    ):
        """Adopt the pieces in order; convert keys to words once."""
        # The typed empty heads keep a column of no pieces well-formed.
        self.keys = np.concatenate(
            [np.empty(0, dtype=config.key_dtype), *key_parts]
        )
        self.offsets = np.concatenate(
            [np.empty(0, dtype=np.int64), *offset_parts]
        )
        super().__init__(config, deinterleave_keys(self.keys, config))

    def packed(self) -> bytes:
        """The column as ``(key, offset)`` rows — the sidecar's content."""
        return pack_rows(self.keys, self.offsets, self.config)

    def raw_fetch(self, raw):
        """The secondary-index SIMS fetch: positions -> rows of ``raw``."""
        all_offsets = self.offsets

        def fetch(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            offsets = all_offsets[positions]
            return raw.get_many(offsets), offsets

        return fetch
