"""Coconut-Trie: bottom-up bulk-loaded, prefix-split data series index.

The paper's first design point (Algorithm 2): like the state of the
art, nodes are identified by iSAX prefixes, but the index is built
bottom-up from the externally sorted invSAX order, so the leaf level
is contiguous on disk.

The paper builds the trie with ``insertBottomUp`` (one node per
distinct word, masking least significant bits until a shared parent
prefix emerges) followed by ``CompactSubtree`` (merging sibling leaves
into their parent while they fit).  Because the paper masks bits in
interleaved significance order, every node's mask is a *prefix of the
z-order key*, and the fully compacted tree is exactly the set of
maximal key-prefix regions holding at most ``leaf_size`` records.  We
construct that set directly by recursive prefix partitioning of the
sorted key array — same resulting tree, one pass, no intermediate
single-record nodes.

Prefix splitting cannot balance data across children, so leaves are
sparsely filled (the space amplification of Sec. 3.2) — visible here
as low average fill factor and more leaf pages than Coconut-Tree for
the same data.

Everything but the split policy is
:class:`repro.core.bulk_index.BulkLoadedIndex`, shared with
Coconut-Tree: a prefix region can hold any number of records up to
``leaf_size``, so leaves are variable-length page runs appended one
after the other, and the approximate probe visits the single most
promising leaf (iSAX-style, Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..storage.disk import SimulatedDisk
from ..summaries.sax import SAXConfig
from .bulk_index import BulkLoadedIndex, payload_dtype
from .invsax import key_bytes


@dataclass
class _TrieLeaf:
    """A maximal prefix region holding at most ``leaf_size`` records."""

    prefix_bits: int
    first_key: bytes
    count: int
    start_page: int
    n_pages: int
    position: int  # rank of the leaf's first record in sorted order


class CoconutTrie(BulkLoadedIndex):
    """Contiguous, prefix-split index over sortable summarizations."""

    name = "Coconut-Trie"

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        config: SAXConfig | None = None,
        leaf_size: int = 100,
        materialized: bool = False,
    ):
        super().__init__(disk, memory_bytes, config, leaf_size, materialized)
        self.n_internal_nodes = 0
        self.max_depth = 0

    # ------------------------------------------------------------------
    # Construction (Algorithm 2): split by prefix
    # ------------------------------------------------------------------
    def _build_extra(self) -> dict:
        return {
            "internal_nodes": self.n_internal_nodes,
            "max_depth": self.max_depth,
        }

    def _bulk_load(self, sorted_chunks, rec: np.dtype) -> None:
        """Partition the sorted stream into maximal prefix regions.

        A region's extent is known only once every key sharing its
        prefix has been seen, so the stream is collected first.
        """
        chunks = list(sorted_chunks)
        # The typed empty heads keep an empty stream's arrays well-formed.
        keys = np.concatenate(
            [np.empty(0, dtype=self.config.key_dtype), *(k for k, _ in chunks)]
        )
        payloads = np.concatenate(
            [
                np.empty(
                    0, dtype=payload_dtype(self.raw.length, self.is_materialized)
                ),
                *(p for _, p in chunks),
            ]
        )
        if len(keys):
            raw_keys = keys.view(np.uint8).reshape(
                len(keys), self.config.key_bytes
            )
            self._partition(keys, raw_keys, payloads, rec, 0, len(keys), 0)
        self._set_summary_column([keys], [payloads["off"]])

    def _partition(
        self,
        keys: np.ndarray,
        raw_keys: np.ndarray,
        payloads: np.ndarray,
        rec: np.dtype,
        lo: int,
        hi: int,
        bit: int,
    ) -> None:
        """Recursively split [lo, hi) at ``bit`` until regions fit.

        Equivalent to insertBottomUp + CompactSubtree on the sorted
        stream: each emitted leaf is a maximal prefix region with at
        most ``leaf_size`` records (or an exhausted-prefix region).
        """
        count = hi - lo
        if count == 0:
            return
        if count <= self.leaf_size or bit >= self.config.key_bits:
            self._emit_leaf(keys, payloads, rec, lo, hi, bit)
            return
        self.n_internal_nodes += 1
        self.max_depth = max(self.max_depth, bit + 1)
        column = (raw_keys[lo:hi, bit >> 3] >> (7 - (bit & 7))) & 1
        boundary = lo + int(np.searchsorted(column, 1, side="left"))
        self._partition(keys, raw_keys, payloads, rec, lo, boundary, bit + 1)
        self._partition(keys, raw_keys, payloads, rec, boundary, hi, bit + 1)

    def _emit_leaf(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        rec: np.dtype,
        lo: int,
        hi: int,
        bit: int,
    ) -> None:
        records = self._pack_leaf(keys[lo:hi], payloads[lo:hi], rec)
        start_page = self._leaf_file.n_pages
        n_pages = self._leaf_file.write_stream(
            records.tobytes(), at_page=start_page
        )
        self._leaves.append(
            _TrieLeaf(
                prefix_bits=bit,
                first_key=key_bytes(keys[lo], self.config),
                count=hi - lo,
                start_page=start_page,
                n_pages=n_pages,
                position=lo,
            )
        )

    def _read_leaf_records(self, leaf: _TrieLeaf, leaf_file=None) -> np.ndarray:
        file = self._leaf_file if leaf_file is None else leaf_file
        data = file.read_stream(leaf.start_page, leaf.n_pages)
        return np.frombuffer(
            data[: leaf.count * self._leaf_dtype.itemsize], dtype=self._leaf_dtype
        )
