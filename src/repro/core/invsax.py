"""invSAX: the sortable data series summarization (paper Sec. 4.1).

The paper's first contribution.  A SAX word lays its segments out one
after the other, so lexicographic order compares segment 0 at full
precision before even looking at segment 1 — sorting scatters similar
series (paper Fig. 2).  invSAX interleaves the bits instead: all the
most significant bits across segments come first, then all the
second-most-significant, and so on (Algorithm 1).  The resulting key
is the series' position on a z-order space-filling curve through the
summary space (Fig. 4), so sorting keeps similar series next to each
other — which is what enables external-sort bulk-loading and
median-based splitting.

Keys are fixed-width big-endian byte strings.  NumPy compares ``S<k>``
arrays lexicographically (trailing NUL bytes compare equal to absent
bytes, which only affects ties between equal keys), so sorting,
searching and merging operate on vectorized byte keys even for the
default 16 segments x 8 bits = 128-bit keys.

The transform is a bijection on full-cardinality words: nothing is
lost, so pruning power is identical to SAX (the paper's key argument
for why sortability is free).
"""

from __future__ import annotations

import numpy as np

from ..summaries.sax import SAXConfig, sax_words
from .zorder import deinterleave_codes, interleave_codes


def interleave_words(words: np.ndarray, config: SAXConfig) -> np.ndarray:
    """Bit-interleave SAX words into z-order keys (Algorithm 1).

    For each bit significance level ``i`` (most significant first) and
    each segment ``j`` in series order, output bit ``i`` of segment
    ``j`` (the kernel is :func:`repro.core.zorder.interleave_codes`).
    Returns an (N,) array of dtype ``S{key_bytes}``.
    """
    words = np.asarray(words)
    if words.size == 0:
        # Zero records interleave to zero keys regardless of the shape
        # the empty array arrived in (chunked pipelines legitimately
        # produce empty chunks).
        return np.empty(0, dtype=config.key_dtype)
    words = np.atleast_2d(words)
    if words.shape[1] != config.word_length:
        raise ValueError(
            f"expected {config.word_length} segments, got {words.shape[1]}"
        )
    return interleave_codes(words, config.bits_per_symbol)


def deinterleave_keys(keys: np.ndarray, config: SAXConfig) -> np.ndarray:
    """Invert :func:`interleave_words`: keys back to SAX words.

    The inverse direction of the paper's observation that switching
    between sortable and original form is "easy and efficient", which
    is why pruning power is preserved.
    """
    return deinterleave_codes(keys, config.word_length, config.bits_per_symbol)


def invsax_keys(batch: np.ndarray, config: SAXConfig) -> np.ndarray:
    """Summarize raw series straight to sortable keys."""
    return interleave_words(sax_words(batch, config), config)


def query_key(query: np.ndarray, config: SAXConfig) -> bytes:
    """The z-order key of one query series, as plain bytes."""
    return key_bytes(invsax_keys(np.asarray(query)[None, :], config)[0], config)


def key_bytes(key, config: SAXConfig) -> bytes:
    """Fixed-width bytes of a key (NumPy strips trailing NULs)."""
    return bytes(key).ljust(config.key_bytes, b"\x00")


def key_to_int(key, config: SAXConfig) -> int:
    """Numeric value of a key (big-endian); useful for tests/debugging."""
    return int.from_bytes(key_bytes(key, config), "big")


def int_to_key(value: int, config: SAXConfig) -> bytes:
    """Inverse of :func:`key_to_int`."""
    return value.to_bytes(config.key_bytes, "big")


def sortable_summary_size(config: SAXConfig) -> int:
    """Bytes per sortable summarization (same information as SAX)."""
    return config.key_bytes
