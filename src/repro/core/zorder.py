"""Generic z-order keys for arbitrary vector summarizations.

The paper claims (Sec. 2) that Coconut's infrastructure "can be used
in conjunction with any summarization that represents a sequence as a
multi-dimensional point" — DFT, wavelets, PLA, SVD features and so on.
This module delivers that claim: quantize any float feature matrix
dimension-wise (by empirical quantiles, mirroring how SAX breakpoints
equalize symbol usage) and interleave the resulting code bits into
sortable byte-string keys.  The bit-interleaving kernel lives here
once; invSAX (:mod:`repro.core.invsax`) is this kernel applied to SAX
words.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Quantizer:
    """Per-dimension quantile quantizer fitted on a feature sample."""

    bits: int
    boundaries: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 16:
            raise ValueError(f"bits must be in [1, 16], got {self.bits}")

    @property
    def levels(self) -> int:
        return 1 << self.bits

    def fit(self, features: np.ndarray) -> "Quantizer":
        """Learn per-dimension breakpoints from a (N, D) sample."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        quantiles = np.linspace(0.0, 1.0, self.levels + 1)[1:-1]
        self.boundaries = np.quantile(features, quantiles, axis=0)  # (levels-1, D)
        return self

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Quantize features to (N, D) integer codes."""
        if self.boundaries.size == 0:
            raise RuntimeError("call fit() before encode()")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        codes = np.empty(features.shape, dtype=np.uint16)
        for d in range(features.shape[1]):
            codes[:, d] = np.searchsorted(
                self.boundaries[:, d], features[:, d], side="left"
            )
        return codes


def interleave_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Bit-interleave integer codes into big-endian byte-string keys.

    The generic core of Algorithm 1: for each significance level (MSB
    first) and each dimension in order, emit one bit.  One whole
    ``(N, D)`` level block is written per iteration into a row-padded
    bit matrix that ``np.packbits`` folds into bytes, so pad bits of a
    key width that is not a multiple of 8 are zero.  Returns an (N,)
    array of dtype ``S{ceil(D * bits / 8)}``.
    """
    codes = np.atleast_2d(np.asarray(codes))
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
    n, d = codes.shape
    if codes.size and (codes.min() < 0 or codes.max() >= (1 << bits)):
        raise ValueError(f"code out of range for {bits} bits")
    key_bytes = -(-d * bits // 8)
    bit_matrix = np.zeros((n, key_bytes * 8), dtype=np.uint8)
    for level in range(bits):
        np.right_shift(
            codes,
            bits - 1 - level,
            out=bit_matrix[:, level * d : (level + 1) * d],
            casting="unsafe",  # keeps the low byte; masked to one bit below
        )
    bit_matrix &= 1
    return np.packbits(bit_matrix).view(f"S{key_bytes}")


def deinterleave_codes(keys: np.ndarray, n_dimensions: int, bits: int) -> np.ndarray:
    """Invert :func:`interleave_codes`: (N, D) ``uint16`` codes.

    Keys narrower than ``S{ceil(D * bits / 8)}`` are legal (NumPy
    strips trailing NULs); wider ones would lose their tail, so they
    are rejected.
    """
    key_bytes = -(-n_dimensions * bits // 8)
    keys = np.asarray(keys)
    if keys.dtype.kind == "S" and keys.dtype.itemsize > key_bytes:
        raise ValueError(
            f"keys are {keys.dtype.itemsize} bytes wide, expected at most "
            f"{key_bytes} for {n_dimensions} dimensions x {bits} bits"
        )
    keys = np.ascontiguousarray(keys, dtype=f"S{key_bytes}")
    bit_matrix = np.unpackbits(keys.view(np.uint8)).reshape(len(keys), key_bytes * 8)
    codes = np.zeros((len(keys), n_dimensions), dtype=np.uint16)
    for level in range(bits):
        codes <<= 1
        codes |= bit_matrix[:, level * n_dimensions : (level + 1) * n_dimensions]
    return codes


def zorder_keys_for_features(
    features: np.ndarray, bits: int = 8, quantizer: Quantizer | None = None
) -> tuple[np.ndarray, Quantizer]:
    """One-call helper: fit (or reuse) a quantizer and produce keys."""
    if quantizer is None:
        quantizer = Quantizer(bits=bits).fit(features)
    codes = quantizer.encode(features)
    return interleave_codes(codes, quantizer.bits), quantizer
