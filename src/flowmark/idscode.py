"""Watermark-to-codeword construction.

Each watermark bit is spread into a block of `spread` codeword positions
(the bit leads the block, the rest are zero), then the sparse sequence is
xor-ed with a pseudo-random key known to both embedder and decoder.  Since
the codeword differs from the key in at most one position per block, the
decoder can infer lost and inserted positions by comparing against the key.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np


def as_bits(seq) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 values, validating entries."""
    bits = np.asarray(seq, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if bits.size and bits.max(initial=0) > 1:
        raise ValueError("bit sequence entries must be 0 or 1")
    return bits


def whole_number(name: str, value) -> None:
    """Refuse a setting that is not a whole number: a bool, or anything
    that is not a numbers.Integral (numpy integers are)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be a whole number, not {value!r}")


@dataclass(frozen=True)
class WatermarkConfig:
    """Watermark bits plus the parameters shared by embedder and decoder."""

    watermark: np.ndarray
    spread: int
    delta: float
    key_seed: int

    def __post_init__(self):
        w = as_bits(self.watermark)
        w.flags.writeable = False
        object.__setattr__(self, "watermark", w)
        whole_number("spread", self.spread)
        whole_number("key_seed", self.key_seed)
        if self.spread < 1:
            raise ValueError("spread factor must be a positive integer")
        if not 0.0 < self.delta < np.inf:
            raise ValueError("delta must be positive")

    @property
    def n_bits(self) -> int:
        """Watermark length."""
        return int(self.watermark.size)

    @property
    def code_len(self) -> int:
        """Codeword length: spread * n_bits."""
        return self.spread * self.n_bits


def sparsify(w, spread: int) -> np.ndarray:
    """Spread each watermark bit into a block: bit first, zeros after.

    The number of 1s is preserved, so the result stays sparse and the
    codeword stays close to the key.
    """
    w = as_bits(w)
    whole_number("spread", spread)
    if spread < 1:
        raise ValueError("spread factor must be a positive integer")
    out = np.zeros(w.size * spread, dtype=np.uint8)
    out[::spread] = w
    return out


def keystream(seed: int, length: int) -> np.ndarray:
    """Pseudo-random key bits, reproducible from the seed (PCG64)."""
    whole_number("seed", seed)
    whole_number("length", length)
    if length < 0:
        raise ValueError("length must be nonnegative")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def watermark_bits(seed: int, n: int) -> np.ndarray:
    """Draw n uniform watermark bits from a dedicated, documented stream."""
    whole_number("seed", seed)
    whole_number("n", n)
    if n < 1:
        raise ValueError("watermark length must be positive")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x77617465])))
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def encode(w, cfg: WatermarkConfig) -> np.ndarray:
    """Codeword = sparsified watermark xor key."""
    w = as_bits(w)
    if w.size != cfg.n_bits:
        raise ValueError(f"watermark length {w.size} does not match config ({cfg.n_bits})")
    key = keystream(cfg.key_seed, cfg.code_len)
    return np.bitwise_xor(sparsify(w, cfg.spread), key)
