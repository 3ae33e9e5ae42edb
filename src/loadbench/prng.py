"""Deterministic pseudo-randomness shared by every component.

Everything that needs randomness (dataset generation, shuffling, augmentation
decisions, tuning-candidate order) draws from splitmix64 so that a seed fully
determines the output, independent of platform, worker count, or numpy
version.  splitmix64 is counter-based: the n-th output of a stream seeded
with ``s`` is ``mix64(s + (n + 1) * GAMMA)``, which makes bulk generation a
pure vectorized computation.

Constants (Steele, Lea & Flood's reference values):
    GAMMA = 0x9E3779B97F4A7C15
    mix64: xor-shift 30 / mul 0xBF58476D1CE4E5B9 / xor-shift 27 /
           mul 0x94D049BB133111EB / xor-shift 31
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Finalizer of splitmix64: a 64-bit bijective scrambler."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *tokens: int | str) -> int:
    """Derive an independent sub-stream seed from ``seed`` and a token path.

    Strings are folded byte-by-byte, integers as 8 little-endian bytes, each
    byte passing through ``mix64``.  Used to split streams per split name,
    per epoch, per sample id, etc.
    """
    h = mix64(seed)
    for tok in tokens:
        if isinstance(tok, str):
            payload = tok.encode("utf-8")
        else:
            payload = (int(tok) & MASK64).to_bytes(8, "little")
        for byte in payload:
            h = mix64(h ^ byte)
    return h


class SplitMix64:
    """Stateful scalar splitmix64 generator (pure-Python integers)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound).  Modulo of a 64-bit draw; the bias
        is at most bound / 2**64 and irrelevant at the bounds used here."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_float(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of every element of a uint64 array (arithmetic wraps)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_u64(seed: int, n: int) -> np.ndarray:
    """First ``n`` outputs of ``SplitMix64(seed)`` as a uint64 array.

    Exploits the counter form: out[i] = mix64(seed + (i + 1) * GAMMA).
    """
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return mix64_array(np.uint64(seed & MASK64) + idx * np.uint64(GAMMA))


def stream_bytes(seed: int, n: int) -> bytes:
    """``n`` deterministic bytes: the u64 stream viewed as little-endian."""
    n_words = (n + 7) // 8
    words = stream_u64(seed, n_words)
    return words.astype("<u8").tobytes()[:n]


def fisher_yates(n: int, seed: int) -> np.ndarray:
    """Seeded Fisher-Yates permutation of 0..n-1 (int64).

    The swap at position i (n-1 down to 1) is with ``SplitMix64(seed)``'s
    next draw modulo i + 1.  The draws do not depend on the swaps, so they
    are taken in bulk; only the swap loop is sequential.
    """
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    draws = (stream_u64(seed, len(bounds)) % bounds).tolist()
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), draws):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)
