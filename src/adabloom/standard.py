"""Classic Bloom filter plus its textbook analytics.

Serves both as a baseline method and as the backing filter inside the
learned variants. The expected false positive rate of a filter with R
bits, n inserted keys and K hash functions is

    (1 - (1 - 1/R)^(K*n))^K

and the FPR-minimizing hash count for a given load is K = (R/n) ln 2,
at which point the FPR per bit-per-key approaches 0.5^ln2 (~0.6185).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .bits import BitVector, HashFamily

__all__ = [
    "StandardBloom",
    "build_standard",
    "query_standard",
    "expected_fpr_standard",
    "optimal_k",
    "OPTIMAL_FPR_BASE",
    "DEFAULT_K_CAP",
]

LN2 = math.log(2.0)

# FPR base of an optimally hashed filter: 0.5 ** ln 2. The only place
# this constant is defined; the disjoint allocator and the sandwiched
# allocator both import it.
OPTIMAL_FPR_BASE = 0.5 ** LN2

DEFAULT_K_CAP = 64


def round_half_away(x: float) -> int:
    """Round() with half-away-from-zero ties (x is never negative here)."""
    return int(math.floor(x + 0.5))


class StandardBloom:
    """R-bit Bloom filter with k double-hashing probes per item."""

    __slots__ = ("bits", "k", "family", "n_inserted")

    def __init__(self, bits: BitVector, k: int, family: HashFamily, n_inserted: int = 0):
        self.bits = bits
        self.k = k
        self.family = family
        self.n_inserted = n_inserted

    @property
    def size_bits(self) -> int:
        return self.bits.length_bits

    def contains(self, item: bytes | str) -> bool:
        """Membership test; false positives possible, false negatives not."""
        return self.bits.test_bits(self.family.indices(item, self.k, self.bits.length_bits))

    def contains_batch(self, base_a: np.ndarray, base_b: np.ndarray) -> np.ndarray:
        """Batch membership test from base-hash arrays of the master seed."""
        a, b = self.family.remix_pairs(base_a, base_b)
        return self.bits.test_hashed(a, b, self.k)

    def expected_fpr(self) -> float:
        return expected_fpr_standard(self.size_bits, self.n_inserted, self.k)

    def __repr__(self) -> str:
        return f"StandardBloom(r={self.size_bits}, k={self.k}, n={self.n_inserted})"


def _insert_pairs(bloom: StandardBloom, base_a: np.ndarray, base_b: np.ndarray) -> None:
    a, b = bloom.family.remix_pairs(base_a, base_b)
    bloom.bits.set_hashed(a, b, bloom.k)


def build_standard(keys: Iterable[bytes | str], r: int, k: int, seed: int) -> StandardBloom:
    """Insert every key with k hash functions into a fresh r-bit filter."""
    if r < 1:
        raise ValueError(f"filter size r must be >= 1, got {r}")
    if k < 0:
        raise ValueError(f"hash count k must be >= 0, got {k}")
    family = HashFamily(seed)
    bloom = StandardBloom(BitVector(r), k, family, 0)
    a, b = family.base_pairs(keys)  # raises TypeError on a key that is not bytes or str
    _insert_pairs(bloom, a, b)
    bloom.n_inserted = len(a)
    bloom.bits.freeze()
    return bloom


def query_standard(filt: StandardBloom, item: bytes | str) -> bool:
    return filt.contains(item)


def expected_fpr_standard(r: int, n: int, k: int) -> float:
    """Expected FPR of an r-bit filter holding n keys with k hashes."""
    if r < 1:
        raise ValueError(f"filter size r must be >= 1, got {r}")
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k == 0:
        return 1.0  # zero probes accept everything
    if n == 0:
        return 0.0
    load = -math.expm1(k * n * math.log1p(-1.0 / r))
    return load ** k


def optimal_k(r: int, n: int, k_cap: int = DEFAULT_K_CAP) -> int:
    """FPR-minimizing hash count Round((r/n) ln 2); capped when n = 0."""
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    if n == 0:
        return k_cap
    return round_half_away(r / n * LN2)
