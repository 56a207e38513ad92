"""Learned Bloom filter and its sandwiched generalization.

A learned Bloom filter (Kraska et al., 2018) puts a score threshold tau
in front of a standard backup filter: queries scoring at or above tau
are accepted outright, everything else falls through to a Bloom filter
holding exactly the keys that score below tau. The sandwiched variant
(Mitzenmacher, 2018) adds an initial Bloom filter over all keys in
front of the threshold, with the bit budget split between the two
filters by a closed-form allocation.

Writing f_p for the fraction of non-keys at or above tau, f_n for the
fraction of keys below it, and mu = 0.5^ln2, the optimal backup size in
bits per key is

    b2* = f_n * ln(f_p / ((1 - f_p)(1/f_n - 1))) / ln(mu)

independent of the total budget b. When b2* >= b the initial filter
gets nothing and the structure reduces to a plain learned filter; when
b2* <= 0 every bit goes to the initial filter.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .bits import BitVector, HashFamily
from .scores import ScoredDataset
from .standard import OPTIMAL_FPR_BASE, GatedBloom, StandardBloom, insert_keys, optimal_k

__all__ = [
    "LearnedBloom",
    "SandwichedBloom",
    "build_lbf",
    "sandwich_allocate",
    "build_sandwiched",
]

logger = logging.getLogger(__name__)

_INITIAL_LANE = 1  # hash lane of the sandwiched initial filter


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:  # also rejects NaN
        raise ValueError(f"tau must be in [0, 1], got {tau}")


def _stage(bitmap_bits: int, n: int, seed: int, lane: int = 0) -> StandardBloom:
    """Empty stage for n keys, sized against bitmap_bits, k = Round((R/n) ln 2)."""
    return StandardBloom(BitVector(max(1, bitmap_bits)), optimal_k(bitmap_bits, n),
                         HashFamily(seed, lane), n)


class LearnedBloom(GatedBloom):
    """Score threshold in front of a backup Bloom filter; zero FNR."""

    __slots__ = ("tau", "backup", "bitmap_bits", "fp_above")

    def __init__(self, tau: float, backup: StandardBloom, bitmap_bits: int,
                 model_bits: int = 0, fp_above: float | None = None):
        _check_tau(tau)
        super().__init__(((0.0, tau, backup),), backup.seed, model_bits)
        self.tau = tau
        self.backup = backup
        self.bitmap_bits = bitmap_bits
        # fraction of build-time non-keys scoring >= tau, kept for analytics
        self.fp_above = fp_above

    contains_batch = GatedBloom.contains_batch  # perfbench traces each class's own attribute

    def expected_fpr(self) -> float | None:
        if self.fp_above is None:
            return None
        return self.fp_above + (1.0 - self.fp_above) * self.backup.expected_fpr()


def build_lbf(dataset: ScoredDataset, bitmap_bits: int, tau: float, seed: int,
              model_bits: int = 0) -> LearnedBloom:
    """Backup filter over the keys scoring below tau, k = Round((R/n0) ln 2)."""
    if bitmap_bits < 0:
        raise ValueError(f"bitmap_bits must be >= 0, got {bitmap_bits}")
    backup = _stage(bitmap_bits, np.count_nonzero(dataset.key_scores < tau), seed)
    fp_above = np.count_nonzero(dataset.nonkey_scores >= tau) / dataset.m if dataset.m else None
    filt = LearnedBloom(tau, backup, bitmap_bits, model_bits, fp_above)
    insert_keys(dataset, seed, filt.stages)
    return filt


def sandwich_allocate(f_p: float, f_n: float, budget_bits_per_key: float) -> tuple[float, float]:
    """Split a per-key bit budget between initial and backup filter.

    Returns (b1, b2). Degenerate optima clamp: all bits go to the
    backup (plain learned filter) when the optimum exceeds the budget,
    all bits to the initial filter when the optimum is non-positive.
    """
    if not 0.0 < f_p < 1.0:
        raise ValueError(f"f_p must be in (0, 1), got {f_p}")
    if not 0.0 < f_n < 1.0:
        raise ValueError(f"f_n must be in (0, 1), got {f_n}")
    if budget_bits_per_key < 0:
        raise ValueError(f"budget must be >= 0, got {budget_bits_per_key}")
    arg = f_p / ((1.0 - f_p) * (1.0 / f_n - 1.0))
    if arg == 0.0:  # underflow (tiny f_p or f_n): b2* tends to +inf, all bits to the backup
        return 0.0, float(budget_bits_per_key)
    b2 = f_n * math.log(arg) / math.log(OPTIMAL_FPR_BASE)
    if b2 <= 0.0:
        return float(budget_bits_per_key), 0.0
    if b2 >= budget_bits_per_key:
        return 0.0, float(budget_bits_per_key)
    return budget_bits_per_key - b2, b2


class SandwichedBloom(GatedBloom):
    """Initial filter, then score threshold, then backup filter; zero FNR."""

    __slots__ = ("tau", "initial", "backup", "bitmap_bits", "b1_bits", "b2_bits",
                 "fp_above", "fn_below", "fallback_reason")

    def __init__(self, tau: float, initial: StandardBloom | None, backup: StandardBloom,
                 bitmap_bits: int, b1_bits: int, b2_bits: int, model_bits: int = 0,
                 fp_above: float | None = None, fn_below: float | None = None,
                 fallback_reason: str | None = None):
        _check_tau(tau)
        stages = ((0.0, tau, backup),)
        if initial is not None:
            stages = ((0.0, math.inf, initial),) + stages
        super().__init__(stages, backup.seed, model_bits)
        self.tau = tau
        self.initial = initial
        self.backup = backup
        self.bitmap_bits = bitmap_bits
        self.b1_bits = b1_bits
        self.b2_bits = b2_bits
        self.fp_above = fp_above
        self.fn_below = fn_below
        self.fallback_reason = fallback_reason

    @property
    def reduced_to_lbf(self) -> bool:
        """True when the allocation gave the initial filter nothing."""
        return self.initial is None

    contains_batch = GatedBloom.contains_batch  # perfbench traces each class's own attribute

    def expected_fpr(self) -> float | None:
        if self.fp_above is None:
            return None
        through = self.fp_above + (1.0 - self.fp_above) * self.backup.expected_fpr()
        if self.initial is None:
            return through
        return self.initial.expected_fpr() * through


def build_sandwiched(dataset: ScoredDataset, bitmap_bits: int, tau: float, seed: int,
                     model_bits: int = 0) -> SandwichedBloom:
    """Sandwiched filter with the bit split chosen by ``sandwich_allocate``.

    f_p and f_n are estimated on the build dataset itself. When either
    rate hits 0 or 1 the allocation formula is undefined and the whole
    budget goes to the backup filter (plain learned-filter behavior).
    """
    if bitmap_bits < 0:
        raise ValueError(f"bitmap_bits must be >= 0, got {bitmap_bits}")
    n = dataset.n
    below = np.count_nonzero(dataset.key_scores < tau)
    f_n = below / n if n else 0.0
    f_p = np.count_nonzero(dataset.nonkey_scores >= tau) / dataset.m if dataset.m else 0.0

    fallback = None
    if n == 0:
        fallback = "no keys"
    elif not 0.0 < f_p < 1.0:
        fallback = f"f_p={f_p} outside (0, 1)"
    elif not 0.0 < f_n < 1.0:
        fallback = f"f_n={f_n} outside (0, 1)"

    if fallback is None:
        _, b2_per_key = sandwich_allocate(f_p, f_n, bitmap_bits / n)
        b2_bits = min(bitmap_bits, int(math.floor(b2_per_key * n + 0.5)))
    else:
        logger.debug("sandwich build falling back to backup-only split: %s", fallback)
        b2_bits = bitmap_bits
    b1_bits = bitmap_bits - b2_bits

    backup = _stage(b2_bits, below, seed)
    initial = _stage(b1_bits, n, seed, _INITIAL_LANE) if b1_bits > 0 else None
    filt = SandwichedBloom(tau, initial, backup, bitmap_bits, b1_bits, b2_bits, model_bits,
                           f_p if dataset.m else None, f_n if n else None, fallback)
    insert_keys(dataset, seed, filt.stages)
    return filt
