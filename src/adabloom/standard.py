"""Classic Bloom filter, its textbook analytics, and the score-gated stage core.

Serves both as a baseline method and as the stage every learned variant
is made of. The expected false positive rate of a filter with R bits,
n inserted keys and K hash functions is

    (1 - (1 - 1/R)^(K*n))^K

and the FPR-minimizing hash count for a given load is K = (R/n) ln 2,
at which point the FPR per bit-per-key approaches 0.5^ln2 (~0.6185).

A :class:`GatedBloom` is a tuple of stages ``(lo, hi, StandardBloom)``.
A query with score s passes iff every stage whose interval [lo, hi)
holds s passes; a key goes into every stage whose interval holds its
score. The four learned filters are such stage tuples:

- learned: ``((0, tau, backup),)``, so scores >= tau pass outright;
- sandwiched: ``((0, inf, initial), (0, tau, backup))``;
- adaptive: one stage per group with K_j > 0, all on one shared array;
- disjoint: one stage per group with R_j > 0, each with its own array
  and hash lane.

A bound lo <= 0 or hi > 1 is an open end, so the top group's stage, with
hi = inf, holds the score 1. Both query paths of a ``GatedBloom`` raise
``ValueError`` on a missing, NaN or out-of-range score; ``StandardBloom``
takes a score too and ignores it.

The batch query and ``insert_keys`` pick each stage's items with
``_stage_items``. A batch that comes with ``ProbeRows`` is in ascending
score order (see ``bits.ProbeRows``), so a stage's items are one run of
it: two ``searchsorted`` calls give the range [i0, i1), the inputs are
views and the answers are written to ``out[i0:i1]``. Only a stage whose
interval overlaps an earlier one (a sandwich's backup) can hold items
already rejected; it narrows to the survivors inside its range. Any other
batch (a plain dataset, a query batch, a loaded filter) is selected by a
boolean mask over the whole batch. Both give the same items; a NaN key
score sorts last and counts as above every bound.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .bits import BitVector, HashFamily, ProbeRows
from .scores import ScoredDataset, check_scores

__all__ = [
    "StandardBloom",
    "GatedBloom",
    "build_standard",
    "insert_keys",
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
        if k < 0:
            raise ValueError(f"hash count k must be >= 0, got {k}")
        self.bits = bits
        self.k = k
        self.family = family
        self.n_inserted = n_inserted

    @property
    def size_bits(self) -> int:
        return self.bits.length_bits

    @property
    def seed(self) -> int:
        return self.family.seed

    def contains(self, item: bytes | str, score: float | None = None) -> bool:
        """Membership test; false positives possible, false negatives not.

        ``score`` is ignored: it is accepted so every filter answers one call.
        """
        return self.bits.test_bits(self.family.iter_indices(item, self.k, self.bits.length_bits))

    def contains_batch(self, base_a: np.ndarray, base_b: np.ndarray,
                       scores: np.ndarray | None = None, *,
                       rows: ProbeRows | None = None) -> np.ndarray:
        """Batch membership test from base-hash arrays of the master seed.

        With ``rows``, from a score-ordered view, the batch's hashes are read
        from the view instead (``ProbeRows.pairs``: the held final pairs of
        lanes 0 and 1, no remix) and the probe reads its cached columns.
        """
        if rows is None:
            return self.bits.test_hashed(*self.family.remix_pairs(base_a, base_b), self.k)
        return self.bits.test_hashed(*rows.pairs(self.family), self.k,
                                     cached=rows.cached(self.family, self.bits.length_bits))

    def expected_fpr(self) -> float:
        return expected_fpr_standard(self.size_bits, self.n_inserted, self.k)

    def __repr__(self) -> str:
        return f"StandardBloom(r={self.size_bits}, k={self.k}, n={self.n_inserted})"


def _stage_items(scores: np.ndarray, lo: float, hi: float, ordered: bool,
                 alive: np.ndarray | None = None):
    """(selector, count) of the items with ``lo <= score < hi`` that ``alive`` keeps.

    lo <= 0 and hi > 1 are open ends, and a NaN score counts as above
    every bound. On ``ordered`` scores (ascending, NaN last) the selector
    is the slice [i0, i1), or the survivors' indices inside it if
    ``alive`` rejects some there; otherwise it is a boolean mask.
    """
    if not ordered:
        sel = scores < hi if hi <= 1.0 else np.ones(len(scores), dtype=bool)
        if lo > 0.0:
            sel &= ~(scores < lo)
        if alive is not None:
            sel &= alive
        return sel, int(np.count_nonzero(sel))
    i0 = int(np.searchsorted(scores, lo)) if lo > 0.0 else 0
    i1 = int(np.searchsorted(scores, hi)) if hi <= 1.0 else len(scores)
    sel = slice(i0, max(i0, i1))
    if alive is not None:
        inside = alive[sel]
        if not inside.all():  # an earlier, overlapping stage rejected some
            kept = np.flatnonzero(inside) + i0
            return kept, len(kept)
    return sel, sel.stop - i0


class GatedBloom:
    """Score-gated Bloom stages; see the module docstring. Zero FNR."""

    __slots__ = ("stages", "seed", "model_bits")

    def __init__(self, stages, seed: int, model_bits: int = 0):
        self.stages: tuple[tuple[float, float, StandardBloom], ...] = tuple(stages)
        self.seed = seed
        self.model_bits = model_bits

    def contains(self, item: bytes | str, score: float | None = None) -> bool:
        """True iff every stage whose [lo, hi) holds ``score`` holds the item."""
        if score is None:
            raise ValueError(f"{type(self).__name__} queries need a score")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {score}")
        return all(stage.contains(item) for lo, hi, stage in self.stages if lo <= score < hi)

    def contains_batch(self, base_a: np.ndarray, base_b: np.ndarray,
                       scores: np.ndarray | None = None, *,
                       rows: ProbeRows | None = None) -> np.ndarray:
        """Batch ``contains`` from base-hash arrays of the master seed.

        ``rows`` gives the items' rows in a score-ordered view's probe cache;
        a batch with rows must be in ascending score order (see ``ProbeRows``),
        or ValueError: its stages pick score ranges, and a range of an
        unordered batch would send keys to the wrong stages.
        """
        if scores is None:
            raise ValueError(f"{type(self).__name__} queries need a score")
        scores = check_scores(scores)
        if rows is not None and not (scores[1:] >= scores[:-1]).all():
            raise ValueError("a batch with probe rows must be in ascending score order")
        out = np.ones(len(scores), dtype=bool)
        for lo, hi, stage in self.stages:
            sel, count = _stage_items(scores, lo, hi, rows is not None, out)
            if count == len(scores):  # every item, none yet rejected: no copies
                out = stage.contains_batch(base_a, base_b, rows=rows)
            elif count:
                out[sel] = stage.contains_batch(
                    base_a[sel], base_b[sel], rows=None if rows is None else rows.select(sel))
        return out


def insert_keys(dataset: ScoredDataset, seed: int, stages) -> None:
    """Insert each key into every stage whose [lo, hi) holds its score.

    Sets each stage's ``n_inserted`` to its key count, then freezes the bits.
    On a score-ordered view each stage's keys are a slice, inserted by
    ``ProbeRows.insert``: it reads the view's final pairs and cached probe
    columns, and a fresh stage that extends the view's last fresh fill of
    the same geometry (an ``lbf`` backup at a larger tau, with the same R
    and k) starts from that fill's bytes and inserts only the keys past it.
    """
    rows = dataset.probe_rows(keys=True)
    for lo, hi, stage in stages:
        sel, stage.n_inserted = _stage_items(dataset.key_scores, lo, hi, rows is not None)
        if rows is not None:
            rows.select(sel).insert(stage.bits, stage.family, stage.k)
        elif stage.n_inserted:
            base_a, base_b = dataset.key_pairs(seed)
            a, b = stage.family.remix_pairs(base_a[sel], base_b[sel])
            stage.bits.set_hashed(a, b, stage.k)
    for _, _, stage in stages:
        stage.bits.freeze()


def build_standard(keys: Iterable[bytes | str], r: int, k: int, seed: int) -> StandardBloom:
    """Insert every key with k hash functions into a fresh r-bit filter."""
    if r < 1:
        raise ValueError(f"filter size r must be >= 1, got {r}")
    family = HashFamily(seed)
    bloom = StandardBloom(BitVector(r), k, family, 0)
    a, b = family.base_pairs(keys)  # raises TypeError on a key that is not bytes or str
    a, b = family.remix_pairs(a, b)
    bloom.bits.set_hashed(a, b, k)
    bloom.n_inserted = len(a)
    bloom.bits.freeze()
    return bloom


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
    """FPR-minimizing hash count min(k_cap, Round((r/n) ln 2)); k_cap when n = 0.

    Past the default cap of 64 (above about 92 bits per key) the expected
    FPR is below 1e-19 either way, while every insert and every hit costs
    k probes.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    if n == 0:
        return k_cap
    return min(k_cap, round_half_away(r / n * LN2))
