"""Score-adaptive Bloom filter: one shared bit array, per-group hash counts.

Rather than switching between K probes and none at a single threshold,
the adaptive filter splits the score axis into g groups and probes the
shared R-bit array K_j times for group j, with K_j decreasing as scores
rise: low-score regions are dense in non-keys and get many probes,
high-score regions are dense in keys and get few (possibly zero, which
accepts on score alone and inserts nothing).

With alpha the probability that any given bit is set,

    alpha = 1 - (1 - 1/R)^(sum_t n_t K_t)

a group-j query that reaches the array passes with probability
alpha^K_j, and the overall false positive rate is sum_j p_j alpha^K_j
with p_j the non-key mass of group j. When p_j / p_{j+1} >= c > 1 and
K_j steps down by one per group, that sum is bounded by a closed form
in (c, alpha, g, K_max), with equality for exactly geometric p; see
``fpr_upper_bound``. ``kmax_from_lbf`` picks the hash-count range that
makes the adaptive filter provably no worse than a threshold filter
with K probes at the same bit budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bits import BitVector, HashFamily, _check_count
from .scores import ScoredDataset, ScorePartition, check_ratio, is_integer
from .standard import GatedBloom, StandardBloom, alpha_load, insert_keys

__all__ = [
    "AdaptiveParams",
    "AdaptiveBloom",
    "build_ada",
    "plan_ada",
    "check_ladder",
    "alpha_load",
    "expected_fpr_ada",
    "fpr_upper_bound",
    "kmax_from_lbf",
]


def check_ladder(k_max: int, k_min: int) -> None:
    """ValueError unless k_max >= k_min >= 0 are integers: the ends of a step-one ladder.

    ``AdaptiveParams.from_ratio`` and ``tuning.build('ada', ...)`` both check
    it, the latter before g = k_max - k_min + 1 is derived from them, so a
    fractional k_max is refused by its own name, not as a fractional g.
    """
    if not (is_integer(k_max) and is_integer(k_min)):
        raise ValueError(f"need integers k_max >= k_min >= 0, got ({k_max}, {k_min})")
    if k_min < 0 or k_max < k_min:
        raise ValueError(f"need k_max >= k_min >= 0, got ({k_max}, {k_min})")


@dataclass(frozen=True)
class AdaptiveParams:
    """Partition plus one hash count per group (non-increasing in j).

    ``from_ratio`` builds the step-one ladder K_j = k_max - (j - 1) used
    by the tuning strategy; the constructor accepts any non-increasing
    ladder, which the reduction identities (a threshold filter is the g=2
    ladder (K, 0)) and the head-to-head comparison protocols need.
    """

    partition: ScorePartition
    k_per_group: tuple[int, ...]
    c: float | None = None

    def __post_init__(self):
        ks = self.k_per_group
        if len(ks) != self.partition.g:
            raise ValueError(f"need one hash count per group ({self.partition.g}), got {len(ks)}")
        if any(k < 0 for k in ks):
            raise ValueError(f"hash counts must be >= 0, got {ks}")
        if any(ks[i] < ks[i + 1] for i in range(len(ks) - 1)):
            raise ValueError(f"hash counts must be non-increasing, got {ks}")
        if self.c is not None:
            check_ratio(self.c)

    @classmethod
    def from_ratio(cls, partition: ScorePartition, k_max: int, k_min: int = 0,
                   c: float | None = None) -> "AdaptiveParams":
        g = partition.g
        check_ladder(k_max, k_min)
        if k_max - k_min != g - 1:
            raise ValueError(f"k_max - k_min must equal g - 1 = {g - 1}, got {k_max - k_min}")
        return cls(partition, tuple(range(k_max, k_min - 1, -1)), c)


class AdaptiveBloom(GatedBloom):
    """Shared-array filter probing group j's queries K_j times; zero FNR.

    One stage per group with K_j > 0, all on the one array; a group with
    K_j = 0 has no stage and accepts on score alone.
    """

    __slots__ = ("bits", "params", "family")

    def __init__(self, bits: BitVector, params: AdaptiveParams, family: HashFamily,
                 model_bits: int = 0):
        n = params.partition.n_per_group
        stages = [(*params.partition.interval(j), StandardBloom(bits, k, family, n[j]))
                  for j, k in enumerate(params.k_per_group) if k]
        super().__init__(stages, family.seed, model_bits, params.partition.shares)
        self.bits = bits
        self.params = params
        self.family = family

    @property
    def bitmap_bits(self) -> int:
        return self.bits.length_bits

    def alpha(self) -> float:
        """Analytical load from the realized per-group key counts."""
        return alpha_load(self.bitmap_bits, self.params.partition.n_per_group,
                          self.params.k_per_group)

    contains_batch = GatedBloom.contains_batch  # perfbench traces each class's own attribute


def plan_ada(dataset: ScoredDataset, bitmap_bits: int, params: AdaptiveParams,
             seed: int, model_bits: int = 0) -> AdaptiveBloom:
    """The filter ``build_ada`` makes, with no key inserted yet.

    Its stages already hold their key counts, so its ``expected_fpr`` is the
    built filter's. The filter's partition counts ``dataset``'s keys per
    group, so that its stages, ``alpha`` and a saved container hold the keys
    inserted: a partition cut on other data has its key counts replaced and
    keeps its non-key counts, and so its shares.
    """
    _check_count("bitmap_bits", bitmap_bits, 1)
    n_per_group = dataset._group_counts(params.partition.thresholds, dataset.key_scores)
    if n_per_group != params.partition.n_per_group:
        params = replace(params, partition=replace(params.partition, n_per_group=n_per_group))
    return AdaptiveBloom(BitVector(bitmap_bits), params, HashFamily(seed), model_bits)


def build_ada(dataset: ScoredDataset, bitmap_bits: int, params: AdaptiveParams,
              seed: int, model_bits: int = 0) -> AdaptiveBloom:
    """Insert each key with its group's hash count into one shared array.

    Groups with K_j = 0 write nothing: their members are accepted on
    score alone and must not contribute to the array load. The filter is
    ``plan_ada``'s.
    """
    filt = plan_ada(dataset, bitmap_bits, params, seed, model_bits)
    insert_keys(dataset, seed, filt.stages)
    filt.bits.freeze()  # also when every K_j is 0 and there is no stage
    return filt


def expected_fpr_ada(p, k_per_group, alpha: float) -> float:
    """Overall false positive rate sum_j p_j alpha^K_j."""
    if len(p) != len(k_per_group):
        raise ValueError(f"group count mismatch: {len(p)} probabilities vs {len(k_per_group)} hash counts")
    total = math.fsum(p)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"group probabilities must sum to 1, got {total}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return math.fsum(pj * alpha ** kj for pj, kj in zip(p, k_per_group))


def fpr_upper_bound(c: float, alpha: float, g: int, k_max: int) -> float:
    """Closed-form bound on the overall FPR under geometric group ratios.

    Equals the direct sum exactly when p_j / p_{j+1} = c for all j and
    K_j steps down by one from k_max; dominates it when the ratios are
    at least c. Raises ValueError for k_max < g - 1, whose ladder would
    need negative hash counts.

    With x = 1 / (c * alpha) the bound is ((c - 1) / c) / (1 - c**-g) *
    alpha**k_max * (1 + x + ... + x**(g-1)). It is evaluated in logs, with
    x**(g-1) factored out of the sum when x > 1, so that the sum is over a
    ratio y <= 1 and taken as expm1(g ln y) / expm1(ln y) (g at y = 1). No
    power of c, alpha or x over g is formed: at g = 2000 those overflow or
    underflow a double while the bound does not.
    """
    check_ratio(c)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if g < 1:
        raise ValueError(f"group count g must be >= 1, got {g}")
    if k_max < g - 1:
        raise ValueError(f"k_max={k_max} < g - 1 = {g - 1}: hash counts would go negative")
    log_x = -math.log(c) - math.log(alpha)
    log_y = -abs(log_x)
    log_sum = (g - 1) * max(log_x, 0.0) + math.log(
        math.expm1(g * log_y) / math.expm1(log_y) if log_y else g)
    scale = (c - 1.0) / c / -math.expm1(-g * math.log(c))
    return scale * math.exp(k_max * math.log(alpha) + log_sum)


def kmax_from_lbf(k_lbf: int, g: int) -> tuple[int, int]:
    """Hash-count range making g adaptive groups beat a K-probe threshold filter.

    Returns (k_max, k_min) with k_max = floor(K + g/2 - 1) and
    k_min = k_max - g + 1; requires g <= 2K so the range stays
    non-negative.
    """
    if g < 2:
        raise ValueError(f"group count g must be >= 2, got {g}")
    if k_lbf < 1:
        raise ValueError(f"k_lbf must be >= 1, got {k_lbf}")
    if g > 2 * k_lbf:
        raise ValueError(f"group count g={g} violates g <= 2*K = {2 * k_lbf}")
    k_max = int(math.floor(k_lbf + g / 2.0 - 1.0))
    return k_max, k_max - g + 1
