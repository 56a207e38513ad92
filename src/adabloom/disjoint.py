"""Disjoint adaptive filter: independent per-group Bloom filters.

Instead of varying hash counts on one shared array, this variant gives
each score group its own Bloom filter of R_j bits and equalizes the
expected number of false positives across groups. A filter holding n_j
keys in R_j bits, hashed optimally, has FPR mu^(R_j / n_j) with
mu = 0.5^ln2, so equal false positive counts m_j mu^(R_j/n_j) under the
geometric ratio m_j / m_{j+1} = c pin down the bit shares:

    R_j / n_j - R_1 / n_1 = (j - 1) * ln(c) / ln(mu)

which together with sum R_j = R is a linear system in R_1 / n_1. The
top group gets R_g = 0 by default: its queries are accepted on score
alone. Tight budgets can drive tail shares negative; those groups are
clamped to zero bits (never re-entering) and the system is re-solved
over the rest, so the realized shares always sum to the budget exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bits import BitVector, HashFamily, _check_count
from .scores import ScoredDataset, ScorePartition, check_ratio, partition_by_ratio
from .standard import OPTIMAL_FPR_BASE, GatedBloom, StandardBloom, insert_keys, optimal_k

__all__ = [
    "DisjointParams",
    "DisjointBloom",
    "InfeasibleBudgetError",
    "allocate_disjoint",
    "build_disjoint",
    "build_disjoint_from_partition",
    "plan_disjoint",
]


class InfeasibleBudgetError(ValueError):
    """No group can receive a workable bit share under this budget."""


def _solve_shares(bitmap_bits: int, n_per_group, eta: float, active: list[int]) -> dict[int, float]:
    """Real-valued bit shares over ``active`` groups, clamping negatives.

    ``active`` holds 0-based group indices; the equalization offset of
    group i is i * eta regardless of which groups remain active.
    """
    active = list(active)
    while active:
        s0 = sum(n_per_group[i] for i in active)
        s1 = sum(i * n_per_group[i] for i in active)
        base = (bitmap_bits - eta * s1) / s0  # R_1 / n_1
        shares = {i: n_per_group[i] * (base + i * eta) for i in active}
        negative = [i for i in active if shares[i] < 0.0]
        if not negative:
            return shares
        active = [i for i in active if i not in negative]
    raise InfeasibleBudgetError(
        f"no feasible bit shares for budget {bitmap_bits} over groups {list(n_per_group)}")


def _round_to_budget(shares: dict[int, float], bitmap_bits: int, g: int) -> list[int]:
    """Nearest-integer shares, remainder pushed onto the lowest-index groups."""
    out = [0] * g
    for i, share in shares.items():
        out[i] = int(np.rint(share))
    diff = bitmap_bits - sum(out)
    order = sorted(shares)
    pos = 0
    while diff != 0 and order:
        i = order[pos % len(order)]
        if diff > 0:
            out[i] += 1
            diff -= 1
        elif out[i] > 0:
            out[i] -= 1
            diff += 1
        pos += 1
    return out


def allocate_disjoint(bitmap_bits: int, n_per_group, c: float, g: int) -> list[int]:
    """Bit budget per group solving the equal-false-positive-count system.

    Group g is fixed at zero bits. A keyless group below it takes one
    reject-all bit (nothing inserted, one probe) instead of entering the
    equalization, which would otherwise divide by its key count. Returns
    integer shares summing to ``bitmap_bits`` exactly. InfeasibleBudgetError
    when the budget cannot cover the keyless groups, or when bits are left
    over with no keyed group below the top to take them (g = 1, say).
    ValueError on a ``bitmap_bits`` that is not an integer, whose shares
    could never sum to it.
    """
    _check_count("bitmap_bits", bitmap_bits, 0)
    check_ratio(c)
    if g < 1:
        raise ValueError(f"group count g must be >= 1, got {g}")
    if len(n_per_group) != g:
        raise ValueError(f"need {g} key counts, got {len(n_per_group)}")
    if any(n < 0 for n in n_per_group):
        raise ValueError(f"key counts must be >= 0, got {list(n_per_group)}")
    empty = [i for i in range(g - 1) if n_per_group[i] == 0]
    spare = bitmap_bits - len(empty)
    if spare < 0:
        raise InfeasibleBudgetError(
            f"budget {bitmap_bits} cannot cover {len(empty)} keyless groups")
    occupied = [i for i in range(g - 1) if n_per_group[i]]
    shares = [0] * g
    if occupied:
        eta = math.log(c) / math.log(OPTIMAL_FPR_BASE)
        shares = _round_to_budget(_solve_shares(spare, n_per_group, eta, occupied), spare, g)
    elif spare:
        raise InfeasibleBudgetError(f"no keyed group below the top to take {spare} bits")
    for i in empty:
        shares[i] = 1
    return shares


@dataclass(frozen=True)
class DisjointParams:
    partition: ScorePartition
    c: float
    r_per_group: tuple[int, ...]
    k_per_group: tuple[int, ...]


class DisjointBloom(GatedBloom):
    """One independent Bloom filter per score group; zero FNR.

    A group with R_j = 0 has no filter and accepts everything in its
    score range (by default only the top group, whose members the score
    model already vouches for). Group j's filter hashes on lane j + 1,
    which keeps the per-group filters independent.
    """

    __slots__ = ("filters", "params")

    def __init__(self, filters: tuple[StandardBloom | None, ...], params: DisjointParams,
                 seed: int, model_bits: int = 0):
        stages = [(*params.partition.interval(j), f) for j, f in enumerate(filters)
                  if f is not None]
        # as every stage's family holds it: mod 2**64, so the container can store it
        super().__init__(stages, HashFamily(seed).seed, model_bits, params.partition.shares)
        self.filters = filters
        self.params = params

    @property
    def bitmap_bits(self) -> int:
        return sum(self.params.r_per_group)

    contains_batch = GatedBloom.contains_batch  # perfbench traces each class's own attribute


def plan_disjoint(dataset: ScoredDataset, bitmap_bits: int, partition: ScorePartition,
                  c: float, seed: int, model_bits: int = 0) -> DisjointBloom:
    """The filter ``build_disjoint_from_partition`` makes, with no key inserted yet.

    Its bits are shared by ``allocate_disjoint``, and each stage already
    holds its key count, so its ``expected_fpr`` is the built filter's. As
    in ``build_ada``, the filter's partition counts ``dataset``'s keys per
    group, so that a saved container's partition agrees with the keys each
    group's filter holds: a partition cut on other data has its key counts
    replaced after the allocation, and keeps its non-key counts.
    """
    n_per_group = partition.n_per_group
    r_per_group = allocate_disjoint(bitmap_bits, n_per_group, c, partition.g)

    k_per_group = []
    for r_i, n_i in zip(r_per_group, n_per_group):
        if r_i == 0:
            k_per_group.append(0)
        elif n_i == 0:
            k_per_group.append(1)
        else:
            k_per_group.append(max(1, optimal_k(r_i, n_i)))

    built = dataset._group_counts(partition.thresholds, dataset.key_scores)
    if built != n_per_group:
        partition = replace(partition, n_per_group=built)
    params = DisjointParams(partition, c, tuple(r_per_group), tuple(k_per_group))
    filters = tuple(StandardBloom(BitVector(r), k, HashFamily(seed, lane=i + 1), n)
                    if r else None
                    for i, (r, k, n) in enumerate(zip(r_per_group, k_per_group, built)))
    return DisjointBloom(filters, params, seed, model_bits)


def build_disjoint_from_partition(dataset: ScoredDataset, bitmap_bits: int,
                                  partition: ScorePartition, c: float, seed: int,
                                  model_bits: int = 0) -> DisjointBloom:
    """Disjoint filter over an existing partition: ``plan_disjoint``'s, its keys inserted.

    A keyless group's one bit stays clear, so the group rejects every query.
    """
    filt = plan_disjoint(dataset, bitmap_bits, partition, c, seed, model_bits)
    insert_keys(dataset, seed, filt.stages)
    return filt


def build_disjoint(dataset: ScoredDataset, bitmap_bits: int, g: int, c: float, seed: int,
                   model_bits: int = 0) -> DisjointBloom:
    """Geometric partition with ratio c, then per-group filters."""
    partition = partition_by_ratio(dataset, g, c)
    return build_disjoint_from_partition(dataset, bitmap_bits, partition, c, seed, model_bits)
