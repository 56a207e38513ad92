"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Every Monte Carlo step uses a fixed seed, so the suite
is deterministic.
"""

import math

import numpy as np
import pytest

from adabloom.adaptive import (
    AdaptiveParams,
    build_ada,
    expected_fpr_ada,
    fpr_upper_bound,
    kmax_from_lbf,
)
from adabloom.bench import run_sweep
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import build_disjoint_from_partition
from adabloom.learned import build_lbf, build_sandwiched, sandwich_allocate
from adabloom.scores import (
    gen_synthetic,
    min_sample_size,
    partition_below_threshold,
    partition_by_ratio,
    partition_from_thresholds,
)
from adabloom.standard import build_standard, expected_fpr_standard, optimal_k
from adabloom.tuning import tune_ada, tune_disjoint, tune_lbf, tune_sandwiched


def _ok(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def bench_ds():
    return gen_synthetic(50_000, 50_000, seed=7)


@pytest.fixture(scope="module")
def lbf_500k(bench_ds):
    return tune_lbf(bench_ds, 500_000, seed=1)


def _fpr_and_fnr(filt, dataset, seed):
    na, nb = dataset.nonkey_pairs(seed)
    fpr = float(filt.contains_batch(na, nb, dataset.nonkey_scores).mean())
    ka, kb = dataset.key_pairs(seed)
    fnr = 1.0 - float(filt.contains_batch(ka, kb, dataset.key_scores).mean())
    return fpr, fnr


def test_criterion_01_zero_fnr_across_sweep(bench_ds):
    """Every method, every budget: all inserted keys query positive."""
    rows = run_sweep(
        bench_ds,
        budgets=[100_000, 300_000],
        methods=["standard", "lbf", "sandwich", "ada", "disjoint"],
        seeds=[0],
        tau_grid=(0.3, 0.5, 0.65, 0.8, 0.9),
        kmax_grid=(4, 8),
        c_grid=(2.0, 2.6),
        g_grid=(4, 8),
    )
    assert len(rows) == 10
    for row in rows:
        assert row.status.startswith("ok"), row
        assert row.fnr == 0.0, row
    _ok(1, "zero FNR, exhaustive over all methods and budgets")


def test_criterion_02_standard_fpr_analytical_agreement():
    """Empirical FPR within 3 binomial sigma of the formula on a 3x3 grid.

    r is fixed at 1e6 so the filter's build-to-build load variation is
    negligible next to binomial query noise; n is chosen per cell to hit
    loads 0.25 / 0.50 / 0.75 at k in {2, 3, 4}.
    """
    r = 1_000_000
    probes = 100_000
    family = HashFamily(2024)
    max_n = int(round(r * -math.log1p(-0.75) / 2))
    key_a, key_b = family.remix_pairs(
        *family.base_pairs([f"key{i}" for i in range(max_n)]))
    pa, pb = family.remix_pairs(
        *family.base_pairs([f"probe{i}" for i in range(probes)]))
    for load in (0.25, 0.50, 0.75):
        for k in (2, 3, 4):
            n = int(round(r * -math.log1p(-load) / k))
            bits = BitVector(r)
            bits.set_hashed(key_a[:n], key_b[:n], k)
            fpr = float(bits.test_hashed(pa, pb, k).mean())
            expect = expected_fpr_standard(r, n, k)
            sigma = math.sqrt(expect * (1 - expect) / probes)
            assert abs(fpr - expect) < 3 * sigma, (load, k, fpr, expect)
    _ok(2, "standard filter matches its FPR formula over the load grid")


def test_criterion_03_per_group_and_overall_fpr(bench_ds):
    """Per-group FPR tracks alpha^K_j and the overall FPR its p-weighted sum."""
    dataset = gen_synthetic(100_000, 200_000, seed=13)
    g = 8
    partition = partition_by_ratio(dataset, g, 1.2)
    assert min(partition.m_per_group) >= 10_000
    params = AdaptiveParams.from_ratio(partition, 8, 1, c=1.2)
    filt = build_ada(dataset, 700_000, params, seed=13)
    alpha = filt.alpha()  # load formula with realized group counts
    a, b = dataset.nonkey_pairs(13)
    hits = filt.contains_batch(a, b, dataset.nonkey_scores)
    groups = partition.group_indices(dataset.nonkey_scores)
    for j, k in enumerate(params.k_per_group):
        mask = groups == j
        count = int(mask.sum())
        expect = alpha**k
        sigma = math.sqrt(expect * (1 - expect) / count)
        assert abs(float(hits[mask].mean()) - expect) < 3 * sigma, (j, k)
    overall = float(hits.mean())
    expect_overall = expected_fpr_ada(partition.p_hat, params.k_per_group, alpha)
    sigma = math.sqrt(expect_overall * (1 - expect_overall) / dataset.m)
    assert abs(overall - expect_overall) < 3 * sigma
    _ok(3, "adaptive per-group and overall FPR match the load analytics")


def test_criterion_04_closed_form_tightness_and_dominance():
    """Closed form equals the direct sum for geometric p, dominates above it."""

    def geometric_p(c, g):
        weights = [c ** (g - j) for j in range(1, g + 1)]
        total = sum(weights)
        return [w / total for w in weights]

    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        g = int(rng.integers(2, 9))
        c = float(rng.uniform(1.1, 3.0))
        alpha = float(rng.uniform(0.05, 0.9))
        if abs(c * alpha - 1.0) < 1e-3:
            continue
        k_max = int(rng.integers(g - 1, g + 7))
        ks = list(range(k_max, k_max - g, -1))
        direct = expected_fpr_ada(geometric_p(c, g), ks, alpha)
        assert abs(fpr_upper_bound(c, alpha, g, k_max) - direct) <= 1e-9 * direct
        checked += 1
    for _ in range(10):
        c = float(rng.uniform(1.2, 3.0))
        alpha = 1.0 / c  # the singular branch
        g = int(rng.integers(2, 9))
        k_max = int(rng.integers(g - 1, g + 7))
        ks = list(range(k_max, k_max - g, -1))
        direct = expected_fpr_ada(geometric_p(c, g), ks, alpha)
        assert abs(fpr_upper_bound(c, alpha, g, k_max) - direct) <= 1e-9 * direct
    for _ in range(1000):
        g = int(rng.integers(2, 9))
        c = float(rng.uniform(1.05, 3.0))
        alpha = float(rng.uniform(0.05, 0.9))
        if abs(c * alpha - 1.0) < 1e-6:
            continue
        k_max = int(rng.integers(g - 1, g + 7))
        ks = list(range(k_max, k_max - g, -1))
        p = [1.0]
        for ratio in rng.uniform(c, 3 * c, g - 1):
            p.insert(0, p[0] * float(ratio))
        total = sum(p)
        p = [x / total for x in p]
        assert expected_fpr_ada(p, ks, alpha) <= fpr_upper_bound(c, alpha, g, k_max) * (1 + 1e-12)
    _ok(4, "closed-form FPR bound is tight for geometric p and dominates otherwise")


def test_criterion_05_sample_size_bound():
    """At the bound's m, the estimation error exceeds epsilon in <= 1.5*delta."""
    k, eps, delta = 5, 0.1, 0.05
    m = min_sample_size(k, eps, delta)
    assert m == 8503
    p = np.array([16, 8, 4, 2, 1], dtype=float) / 31.0
    rng = np.random.default_rng(123)
    trials = 500
    fails = sum(
        np.abs(rng.multinomial(m, p) / m - p).sum() > eps for _ in range(trials))
    assert fails / trials <= 1.5 * delta
    _ok(5, "estimation-error bound holds in Monte Carlo at its sample size")


def test_criterion_06_adaptive_beats_threshold_filter(bench_ds, lbf_500k):
    """At matched budget and pinned top threshold, the adaptive filter wins.

    The hash-count range comes from the constructive selection
    k_max = floor(K + g/2 - 1); groups below the threshold step down
    from k_max and the top group is accepted outright, mirroring the
    threshold filter's behavior above tau.
    """
    budget = 500_000
    tau = lbf_500k.params["tau"]
    lbf_fpr = lbf_500k.fpr
    k_lbf = lbf_500k.filter.backup.k
    n0 = int((bench_ds.key_scores < tau).sum())
    assert float((bench_ds.nonkey_scores >= tau).mean()) < lbf_fpr  # backup term visible
    for g in (6, 8, 10):
        k_max, k_min = kmax_from_lbf(k_lbf, g)
        counts = tuple(range(k_max, k_min, -1)) + (0,)
        # largest geometric ratio whose realized key counts keep the
        # adaptive load at or below the threshold filter's (alpha <= beta,
        # which the construction guarantees under its growth assumptions)
        chosen = None
        for c in (1.6, 2.0, 2.6, 3.0):
            partition = partition_below_threshold(bench_ds, tau, g, c)
            load = sum(k * n for k, n in zip(counts, partition.n_per_group))
            if load <= k_lbf * n0:
                chosen = (c, partition)
        assert chosen is not None, g
        c, partition = chosen
        params = AdaptiveParams(partition, counts, c=c)
        filt = build_ada(bench_ds, budget, params, seed=1)
        fpr, fnr = _fpr_and_fnr(filt, bench_ds, 1)
        assert fnr == 0.0
        assert fpr <= lbf_fpr, (g, fpr, lbf_fpr)
        print(f"  g={g}: c={c} c*alpha={c * filt.alpha():.2f} "
              f"fpr={fpr:.5f} vs lbf {lbf_fpr:.5f}")
    tuned = tune_ada(bench_ds, budget, seed=1)
    assert tuned.fpr <= 0.5 * lbf_fpr, (tuned.fpr, lbf_fpr)
    _ok(6, "adaptive filter beats the threshold filter at matched budgets")


def test_criterion_07_disjoint_needs_less_memory(bench_ds):
    """Bisection: the disjoint filter matches the threshold filter's tuned
    FPR with strictly less bitmap budget."""
    budget = 300_000
    lbf = tune_lbf(bench_ds, budget, seed=1)
    tau = lbf.params["tau"]
    c_grid = (1.6, 2.0, 2.6, 3.0)

    def best_disjoint_fpr(bits: int, g: int) -> float:
        best = 1.0
        for c in c_grid:
            partition = partition_below_threshold(bench_ds, tau, g, c)
            filt = build_disjoint_from_partition(bench_ds, bits, partition, c, seed=1)
            fpr, fnr = _fpr_and_fnr(filt, bench_ds, 1)
            assert fnr == 0.0
            best = min(best, fpr)
        return best

    for g in (6, 8, 10):
        assert best_disjoint_fpr(budget, g) <= lbf.fpr
        lo, hi = budget // 20, budget
        for _ in range(12):
            mid = (lo + hi) // 2
            if best_disjoint_fpr(mid, g) <= lbf.fpr:
                hi = mid
            else:
                lo = mid
        assert hi < budget, g
        assert best_disjoint_fpr(hi, g) <= lbf.fpr
        print(f"  g={g}: disjoint matches lbf fpr={lbf.fpr:.5f} "
              f"with {hi} of {budget} bits ({hi / budget:.0%})")
    _ok(7, "disjoint filter matches the threshold filter with less memory")


def test_criterion_08_sandwich_behavior(bench_ds):
    """Sandwiching never hurts, and clamps to backup-only when b2* >= budget."""
    budget = 150_000
    lbf = tune_lbf(bench_ds, budget, seed=2)
    sandwich = tune_sandwiched(bench_ds, budget, seed=2)
    sigma = math.sqrt(max(lbf.fpr, 1e-12) * (1 - lbf.fpr) / bench_ds.m)
    assert sandwich.fpr <= lbf.fpr + 3 * sigma
    # clamp branch: a tau with a big optimal backup forces (0, budget)
    tau = 0.9
    f_n = float((bench_ds.key_scores < tau).mean())
    f_p = float((bench_ds.nonkey_scores >= tau).mean())
    assert 0.0 < f_p < 1.0 and 0.0 < f_n < 1.0
    tight_budget = 4 * bench_ds.n
    b1, b2 = sandwich_allocate(f_p, f_n, tight_budget / bench_ds.n)
    assert b2 == tight_budget / bench_ds.n and b1 == 0.0
    built = build_sandwiched(bench_ds, tight_budget, tau, seed=2)
    assert built.reduced_to_lbf and built.fallback_reason is None
    ref = build_lbf(bench_ds, tight_budget, tau, seed=2)
    a, b = bench_ds.nonkey_pairs(2)
    assert (built.contains_batch(a, b, bench_ds.nonkey_scores)
            == ref.contains_batch(a, b, bench_ds.nonkey_scores)).all()
    _ok(8, "sandwiched filter never hurts and reduces to backup-only when it should")


def test_criterion_09_tuner_robust_to_fixing_group_count(bench_ds):
    """Re-tuning only c at a fixed k_max (or g) stays within 1.5x optimal."""
    budget = 200_000
    full = tune_ada(bench_ds, budget, seed=3)
    at_opt = tune_ada(bench_ds, budget, kmax_grid=[full.params["k_max"]], seed=3)
    assert at_opt.fpr <= 1.5 * full.fpr
    grid = range(2, 13)
    for off in (-2, -1, 1, 2):
        k_fixed = full.params["k_max"] + off
        if k_fixed in grid:
            near = tune_ada(bench_ds, budget, kmax_grid=[k_fixed], seed=3)
            assert near.fpr <= 1.5 * full.fpr, (k_fixed, near.fpr, full.fpr)
    full_dis = tune_disjoint(bench_ds, budget, seed=3)
    at_opt_dis = tune_disjoint(bench_ds, budget, g_grid=[full_dis.params["g"]], seed=3)
    assert at_opt_dis.fpr <= 1.5 * full_dis.fpr
    _ok(9, "fixing the group count and retuning only c stays near optimal")


def test_criterion_10_reduction_identities(bench_ds):
    """g=1 is bit-identical to a standard filter; (K, 0) groups match the
    threshold filter decision for decision."""
    r = 250_000
    part1 = partition_by_ratio(bench_ds, 1, 2.0)
    k = optimal_k(r, bench_ds.n)
    ada1 = build_ada(bench_ds, r, AdaptiveParams.from_ratio(part1, k, k), seed=4)
    plain = build_standard([it.id for it in bench_ds.keys], r, k, seed=4)
    assert ada1.bits.to_bytes() == plain.bits.to_bytes()

    tau = 0.7
    lbf = build_lbf(bench_ds, r, tau, seed=4)
    part2 = partition_from_thresholds(bench_ds, (0.0, tau, 1.0))
    ada2 = build_ada(bench_ds, r,
                     AdaptiveParams(part2, (lbf.backup.k, 0)), seed=4)
    assert ada2.bits.to_bytes() == lbf.backup.bits.to_bytes()
    rng = np.random.default_rng(8)
    probes = [(f"p{i}", float(s)) for i, s in enumerate(rng.uniform(0, 1, 1000))]
    probes += [(it.id, it.score) for it in bench_ds.items]
    for item, score in probes:
        assert ada2.contains(item, score) == lbf.contains(item, score)
    _ok(10, "reduction identities to the standard and threshold filters hold")
