import math
import sys

import mpmath
import numpy as np
import pytest

from adabloom.adaptive import (
    AdaptiveParams,
    alpha_load,
    build_ada,
    expected_fpr_ada,
    fpr_upper_bound,
    kmax_from_lbf,
)
from adabloom.learned import build_lbf
from adabloom.scores import gen_synthetic, partition_by_ratio, partition_from_thresholds
from adabloom.serialize import dump_filter, loads_filter
from adabloom.standard import build_standard


class TestParams:
    def test_from_ratio_ladder(self, synth_small):
        part = partition_by_ratio(synth_small, 5, 2.0)
        params = AdaptiveParams.from_ratio(part, 6, 2, c=2.0)
        assert params.k_per_group == (6, 5, 4, 3, 2)
        assert (params.k_per_group[0], params.k_per_group[-1]) == (6, 2)

    def test_from_ratio_rejects_wrong_span(self, synth_small):
        part = partition_by_ratio(synth_small, 5, 2.0)
        with pytest.raises(ValueError):
            AdaptiveParams.from_ratio(part, 6, 0)

    def test_explicit_counts_must_be_non_increasing(self, synth_small):
        part = partition_by_ratio(synth_small, 3, 2.0)
        with pytest.raises(ValueError):
            AdaptiveParams(part, (2, 3, 1))

    def test_counts_must_cover_groups(self, synth_small):
        part = partition_by_ratio(synth_small, 3, 2.0)
        with pytest.raises(ValueError):
            AdaptiveParams(part, (4, 3))


class TestReductions:
    def test_single_group_bit_identical_to_standard(self, synth_small):
        part = partition_by_ratio(synth_small, 1, 2.0)
        params = AdaptiveParams.from_ratio(part, 7, 7)
        ada = build_ada(synth_small, 50_000, params, seed=21)
        plain = build_standard([it.id for it in synth_small.keys], 50_000, 7, seed=21)
        assert ada.bits.to_bytes() == plain.bits.to_bytes()

    def test_two_groups_matches_lbf_decisions(self, synth_small):
        tau = 0.55
        r = 80_000
        lbf = build_lbf(synth_small, r, tau, seed=22)
        part = partition_from_thresholds(synth_small, (0.0, tau, 1.0))
        params = AdaptiveParams(part, (lbf.backup.k, 0))
        ada = build_ada(synth_small, r, params, seed=22)
        assert ada.bits.to_bytes() == lbf.backup.bits.to_bytes()
        rng = np.random.default_rng(5)
        probes = [(f"probe-{i}", float(s)) for i, s in enumerate(rng.uniform(0, 1, 2000))]
        probes += [(it.id, it.score) for it in synth_small.items[::37]]
        for item, score in probes:
            assert ada.contains(item, score) == lbf.contains(item, score)


class TestBuildAndQuery:
    def test_zero_fnr(self, synth_small):
        part = partition_by_ratio(synth_small, 8, 1.6)
        params = AdaptiveParams.from_ratio(part, 7, 0, c=1.6)
        ada = build_ada(synth_small, 120_000, params, seed=23)
        a, b = synth_small.key_pairs(23)
        assert ada.contains_batch(a, b, synth_small.key_scores).all()
        for item in synth_small.keys[:200]:
            assert ada.contains(item.id, item.score)

    def test_zero_hash_group_accepts_anything(self, synth_small):
        part = partition_by_ratio(synth_small, 3, 2.0)
        params = AdaptiveParams.from_ratio(part, 2, 0)
        ada = build_ada(synth_small, 50_000, params, seed=24)
        assert ada.contains("definitely-not-inserted", 1.0)

    def test_zero_hash_groups_add_no_load(self, synth_small):
        part = partition_by_ratio(synth_small, 2, 4.0)
        only_low = AdaptiveParams(part, (5, 0))
        ada = build_ada(synth_small, 60_000, only_low, seed=25)
        groups = part.group_indices(synth_small.key_scores)
        low_keys = [i for i, j in zip(synth_small.key_ids, groups) if j == 0]
        plain = build_standard(low_keys, 60_000, 5, seed=25)
        assert ada.bits.to_bytes() == plain.bits.to_bytes()

    def test_partition_cut_on_other_data_takes_the_built_key_counts(self):
        part = partition_by_ratio(gen_synthetic(2000, 2000, seed=1), 4, 2.0)
        params = AdaptiveParams(part, (5, 4, 3, 2))
        ada = build_ada(gen_synthetic(1000, 3000, seed=2), 12_000, params, seed=3)
        kept = ada.params.partition
        assert kept.n_per_group == tuple(stage.n_inserted for _, _, stage in ada.stages)
        assert kept.n_per_group != part.n_per_group
        assert (kept.thresholds, kept.m_per_group) == (part.thresholds, part.m_per_group)
        assert loads_filter(dump_filter(ada)).expected_fpr() == ada.expected_fpr()
        assert abs(ada.alpha() - ada.bits.popcount() / ada.bits.length_bits) < 0.01

    def test_partition_of_the_build_data_is_kept(self, synth_small):
        params = AdaptiveParams.from_ratio(partition_by_ratio(synth_small, 3, 2.0), 4, 2)
        assert build_ada(synth_small, 50_000, params, seed=3).params is params
        view = synth_small.by_score()
        params = AdaptiveParams.from_ratio(partition_by_ratio(view, 3, 2.0), 4, 2)
        assert build_ada(view, 50_000, params, seed=3).params is params

    def test_load_matches_formula(self, synth_bench):
        part = partition_by_ratio(synth_bench, 8, 1.8)
        params = AdaptiveParams.from_ratio(part, 10, 3, c=1.8)
        ada = build_ada(synth_bench, 400_000, params, seed=26)
        assert abs(ada.bits.popcount() / ada.bits.length_bits - ada.alpha()) < 0.05

    def test_per_group_fpr_tracks_alpha_power(self, synth_bench):
        part = partition_by_ratio(synth_bench, 6, 1.5)
        params = AdaptiveParams.from_ratio(part, 6, 1, c=1.5)
        ada = build_ada(synth_bench, 300_000, params, seed=27)
        alpha = ada.alpha()
        a, b = synth_bench.nonkey_pairs(27)
        hits = ada.contains_batch(a, b, synth_bench.nonkey_scores)
        groups = part.group_indices(synth_bench.nonkey_scores)
        rates = []
        for j, k in enumerate(params.k_per_group):
            mask = groups == j
            rate = hits[mask].mean()
            expect = alpha**k
            sigma = math.sqrt(expect * (1 - expect) / mask.sum())
            assert abs(rate - expect) < 3 * sigma + 1e-12, (j, rate, expect)
            rates.append(rate)
        # more hashes, fewer false positives
        assert all(lo <= hi for lo, hi in zip(rates, rates[1:]))


class TestAnalytics:
    def test_alpha_load_zero_keys(self):
        assert alpha_load(1000, (0, 0), (3, 2)) == 0.0

    def test_alpha_load_single_group_is_standard_load(self):
        want = -math.expm1(700 * math.log1p(-1 / 1000))
        assert alpha_load(1000, (100,), (7,)) == pytest.approx(want, rel=1e-12)

    def test_alpha_load_reference(self):
        got = alpha_load(10**4, (300, 400, 500), (4, 3, 2))
        assert got == pytest.approx(0.28824177803674683, rel=1e-9)

    def test_alpha_load_one_bit(self):
        assert alpha_load(1, (4397, 0), (1, 2)) == 1.0
        assert alpha_load(1, (0, 5), (3, 0)) == 0.0

    def test_alpha_load_is_the_one_in_standard(self):
        from adabloom import standard
        assert alpha_load is standard.alpha_load

    def test_alpha_load_length_mismatch(self):
        with pytest.raises(ValueError):
            alpha_load(1000, (1, 2), (3,))

    def test_expected_fpr_zero_alpha(self):
        assert expected_fpr_ada((0.5, 0.5), (2, 1), 0.0) == 0.0

    def test_expected_fpr_zero_hash_group_contributes_mass(self):
        assert expected_fpr_ada((0.75, 0.25), (4, 0), 0.0) == 0.25

    def test_expected_fpr_reference(self):
        got = expected_fpr_ada((4 / 7, 2 / 7, 1 / 7), (4, 3, 2), 0.3)
        assert got == pytest.approx(0.0252, abs=1e-15)

    def test_expected_fpr_requires_normalized_p(self):
        with pytest.raises(ValueError):
            expected_fpr_ada((0.5, 0.4), (2, 1), 0.3)


def geometric_p(c: float, g: int) -> list[float]:
    weights = [c ** (g - j) for j in range(1, g + 1)]
    total = sum(weights)
    return [w / total for w in weights]


class TestFprUpperBound:
    def test_single_group(self):
        assert fpr_upper_bound(2.0, 0.3, 1, 4) == pytest.approx(0.3**4, rel=1e-12)

    def test_equals_sum_for_geometric_p(self):
        assert fpr_upper_bound(2.0, 0.3, 3, 4) == pytest.approx(0.0252, rel=1e-12)

    def test_tightness_random_cases(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            g = int(rng.integers(2, 9))
            c = float(rng.uniform(1.1, 3.0))
            alpha = float(rng.uniform(0.05, 0.9))
            if abs(c * alpha - 1.0) < 1e-3:
                continue
            k_max = int(rng.integers(g - 1, g + 7))
            ks = list(range(k_max, k_max - g, -1))
            direct = expected_fpr_ada(geometric_p(c, g), ks, alpha)
            bound = fpr_upper_bound(c, alpha, g, k_max)
            assert abs(bound - direct) <= 1e-9 * direct

    def test_limit_branch_equals_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            c = float(rng.uniform(1.2, 3.0))
            alpha = 1.0 / c
            g = int(rng.integers(2, 9))
            k_max = int(rng.integers(g - 1, g + 7))
            ks = list(range(k_max, k_max - g, -1))
            direct = expected_fpr_ada(geometric_p(c, g), ks, alpha)
            bound = fpr_upper_bound(c, alpha, g, k_max)
            assert abs(bound - direct) <= 1e-9 * direct

    def test_dominates_for_steeper_ratios(self):
        rng = np.random.default_rng(44)
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
            direct = expected_fpr_ada(p, ks, alpha)
            bound = fpr_upper_bound(c, alpha, g, k_max)
            assert direct <= bound * (1 + 1e-12)

    # c**g, alpha**g and (c*alpha)**g overflow or underflow a double at these g;
    # the direct sum is taken at 60 digits
    @pytest.mark.parametrize("g", [1500, 2000, 5000])
    def test_large_g_matches_mpmath(self, g):
        rng = np.random.default_rng(g)
        cases = [(2.0, 0.9, 1999), (2.0, 0.3, 1999), (1.01, 0.995, g - 1), (1.2, 1 / 1.2, g + 3)]
        cases += [(float(rng.uniform(1.001, 1.2)), float(rng.uniform(0.8, 0.999)),
                   int(rng.integers(g - 1, g + 50))) for _ in range(4)]
        for c, alpha, k_max in cases:
            k_max = max(k_max, g - 1)
            with mpmath.workdps(60):
                cm, am = mpmath.mpf(c), mpmath.mpf(alpha)
                direct = float((cm - 1) / (cm**g - 1) * mpmath.fsum(
                    cm ** (g - j) * am ** (k_max - j + 1) for j in range(1, g + 1)))
            bound = fpr_upper_bound(c, alpha, g, k_max)
            if direct < sys.float_info.min:
                assert bound < sys.float_info.min
            else:
                assert abs(bound - direct) <= 1e-9 * direct

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            fpr_upper_bound(1.0, 0.3, 3, 4)
        with pytest.raises(ValueError):
            fpr_upper_bound(2.0, 1.0, 3, 4)
        with pytest.raises(ValueError, match="k_max=1 < g - 1 = 2"):
            fpr_upper_bound(2.0, 0.3, 3, 1)  # the ladder 1, 0, -1
        assert fpr_upper_bound(2.0, 0.3, 3, 2) > 0.0


class TestKmaxSelection:
    def test_examples(self):
        assert kmax_from_lbf(8, 6) == (10, 5)
        assert kmax_from_lbf(8, 2) == (8, 7)

    def test_constraint_violation(self):
        with pytest.raises(ValueError):
            kmax_from_lbf(3, 7)

    def test_k_min_never_negative_within_constraint(self):
        for k in range(1, 12):
            for g in range(2, 2 * k + 1):
                k_max, k_min = kmax_from_lbf(k, g)
                assert k_min >= 0
                assert k_max - k_min == g - 1
