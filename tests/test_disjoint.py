import math

import pytest
from hypothesis import given, settings, strategies as st

from adabloom.disjoint import (
    InfeasibleBudgetError,
    allocate_disjoint,
    build_disjoint,
    build_disjoint_from_partition,
)
from adabloom.scores import ScoredDataset, ScoredItem, gen_synthetic, partition_from_thresholds
from adabloom.standard import OPTIMAL_FPR_BASE

ETA2 = math.log(2.0) / math.log(OPTIMAL_FPR_BASE)  # offset per group at c=2


class TestAllocation:
    def test_reference_solution(self):
        # high-precision solve: R1/n1 = (2000 - eta*100)/200, shares
        # (1072.13, 927.87, 0), nearest-rounded to an exact-sum split
        assert allocate_disjoint(2000, (100, 100, 50), 2.0, 3) == [1072, 928, 0]

    def test_share_equalization_relation(self):
        shares = allocate_disjoint(200_000, (1000, 1000, 500), 2.0, 3)
        # integer rounding perturbs by < 1 bit per 1000-key group
        assert shares[0] / 1000 - shares[1] / 1000 == pytest.approx(-ETA2, abs=2e-3)

    def test_single_filtered_group_takes_it_all(self):
        assert allocate_disjoint(5000, (70, 30), 2.0, 2) == [5000, 0]

    def test_affine_in_budget(self):
        a = allocate_disjoint(2000, (100, 100, 50), 2.0, 3)
        b = allocate_disjoint(4000, (100, 100, 50), 2.0, 3)
        assert b[0] / 100 - b[1] / 100 == pytest.approx(a[0] / 100 - a[1] / 100, abs=2e-2)

    def test_tail_clamped_under_tight_budget(self):
        shares = allocate_disjoint(50, (100, 100, 100, 50), 2.0, 4)
        assert shares == [50, 0, 0, 0]

    def test_top_group_always_zero(self):
        shares = allocate_disjoint(10_000, (10, 200, 3000, 999), 1.5, 4)
        assert shares[-1] == 0

    def test_keyless_filtered_group_takes_one_bit(self):
        # one reject-all bit, as the builder gives it
        assert allocate_disjoint(1000, (10, 0, 5), 2.0, 3) == [999, 1, 0]
        assert allocate_disjoint(2, (0, 0, 5), 2.0, 3) == [1, 1, 0]
        with pytest.raises(InfeasibleBudgetError, match="^no keyed group below the top to take "
                                                         "1 bits$"):
            allocate_disjoint(3, (0, 0, 5), 2.0, 3)

    def test_keyless_first_group_as_the_builder_shares_it(self):
        ds = gen_synthetic(2000, 2000, seed=3)
        part = partition_from_thresholds(ds, (0.0, 0.001, 0.5, 0.9, 1.0))
        assert part.n_per_group == (0, 255, 1172, 573)
        shares = allocate_disjoint(8000, part.n_per_group, 2.0, 4)
        assert shares == [1, 1732, 6267, 0]
        filt = build_disjoint_from_partition(ds, 8000, part, 2.0, 3)
        assert filt.params.r_per_group == tuple(shares)

    def test_single_group_cannot_take_budget(self):
        with pytest.raises(InfeasibleBudgetError):
            allocate_disjoint(100, (10,), 2.0, 1)
        assert allocate_disjoint(0, (10,), 2.0, 1) == [0]

    @settings(max_examples=80, deadline=None)
    @given(budget=st.integers(0, 10**6),
           ns=st.lists(st.integers(1, 5000), min_size=2, max_size=10),
           c=st.floats(1.05, 4.0))
    def test_budget_exactness(self, budget, ns, c):
        shares = allocate_disjoint(budget, tuple(ns), c, len(ns))
        assert sum(shares) == budget
        assert all(s >= 0 for s in shares)
        assert shares[-1] == 0

    def test_equalized_false_positive_mass(self):
        # exactly geometric m_j: the per-group products m_j mu^(R_j/n_j)
        # agree up to integer-rounding error
        n = (4000, 5000, 6000, 7000, 1000)
        m = (80_000, 40_000, 20_000, 10_000, 5000)
        shares = allocate_disjoint(600_000, n, 2.0, 5)
        products = [mj * OPTIMAL_FPR_BASE ** (rj / nj)
                    for mj, rj, nj in zip(m[:-1], shares[:-1], n[:-1])]
        assert max(products) / min(products) <= 1.15


class TestBuildAndQuery:
    def test_zero_fnr(self, synth_small):
        filt = build_disjoint(synth_small, 100_000, 6, 2.0, seed=31)
        a, b = synth_small.key_pairs(31)
        assert filt.contains_batch(a, b, synth_small.key_scores).all()
        for item in synth_small.keys[:200]:
            assert filt.contains(item.id, item.score)

    def test_top_group_accepts_everything(self, synth_small):
        filt = build_disjoint(synth_small, 100_000, 5, 2.0, seed=32)
        assert filt.filters[-1] is None
        assert filt.contains("never-inserted", 1.0)

    def test_budget_exactness_end_to_end(self, synth_small):
        filt = build_disjoint(synth_small, 123_457, 7, 1.8, seed=33)
        assert sum(filt.params.r_per_group) == 123_457

    def test_per_group_fpr_tracks_mu_power(self, synth_bench):
        # budget chosen so per-group rates sit near 1e-2, measurable
        # against >= 1e4 non-key queries per filtered group
        filt = build_disjoint(synth_bench, 50_000, 4, 1.3, seed=34)
        part = filt.params.partition
        a, b = synth_bench.nonkey_pairs(34)
        hits = filt.contains_batch(a, b, synth_bench.nonkey_scores)
        groups = part.group_indices(synth_bench.nonkey_scores)
        for j in range(part.g - 1):
            mask = groups == j
            count = int(mask.sum())
            assert count >= 10_000
            expect = OPTIMAL_FPR_BASE ** (filt.params.r_per_group[j] / part.n_per_group[j])
            sigma = math.sqrt(expect * (1 - expect) / count)
            assert abs(hits[mask].mean() - expect) < 3 * sigma, (j, hits[mask].mean(), expect)

    def test_keys_hashed_with_group_seed(self, synth_small):
        filt = build_disjoint(synth_small, 100_000, 4, 2.0, seed=35)
        families = {f.family.lane for f in filt.filters if f is not None}
        assert len(families) == len([f for f in filt.filters if f is not None])

    def test_empty_low_group_rejects(self):
        # a keyless group below the top gets one reject-all bit
        items = [ScoredItem(f"k{i}", 0.3 + i / 200, True) for i in range(50)]
        items += [ScoredItem(f"k{50 + i}", 0.8 + i / 1000, True) for i in range(50)]
        items += [ScoredItem(f"n{i}", i / 200 * 0.99, False) for i in range(200)]
        ds = ScoredDataset(items)
        part = partition_from_thresholds(ds, (0.0, 0.2, 0.75, 1.0))
        assert part.n_per_group == (0, 50, 50)
        filt = build_disjoint_from_partition(ds, 5000, part, 2.0, seed=36)
        assert filt.params.r_per_group == (1, 4999, 0)
        assert not filt.contains("anything", 0.1)
        a, b = ds.key_pairs(36)
        assert filt.contains_batch(a, b, ds.key_scores).all()

    def test_k_floor_of_one_when_bits_exist(self, synth_small):
        filt = build_disjoint(synth_small, 2000, 6, 2.0, seed=37)
        for r, k, n in zip(filt.params.r_per_group, filt.params.k_per_group,
                           filt.params.partition.n_per_group):
            if r > 0 and n > 0:
                assert k >= 1

    def test_expected_fpr_defined(self, synth_small):
        filt = build_disjoint(synth_small, 100_000, 5, 2.0, seed=38)
        fpr = filt.expected_fpr()
        assert fpr is not None and 0.0 < fpr <= 1.0
