import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adabloom.standard import (
    DEFAULT_K_CAP,
    build_standard,
    expected_fpr_standard,
    optimal_k,
)

# high-precision evaluations of the expected-FPR formula (mpmath, 50 digits)
FPR_1000_100_7 = 0.008213554634050216
LOAD_1000_100_7 = 0.5035885865689007


class TestBuild:
    def test_empty_keys_zero_popcount(self):
        filt = build_standard([], 1000, 7, seed=0)
        assert filt.bits.popcount() == 0
        assert filt.n_inserted == 0

    def test_popcount_at_most_nk(self):
        keys = [f"key{i}" for i in range(100)]
        filt = build_standard(keys, 1000, 7, seed=0)
        assert filt.bits.popcount() <= 700
        assert filt.n_inserted == 100

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            build_standard([], 0, 7, seed=0)

    def test_rejects_non_bytes_key(self):
        with pytest.raises(TypeError):
            build_standard(["a", 3], 1000, 7, seed=0)

    def test_keys_from_generator(self):
        keys = [f"key{i}" for i in range(100)]
        filt = build_standard((k for k in keys), 1000, 7, seed=0)
        assert filt.n_inserted == 100
        assert filt.bits.to_bytes() == build_standard(keys, 1000, 7, seed=0).bits.to_bytes()

    def test_load_matches_formula_over_seeds(self):
        loads = []
        for seed in range(30):
            keys = [f"k{seed}-{i}" for i in range(100)]
            loads.append(build_standard(keys, 1000, 7, seed).bits.load_fraction())
        assert abs(np.mean(loads) - LOAD_1000_100_7) < 0.05


class TestQuery:
    def test_zero_fnr_exhaustive(self):
        keys = [f"key{i}" for i in range(10_000)]
        filt = build_standard(keys, 100_000, 7, seed=3)
        fam = filt.family
        a, b = fam.remix_pairs(*fam.base_pairs(keys))
        assert filt.bits.test_hashed(a, b, filt.k).all()

    def test_k_zero_accepts_everything(self):
        filt = build_standard(["a"], 100, 0, seed=0)
        assert filt.contains("never-inserted")

    def test_fpr_matches_formula_small_filter(self):
        # at r=1000 the realized load wanders +-20% between builds, so
        # the check is relative, not binomial-noise-tight
        keys = [f"key{i}" for i in range(100)]
        filt = build_standard(keys, 1000, 7, seed=9)
        probes = [f"probe{i}" for i in range(100_000)]
        a, b = filt.family.remix_pairs(*filt.family.base_pairs(probes))
        fpr = filt.bits.test_hashed(a, b, 7).mean()
        assert abs(fpr - FPR_1000_100_7) / FPR_1000_100_7 < 0.20

    def test_fpr_within_three_sigma_large_filter(self):
        # large r makes build-to-build variation negligible next to
        # binomial query noise, so the 3-sigma band is sound here
        keys = [f"key{i}" for i in range(20_000)]
        filt = build_standard(keys, 200_000, 5, seed=1)
        probes = [f"probe{i}" for i in range(100_000)]
        a, b = filt.family.remix_pairs(*filt.family.base_pairs(probes))
        fpr = filt.bits.test_hashed(a, b, 5).mean()
        expect = expected_fpr_standard(200_000, 20_000, 5)
        sigma = np.sqrt(expect * (1 - expect) / 100_000)
        assert abs(fpr - expect) < 3 * sigma


class TestExpectedFpr:
    def test_empty_filter(self):
        assert expected_fpr_standard(1000, 0, 7) == 0.0

    def test_zero_hashes(self):
        assert expected_fpr_standard(1000, 100, 0) == 1.0

    def test_reference_value(self):
        assert expected_fpr_standard(1000, 100, 7) == pytest.approx(FPR_1000_100_7, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(10, 10**6), n=st.integers(1, 10**5), k=st.integers(1, 30))
    def test_monotone_in_r_and_n(self, r, n, k):
        base = expected_fpr_standard(r, n, k)
        assert 0.0 <= base <= 1.0
        assert expected_fpr_standard(2 * r, n, k) <= base
        assert expected_fpr_standard(r, n + 100, k) >= base


class TestOptimalK:
    def test_examples(self):
        assert optimal_k(1000, 100) == 7
        assert optimal_k(1000, 1000) == 1
        assert optimal_k(0, 100) == 0

    def test_half_away_rounding(self):
        # r/n * ln2 = 0.5 exactly at r/n = 0.7213475...; bracket the tie
        assert optimal_k(7213, 10000) == 0
        assert optimal_k(7214, 10000) == 1

    def test_no_keys_gets_cap(self):
        assert optimal_k(1000, 0) == DEFAULT_K_CAP
        assert optimal_k(1000, 0, k_cap=16) == 16

    def test_never_negative(self):
        assert optimal_k(1, 10**9) == 0
