import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adabloom.learned import (
    LearnedBloom,
    SandwichedBloom,
    _rates,
    build_lbf,
    build_sandwiched,
    sandwich_allocate,
)
from adabloom.scores import ScoredDataset, ScoredItem, gen_synthetic
from adabloom.standard import OPTIMAL_FPR_BASE, build_standard
from adabloom.tuning import tune_lbf, tune_sandwiched

# mpmath evaluation of the optimal backup size at (f_p=0.01, f_n=0.5)
B2_STAR = 4.782069960036637


class TestLearnedBloom:
    def test_tau_zero_accepts_everything(self, synth_small):
        filt = build_lbf(synth_small, 10_000, 0.0, seed=1)
        assert filt.backup.n_inserted == 0
        for item in synth_small.items[:50]:
            assert filt.contains(item.id, item.score)

    def test_tau_one_equals_standard(self, synth_small):
        # every score is < 1, so all keys go to the backup
        filt = build_lbf(synth_small, 60_000, 1.0, seed=2)
        plain = build_standard([it.id for it in synth_small.keys], 60_000,
                               filt.backup.k, seed=2)
        assert filt.backup.bits.to_bytes() == plain.bits.to_bytes()
        for item in synth_small.items[:300]:
            assert filt.contains(item.id, item.score) == plain.contains(item.id)

    def test_boundary_score_accepted(self, synth_small):
        filt = build_lbf(synth_small, 10_000, 0.6, seed=3)
        assert filt.contains("never-inserted", 0.6)

    def test_zero_fnr(self, synth_small):
        filt = build_lbf(synth_small, 40_000, 0.7, seed=4)
        a, b = synth_small.key_pairs(4)
        assert filt.contains_batch(a, b, synth_small.key_scores).all()

    def test_nonkey_below_tau_with_empty_backup(self):
        ds = gen_synthetic(50, 50, seed=5)
        filt = build_lbf(ds, 10_000, 0.0, seed=5)
        # backup holds nothing; a below-tau probe cannot collide
        assert not filt.backup.contains("fresh-item")

    def test_is_a_sandwich_with_no_initial_filter(self, synth_small):
        filt = build_lbf(synth_small, 30_000, 0.7, seed=1)
        assert isinstance(filt, SandwichedBloom) and filt.reduced_to_lbf
        assert (filt.initial, filt.b1_bits, filt.b2_bits) == (None, 0, 30_000)
        assert filt.stages == ((0.0, 0.7, filt.backup),)
        # the sandwich's formula, with no initial filter
        fp = np.count_nonzero(synth_small.nonkey_scores >= 0.7) / synth_small.m
        assert filt.expected_fpr() == fp + (1.0 - fp) * filt.backup.expected_fpr()
        assert LearnedBloom.__slots__ == () and "expected_fpr" not in vars(LearnedBloom)
        # perfbench's tracer wraps each class's own contains_batch
        assert "contains_batch" in vars(LearnedBloom) and "contains_batch" in vars(SandwichedBloom)

    def test_score_validation(self, synth_small):
        filt = build_lbf(synth_small, 10_000, 0.5, seed=1)
        with pytest.raises(ValueError):
            filt.contains("x", 1.5)


# scores drawn from a few values, NaN among them, so that ties are common
tied_scores = st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0, math.nan]) | st.floats(0.0, 1.0),
                       max_size=30)


class TestRates:
    @settings(max_examples=300, deadline=None)
    @given(keys=tied_scores, nonkeys=tied_scores,
           tau=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
    def test_view_counts_equal_the_masks(self, keys, nonkeys, tau):
        # the view counts by searchsorted on its sorted scores, NaN last; a NaN
        # score is neither below tau nor at or above it
        dataset = ScoredDataset([ScoredItem(f"k{i}", s, True) for i, s in enumerate(keys)]
                                + [ScoredItem(f"n{i}", s, False) for i, s in enumerate(nonkeys)])
        below = int(np.count_nonzero(np.array(keys, dtype=float) < tau))
        above = int(np.count_nonzero(np.array(nonkeys, dtype=float) >= tau))
        want = (below, above / len(nonkeys) if nonkeys else None,
                below / len(keys) if keys else None)
        for data in (dataset, dataset.by_score()):
            assert data._tau_counts(tau) == (below, above)
            got = _rates(data, 0, tau)
            assert got == want
            assert [type(x) for x in got] == [type(x) for x in want]


class TestSandwichAllocate:
    def test_reference_value(self):
        b1, b2 = sandwich_allocate(0.01, 0.5, 8.0)
        assert b2 == pytest.approx(B2_STAR, rel=1e-12)
        assert b1 == pytest.approx(8.0 - B2_STAR, rel=1e-12)

    def test_matches_grid_minimization(self):
        # independent oracle: minimize a^b1 (fp + (1-fp) a^(b2/fn)) on a grid
        fp, fn, budget = 0.01, 0.5, 8.0
        grid = np.linspace(0.0, budget, 400_001)
        objective = OPTIMAL_FPR_BASE ** (budget - grid) * (
            fp + (1 - fp) * OPTIMAL_FPR_BASE ** (grid / fn))
        _, b2 = sandwich_allocate(fp, fn, budget)
        assert abs(grid[objective.argmin()] - b2) < 1e-4

    def test_clamps_to_backup_only_when_budget_small(self):
        b1, b2 = sandwich_allocate(0.01, 0.5, 3.0)  # b2* = 4.78 >= budget
        assert (b1, b2) == (0.0, 3.0)

    def test_clamps_to_initial_only_when_log_arg_at_least_one(self):
        # f_p/((1-f_p)(1/f_n - 1)) >= 1 makes the optimum non-positive
        b1, b2 = sandwich_allocate(0.9, 0.5, 8.0)
        assert (b1, b2) == (8.0, 0.0)

    def test_rejects_degenerate_rates(self):
        for fp, fn in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                sandwich_allocate(fp, fn, 8.0)

    # rates anywhere in (0, 1), subnormals included: a tiny f_p or f_n
    # underflows the log argument to 0, where every bit goes to the backup
    @settings(max_examples=300, deadline=None)
    @given(fp=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           fn=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           budget=st.floats(0.0, 1e6))
    @example(fp=1e-320, fn=1e-10, budget=8.0)
    @example(fp=0.5, fn=1e-320, budget=8.0)
    @example(fp=1e-300, fn=1e-300, budget=8.0)
    def test_shares_are_finite_and_fill_the_budget(self, fp, fn, budget):
        b1, b2 = sandwich_allocate(fp, fn, budget)
        assert math.isfinite(b1) and math.isfinite(b2)
        assert b1 >= 0.0 and b2 >= 0.0
        assert b1 + b2 == pytest.approx(budget, rel=1e-12)


class TestSandwichedBloom:
    def test_zero_fnr(self, synth_small):
        filt = build_sandwiched(synth_small, 80_000, 0.6, seed=6)
        a, b = synth_small.key_pairs(6)
        assert filt.contains_batch(a, b, synth_small.key_scores).all()
        for item in synth_small.keys[:200]:
            assert filt.contains(item.id, item.score)

    def test_reduction_matches_lbf_decisions(self, synth_small):
        # a tau with b2* above the per-key budget forces (0, budget)
        tau = 0.97
        tight = 6 * synth_small.n // 2
        sandwich = build_sandwiched(synth_small, tight, tau, seed=7)
        assert sandwich.reduced_to_lbf
        lbf = build_lbf(synth_small, tight, tau, seed=7)
        a, b = synth_small.nonkey_pairs(7)
        scores = synth_small.nonkey_scores
        got = sandwich.contains_batch(a, b, scores)
        want = lbf.contains_batch(a, b, scores)
        assert (got == want).all()

    def test_allocation_splits_when_budget_allows(self, synth_small):
        filt = build_sandwiched(synth_small, 200_000, 0.6, seed=8)
        assert filt.b1_bits > 0 and filt.b2_bits > 0
        assert filt.b1_bits + filt.b2_bits == 200_000

    def test_extreme_tau_falls_back(self, synth_small):
        filt = build_sandwiched(synth_small, 50_000, 0.0, seed=9)
        assert filt.reduced_to_lbf
        assert filt.fallback_reason is not None

    def test_tuned_sandwich_not_worse_than_lbf(self, synth_small):
        budget = 150_000
        lbf = tune_lbf(synth_small, budget, seed=10)
        sandwich = tune_sandwiched(synth_small, budget, seed=10)
        sigma = math.sqrt(max(lbf.fpr, 1e-9) * (1 - lbf.fpr) / synth_small.m)
        assert sandwich.fpr <= lbf.fpr + 3 * sigma
