import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adabloom.bits import BitVector, HashFamily
from adabloom.scores import ScoredDataset, ScoredItem
from adabloom.standard import (
    DEFAULT_K_CAP,
    GatedBloom,
    StandardBloom,
    build_standard,
    expected_fpr_standard,
    insert_keys,
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

    def test_cap_holds_for_every_n(self):
        assert DEFAULT_K_CAP == 64
        assert optimal_k(10**6, 100) == 64
        assert optimal_k(10**6, 100, k_cap=10**4) == 6931
        # Round((r/n) ln 2) reaches 65 just above 93 bits per key
        assert optimal_k(9300, 100) == 64 and optimal_k(9400, 100) == 64
        assert optimal_k(9300, 100, k_cap=10**4) == 64
        assert optimal_k(9400, 100, k_cap=10**4) == 65

    def test_never_negative(self):
        assert optimal_k(1, 10**9) == 0


# scores on and between the stage bounds below, with ties
SCORES = st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]) | st.floats(0, 1)
# bounds: lo <= 0 and hi > 1 are open ends; lo >= hi makes an empty stage
LOS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
HIS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, math.inf])
STAGES = st.lists(st.tuples(LOS, HIS, st.sampled_from([40, 300, 3000]), st.integers(0, 14),
                            st.sampled_from([0, 1, 3])), min_size=1, max_size=4)


def fresh_stages(spec, seed):
    return tuple((lo, hi, StandardBloom(BitVector(r), k, HashFamily(seed, lane)))
                 for lo, hi, r, k, lane in spec)


def scored(key_scores, nonkey_scores):
    return ScoredDataset([ScoredItem(f"k{i}", s, True) for i, s in enumerate(key_scores)]
                         + [ScoredItem(f"n{i}", s, False) for i, s in enumerate(nonkey_scores)])


class TestStageRanges:
    """On a score-ordered view the stages pick score ranges; elsewhere masks. Same items."""

    @settings(max_examples=120, deadline=None)
    @given(keys=st.lists(SCORES | st.just(math.nan), max_size=60), spec=STAGES,
           sandwich=st.booleans(), seed=st.integers(0, 2**32))
    def test_insert_on_the_view_equals_the_dataset(self, keys, spec, sandwich, seed):
        if sandwich:  # an initial stage over every score in front
            spec = [(0.0, math.inf, 200, 3, 1)] + spec
        ds = scored(keys, [0.5])
        want = fresh_stages(spec, seed)
        insert_keys(ds, seed, want)
        view = ds.by_score()
        for _ in range(3):  # cold, then the probe cache is built, then read
            got = fresh_stages(spec, seed)
            insert_keys(view, seed, got)
            for (_, _, g), (_, _, w) in zip(got, want):
                assert g.n_inserted == w.n_inserted
                assert g.bits.to_bytes() == w.bits.to_bytes()
                assert g.bits.frozen

    @settings(max_examples=120, deadline=None)
    @given(keys=st.lists(SCORES, max_size=60), nonkeys=st.lists(SCORES, min_size=1, max_size=80),
           spec=STAGES, sandwich=st.booleans(), seed=st.integers(0, 2**32), data=st.data())
    def test_query_with_rows_equals_without(self, keys, nonkeys, spec, sandwich, seed, data):
        if sandwich:  # rejects items the later, overlapping stages then hold
            spec = [(0.0, math.inf, 60, 2, 1)] + spec
        ds = scored(keys, nonkeys)
        filt = GatedBloom(fresh_stages(spec, seed), seed)
        insert_keys(ds, seed, filt.stages)
        view = ds.by_score()
        holdout = np.array(data.draw(st.lists(st.booleans(), min_size=view.m, max_size=view.m)))
        for side in (False, True):
            a, b = view.key_pairs(seed) if side else view.nonkey_pairs(seed)
            scores = view.key_scores if side else view.nonkey_scores
            rows = view.probe_rows(keys=side)
            want = filt.contains_batch(a, b, scores)
            assert want.tolist() == [filt.contains(it.id, it.score)
                                     for it in (view.keys if side else view.nonkeys)]
            for _ in range(3):
                assert (filt.contains_batch(a, b, scores, rows=rows) == want).all()
            if not side and holdout.any():  # an order-keeping subset: index-array rows
                sub = rows.select(holdout)
                assert isinstance(sub.rows, np.ndarray)
                got = filt.contains_batch(a[holdout], b[holdout], scores[holdout], rows=sub)
                assert (got == want[holdout]).all()

    def test_query_with_rows_needs_ascending_scores(self):
        ds = scored([0.1, 0.3, 0.6, 0.9] * 10, [0.2, 0.5, 0.8] * 10)
        filt = GatedBloom(fresh_stages([(0.0, 0.5, 300, 4, 0), (0.5, math.inf, 300, 8, 2)], 1), 1)
        insert_keys(ds, 1, filt.stages)
        view = ds.by_score()
        a, b = view.key_pairs(1)
        rows = view.probe_rows(keys=True)
        assert filt.contains_batch(a, b, view.key_scores, rows=rows).all()
        turned = np.arange(view.n)[::-1]
        with pytest.raises(ValueError, match="ascending score order"):
            filt.contains_batch(a[turned], b[turned], view.key_scores[turned],
                                rows=rows.select(turned))
        assert filt.contains_batch(a[turned], b[turned], view.key_scores[turned]).all()


class TestPrefixFills:
    """A fresh stage on the view that extends the view's last fresh fill of the same
    seed, lane, R, k and first row starts from its bytes; the bits are the same."""

    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(SCORES | st.just(math.nan), max_size=80),
           steps=st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.25]), HIS | SCORES,
                                    st.sampled_from([1, 4, 64]), st.sampled_from([40, 3000]),
                                    st.sampled_from([0, 1, 3])), min_size=1, max_size=12),
           order=st.sampled_from(["drawn", "ascending", "descending"]),
           seed=st.integers(0, 2**32))
    def test_extended_fill_equals_fresh_fill(self, keys, steps, order, seed):
        # drawn from few values, so taus repeat and (R, k, lane) runs occur
        if order != "drawn":
            steps = sorted(steps, key=lambda step: step[1], reverse=order == "descending")
        ds = scored(keys, [0.5])
        view = ds.by_score()
        for spec in steps:
            want = fresh_stages([spec], seed)
            insert_keys(ds, seed, want)
            got = fresh_stages([spec], seed)
            insert_keys(view, seed, got)
            assert got[0][2].n_inserted == want[0][2].n_inserted
            assert got[0][2].bits.to_bytes() == want[0][2].bits.to_bytes()
            assert got[0][2].bits.frozen

    def test_only_the_keys_past_the_fill_are_inserted(self, monkeypatch):
        ds = scored([i / 100 for i in range(100)] + [math.nan], [0.5])
        view = ds.by_score()
        inserted = []
        kernel = BitVector.set_hashed

        def spy(self, a, b, k, *, cached=None):
            inserted.append(len(a))
            return kernel(self, a, b, k, cached=cached)
        monkeypatch.setattr(BitVector, "set_hashed", spy)

        def insert(spec, seed=1):
            """The view's stage, after checking it against the dataset's."""
            want = fresh_stages([spec], seed)
            insert_keys(ds, seed, want)
            inserted.clear()
            got = fresh_stages([spec], seed)
            insert_keys(view, seed, got)
            assert got[0][2].bits.to_bytes() == want[0][2].bits.to_bytes()
            return list(inserted)

        # the NaN key sorts last, and no bound holds it but an open end
        runs = [insert((0.0, tau, 3000, 4, 0)) for tau in (0.1, 0.3, 0.3, 0.55, math.inf)]
        assert runs == [[10], [20], [], [25], [46]]
        # another k, R, lane, seed or first row, or a shorter range: a fresh fill
        runs = [insert(spec, seed) for spec, seed in (
            ((0.0, 0.95, 3000, 5, 0), 1), ((0.0, 0.95, 3001, 5, 0), 1),
            ((0.0, 0.95, 3001, 5, 1), 1), ((0.0, 0.95, 3001, 5, 1), 2),
            ((0.05, 0.95, 3001, 5, 1), 2), ((0.05, 0.9, 3001, 5, 1), 2))]
        assert runs == [[95], [95], [95], [95], [90], [85]]

    def test_bits_already_set_are_not_a_fresh_fill(self):
        ds = scored([i / 100 for i in range(100)], [0.5])
        view = ds.by_score()

        def shared_array(dataset, preset):
            """Two stages on one array, as ada's, over bits ``preset`` already set."""
            shared = BitVector(3001)
            shared.set_bits(preset)
            stages = [(0.0, 0.3, StandardBloom(shared, 5, HashFamily(1))),
                      (0.0, 0.6, StandardBloom(shared, 5, HashFamily(1)))]
            insert_keys(dataset, 1, stages)
            assert [stage.n_inserted for _, _, stage in stages] == [30, 60]
            return shared.to_bytes()

        # the first stage matches the last fill, but its bits are not all zero
        insert_keys(view, 1, fresh_stages([(0.0, 0.2, 3001, 5, 0)], 1))
        assert shared_array(view, [7, 2000]) == shared_array(ds, [7, 2000])
        # on all-zero bits the first stage is a fill: of its own bits, not the array's
        assert shared_array(view, []) == shared_array(ds, [])
        want, got = (fresh_stages([(0.0, 0.4, 3001, 5, 0)], 1) for _ in range(2))
        insert_keys(ds, 1, want)
        insert_keys(view, 1, got)
        assert got[0][2].bits.to_bytes() == want[0][2].bits.to_bytes()
