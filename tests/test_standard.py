import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adabloom import bits, standard
from adabloom.adaptive import AdaptiveParams, build_ada
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import build_disjoint
from adabloom.learned import build_lbf, build_sandwiched
from adabloom.scores import ScoredDataset, ScoredItem, gen_synthetic, partition_by_ratio
from adabloom.serialize import dump_filter, loads_filter
from adabloom.standard import (
    DEFAULT_K_CAP,
    MAX_K,
    GatedBloom,
    StandardBloom,
    alpha_load,
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

    def test_hash_count_is_bounded(self):
        assert StandardBloom(BitVector(64), MAX_K, HashFamily(1)).k == MAX_K
        with pytest.raises(ValueError, match=f"hash count k must be <= {MAX_K}, got {MAX_K + 1}"):
            StandardBloom(BitVector(64), MAX_K + 1, HashFamily(1))

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
            bits = build_standard(keys, 1000, 7, seed).bits
            loads.append(bits.popcount() / bits.length_bits)
        assert abs(np.mean(loads) - LOAD_1000_100_7) < 0.05


class TestQuery:
    def test_zero_fnr_exhaustive(self):
        keys = [f"key{i}" for i in range(10_000)]
        filt = build_standard(keys, 100_000, 7, seed=3)
        fam = filt.family
        a, b = fam.remix_pairs(*fam.base_pairs(keys))
        assert filt.bits.test_hashed(a, b, filt.k).all()

    @pytest.mark.parametrize("kind", ["standard", "lbf", "ada", "disjoint"])
    def test_a_mismatched_batch_is_refused_before_any_probe(self, kind):
        # one score for 2000 keys used to gate all of them; a longer base_b was cut short
        ds = gen_synthetic(2000, 2000, seed=1)
        filt = {"standard": lambda: build_standard([it.id for it in ds.keys], 20_000, 7, 1),
                "lbf": lambda: build_lbf(ds, 20_000, 0.5, 1),
                "ada": lambda: build_ada(
                    ds, 20_000, AdaptiveParams.from_ratio(partition_by_ratio(ds, 4, 2.0), 5, 2), 1),
                "disjoint": lambda: build_disjoint(ds, 20_000, 4, 2.0, 1)}[kind]()
        a, b = ds.key_pairs(1)
        with mock.patch.object(BitVector, "test_hashed", side_effect=AssertionError("probed")):
            for args in ((a, b, ds.key_scores[:1]), (a, b[:1000], ds.key_scores),
                         (a[:5], b, ds.key_scores[:5])):
                with pytest.raises(ValueError, match="^batch arrays differ in length: "):
                    filt.contains_batch(*args)
        assert filt.contains_batch(a, b, ds.key_scores).all()

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

    def test_one_bit(self):
        # one bit that any key sets is set: every probe passes (log1p(-1) is not taken)
        assert expected_fpr_standard(1, 4397, 1) == 1.0
        assert expected_fpr_standard(1, 1, 5) == 1.0
        assert expected_fpr_standard(1, 0, 3) == 0.0
        assert expected_fpr_standard(1, 9, 0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(2, 10**6), n=st.integers(0, 10**5), k=st.integers(0, 70))
    def test_is_the_one_group_load_to_the_k(self, r, n, k):
        # the closed form as written before it became alpha_load's one-group case
        want = 1.0 if k == 0 else (-math.expm1(k * n * math.log1p(-1.0 / r))) ** k
        assert expected_fpr_standard(r, n, k) == want == alpha_load(r, (n,), (k,)) ** k
        assert expected_fpr_standard(r, np.int64(n), k) == want

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

    def test_cap_holds_for_every_n(self):
        assert DEFAULT_K_CAP == 64
        assert optimal_k(10**6, 100) == 64
        # Round((r/n) ln 2) reaches 65 just above 93 bits per key
        assert optimal_k(9300, 100) == 64 and optimal_k(9400, 100) == 64

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


def stage_mask(scores, lo, hi, alive=None):
    """The items ``lo <= score < hi`` that ``alive`` keeps, as a boolean mask: lo <= 0
    and hi > 1 are open ends, and a NaN score is above every bound."""
    sel = np.ones(len(scores), dtype=bool)
    if hi <= 1.0:
        sel &= scores < hi
    if lo > 0.0:
        sel &= ~(scores < lo)
    return sel if alive is None else sel & alive


class TestStageRanges:
    """On a score-ordered view the stages pick score ranges; elsewhere positions. Same
    items."""

    @settings(max_examples=200, deadline=None)
    @given(scores=st.lists(SCORES | st.just(math.nan), max_size=80),
           lo=st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
           hi=st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, math.inf]), data=st.data())
    def test_unordered_selection_is_the_masks_positions(self, scores, lo, hi, data):
        scores = np.array(scores, dtype=np.float64)
        n = len(scores)
        alive = data.draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
        alive = None if alive is None else np.array(alive, dtype=bool)
        want = np.flatnonzero(stage_mask(scores, lo, hi, alive))
        sel, count = standard._stage_items(scores, lo, hi, False, alive)
        assert count == len(want)
        if isinstance(sel, slice):  # a stage over the whole axis that drops no survivor
            assert lo <= 0.0 and hi > 1.0 and (alive is None or alive.all())
            assert sel == slice(0, n)
        else:
            assert sel.dtype == np.intp and sel.tolist() == want.tolist()


    @settings(max_examples=120, deadline=None)
    @given(keys=st.lists(SCORES | st.just(math.nan), max_size=60), spec=STAGES,
           sandwich=st.booleans(), seed=st.integers(0, 2**32))
    def test_insert_on_the_view_equals_the_dataset(self, keys, spec, sandwich, seed):
        if sandwich:  # an initial stage over every score in front
            spec = [(0.0, math.inf, 200, 3, 1)] + spec
        ds = scored(keys, [0.5])
        want = fresh_stages(spec, seed)
        insert_keys(ds, seed, want)
        base_a, base_b = ds.key_pairs(seed)
        for lo, hi, stage in want:  # each stage holds the keys of its mask, NaN ones on top
            sel = stage_mask(ds.key_scores, lo, hi)
            ref = BitVector(stage.size_bits)
            ref.set_hashed(*stage.family.remix_pairs(base_a[sel], base_b[sel]), stage.k)
            assert stage.n_inserted == np.count_nonzero(sel)
            assert stage.bits.to_bytes() == ref.to_bytes()
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


def stage_mask_reference(filt, base_a, base_b, scores):
    """A batch answered stage by stage, each stage over a boolean mask of the items
    it holds that no earlier stage rejected, every probe one column at a time."""
    stages = ((0.0, math.inf, filt),) if isinstance(filt, StandardBloom) else filt.stages
    out = np.ones(len(scores), dtype=bool)
    for lo, hi, stage in stages:
        sel = out & (scores >= lo) & (scores < hi)
        a, b = stage.family.remix_pairs(base_a[sel], base_b[sel])
        buf = np.frombuffer(stage.bits.to_bytes(), dtype=np.uint8)
        hit = np.ones(len(a), dtype=bool)
        for i in range(stage.k):
            idx = ((a + b * np.uint64(i)) % np.uint64(stage.bits.length_bits)).astype(np.intp)
            hit &= (buf[idx >> 3] & (1 << (idx & 7))) != 0
        out[sel] = hit
    return out


QUERY_SEED = 11


@pytest.fixture(scope="module")
def query_filters():
    """The five kinds at the query benchmark's fixed parameters: 50k keys, 200k
    non-keys, 300 Kb, tau 0.5, ada k_max 8 with c 2, disjoint g 8 with c 2."""
    ds = gen_synthetic(50_000, 200_000, seed=QUERY_SEED)
    r, seed = 300_000, QUERY_SEED
    ada = AdaptiveParams.from_ratio(partition_by_ratio(ds, 9, 2.0), 8, 0, 2.0)
    return ds, {
        "standard": build_standard([it.id for it in ds.keys], r, optimal_k(r, ds.n), seed),
        "lbf": build_lbf(ds, r, 0.5, seed),
        "sandwich": build_sandwiched(ds, r, 0.5, seed),
        "ada": build_ada(ds, r, ada, seed),
        "disjoint": build_disjoint(ds, r, 8, 2.0, seed),
    }


class TestOneWalk:
    """A batch without probe rows probes stages with disjoint intervals, picked by lower
    bound, in one walk, with a count, range and offset per item; the answers are the
    stages'."""

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("kind", ["standard", "lbf", "sandwich", "ada", "disjoint"])
    def test_large_unordered_batches_answer_as_stage_masks(self, query_filters, kind, loaded):
        ds, built = query_filters
        filt = loads_filter(dump_filter(built[kind])) if loaded else built[kind]
        rng = np.random.default_rng(len(kind))
        picks = rng.choice(ds.n, 6000, replace=False)
        scores = np.concatenate([ds.key_scores[picks], rng.beta(1.0, 3.0, 18_000)])
        # scores on every stage bound, and on the ends of [0, 1]
        bounds = [x for lo, hi, _ in getattr(filt, "stages", ()) for x in (lo, hi) if x <= 1.0]
        scores[6000:8000] = rng.choice(np.array(bounds + [0.0, 1.0]), 2000)
        ids = [ds.keys[i].id for i in picks] + [f"q{i}" for i in range(18_000)]
        order = rng.permutation(len(ids))
        ids, scores = [ids[i] for i in order], scores[order]
        a, b = HashFamily(QUERY_SEED).base_pairs(ids)
        want = stage_mask_reference(filt, a, b, scores).tolist()
        for block in (standard._WALK_ITEMS, 5000):  # one block, then blocks of 5000 items
            with mock.patch.object(standard, "_WALK_ITEMS", block):
                got = (filt.contains_batch(a, b) if kind == "standard"
                       else filt.contains_batch(a, b, scores))
            assert got.tolist() == want
        assert got[order < 6000].all()
        assert 0 < np.count_nonzero(got[order >= 6000]) < 18_000

    @pytest.mark.parametrize("small", [bits._SMALL_BATCH, 0])
    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(SCORES, max_size=60), nonkeys=st.lists(SCORES, min_size=1, max_size=200),
           spec=STAGES, sandwich=st.booleans(), seed=st.integers(0, 2**32))
    def test_equals_scalar_contains(self, small, keys, nonkeys, spec, sandwich, seed):
        if sandwich:  # the later, overlapping stages are probed after the walk
            spec = [(0.0, math.inf, 60, 2, 1)] + spec
        ds = scored(keys, nonkeys)
        filt = GatedBloom(fresh_stages(spec, seed), seed)
        insert_keys(ds, seed, filt.stages)
        for items in (ds.keys, ds.nonkeys):
            a, b = HashFamily(seed).base_pairs([it.id for it in items])
            with mock.patch.object(bits, "_SMALL_BATCH", small):
                got = filt.contains_batch(a, b, np.array([it.score for it in items]))
            assert got.tolist() == [filt.contains(it.id, it.score) for it in items]

    def test_a_high_k_stage_finishes_its_walk_in_one_slab(self, query_filters, monkeypatch):
        # a batch of the query benchmark's shape, 2500 keys and 7500 Beta(1, 3) non-keys:
        # lbf's backup (k = 34 at tau 0.5) probed its few keys left column by column in
        # 17 kernel calls; once their remaining probes fit a small batch, one slab ends it
        ds, built = query_filters
        filt = built["lbf"]
        assert filt.backup.k > 30
        rng = np.random.default_rng(41)
        picks = rng.choice(ds.n, 2500, replace=False)
        ids = [ds.keys[i].id for i in picks] + [f"q{i:07d}" for i in range(7500)]
        scores = np.concatenate([ds.key_scores[picks], rng.beta(1.0, 3.0, 7500)])
        order = rng.permutation(len(ids))
        a, b = HashFamily(QUERY_SEED).base_pairs([ids[i] for i in order])
        scores = scores[order]
        calls = []
        probes = bits._probes
        monkeypatch.setattr(bits, "_probes", lambda *args: calls.append(1) or probes(*args))
        got = filt.contains_batch(a, b, scores)
        assert len(calls) <= 7
        assert got.tolist() == stage_mask_reference(filt, a, b, scores).tolist()
        assert got[order < 2500].all()

    def test_bounds_a_millionth_apart(self):
        near = 0.3 + 1e-6
        spec = [(0.0, 0.3, 3000, 4, 1), (0.3, near, 300, 2, 2), (near, math.inf, 3000, 6, 3)]
        scores = [0.3 - 1e-9, 0.3, 0.3 + 5e-7, near, near + 1e-9, 0.5, 0.25, 1.0] * 40
        ds = scored(scores, scores)
        filt = GatedBloom(fresh_stages(spec, 2), 2)
        insert_keys(ds, 2, filt.stages)
        for items in (ds.keys, ds.nonkeys):
            a, b = HashFamily(2).base_pairs([it.id for it in items])
            got = filt.contains_batch(a, b, np.array([it.score for it in items]))
            assert got.tolist() == [filt.contains(it.id, it.score) for it in items]
        assert 0 < np.count_nonzero(got) < len(got)

    def test_huge_k_stage_answers_quickly(self):
        # a walk of 10**6 single columns would take seconds
        full = BitVector.from_bytes(b"\xff" * 125, 1000)
        filt = GatedBloom(((0.0, 0.5, StandardBloom(full, 10**6, HashFamily(12))),
                           (0.5, math.inf, StandardBloom(BitVector(64).freeze(), 3,
                                                         HashFamily(12, 2)))), 12)
        a, b = HashFamily(12).base_pairs(["x", "y", "z", "w"])
        t0 = time.perf_counter()
        got = filt.contains_batch(a, b, np.array([0.1, 0.2, 0.7, 0.3]))
        assert time.perf_counter() - t0 < 2.0
        assert got.tolist() == [True, True, False, True]

    def test_twenty_thousand_stages_answer_the_first_batch_quickly(self):
        # the walk is planned in one pass by lower bound, not each stage against every
        # earlier one: at 4000 stages that took about 5 s
        g = 20_000
        spec = [(j / g, (j + 1) / g if j + 1 < g else math.inf, 64, 2, 1 + j % 3)
                for j in range(g)]
        rng = np.random.default_rng(20)
        ds = scored(rng.random(200), rng.random(200))
        filt = GatedBloom(fresh_stages(spec, 20), 20)
        insert_keys(ds, 20, filt.stages)
        a, b = HashFamily(20).base_pairs([it.id for it in ds.items])
        scores = np.array([it.score for it in ds.items])
        t0 = time.perf_counter()
        got = filt.contains_batch(a, b, scores)
        assert time.perf_counter() - t0 < 1.0
        assert got.tolist() == [filt.contains(it.id, it.score) for it in ds.items]
        assert got[:200].all()

    def test_a_walk_makes_its_lane_salts_once(self, monkeypatch):
        # three stages on lanes 0, 1 and 2: each batch remixes per piece from the plan's salts
        filt = GatedBloom(fresh_stages([(0.0, 0.3, 300, 3, 0), (0.3, 0.6, 400, 2, 1),
                                        (0.6, math.inf, 500, 4, 2)], 5), 5)
        rng = np.random.default_rng(5)
        ds = scored(rng.random(40), rng.random(40))
        insert_keys(ds, 5, filt.stages)
        for _, _, stage in filt.stages:
            stage.bits.freeze()
        calls = []
        original = HashFamily.lane_salts
        monkeypatch.setattr(HashFamily, "lane_salts",
                            staticmethod(lambda families: calls.append(1) or original(families)))
        a, b = HashFamily(5).base_pairs(ds.ids)
        answers = [filt.contains_batch(a, b, ds.scores).tolist() for _ in range(3)]
        assert calls == [1]
        assert answers[0] == answers[2] == [filt.contains(i, s) for i, s in
                                            zip(ds.ids, ds.scores.tolist())]
        assert answers[0][:40] == [True] * 40

    def test_a_batch_before_the_bits_freeze_sees_later_inserts(self):
        filt = GatedBloom(fresh_stages([(0.0, 0.5, 300, 3, 1), (0.5, math.inf, 500, 4, 2)], 5), 5)
        a, b = HashFamily(5).base_pairs(["k0", "k1"])
        scores = np.array([0.2, 0.8])
        assert not filt.contains_batch(a, b, scores).any()
        insert_keys(scored(scores, [0.5]), 5, filt.stages)
        assert filt.contains_batch(a, b, scores).all()

    def test_scalar_contains_probes_only_the_stages_holding_the_score(self, monkeypatch):
        # 2000 disjoint stages, a gap, and two later stages over them (a sandwich's
        # backup, an empty interval)
        g = 2000
        spec = [(j / g, (j + 1) / g, 64, 2, 1 + j % 3) for j in range(g - 10)]
        spec += [(0.999, math.inf, 64, 2, 2), (0.0, 0.25, 4000, 3, 0), (0.6, 0.6, 64, 1, 1)]
        rng = np.random.default_rng(30)
        ds = scored(rng.random(300), rng.random(300))
        filt = GatedBloom(fresh_stages(spec, 30), 30)
        insert_keys(ds, 30, filt.stages)
        probed = []
        original = StandardBloom.contains
        monkeypatch.setattr(StandardBloom, "contains",
                            lambda self, item, score=None: probed.append(self) or original(self, item))
        bounds = [x for lo, hi, *_ in spec for x in (lo, hi) if x <= 1.0]
        queries = list(zip(ds.ids, ds.scores.tolist())) + [
            (f"b{i}", score) for i, score in enumerate(bounds[::7] + [0.0, 0.9955, 0.999, 1.0])]
        for item, score in queries:
            holding = [stage for lo, hi, stage in filt.stages if lo <= score < hi]
            want = all(original(stage, item) for stage in holding)
            probed.clear()
            assert filt.contains(item, score) == want
            # at most the stages holding the score, and all of them if the item passes
            assert all(any(stage is held for held in holding) for stage in probed)
            assert len(probed) <= len(holding) and (not want or len(probed) == len(holding))


BLOCK = 64  # ``_WALK_ITEMS`` in the block tests


@pytest.fixture(scope="module")
def small_filters():
    """The five kinds on 2000 keys and 2000 non-keys at 20 Kb, tau 0.5, ada k_max 5 with
    c 2, disjoint g 4 with c 2, each as built and as loaded from its dump."""
    ds = gen_synthetic(2000, 2000, seed=7)
    r, seed = 20_000, 7
    ada = AdaptiveParams.from_ratio(partition_by_ratio(ds, 6, 2.0), 5, 0, 2.0)
    built = {
        "standard": build_standard([it.id for it in ds.keys], r, optimal_k(r, ds.n), seed),
        "lbf": build_lbf(ds, r, 0.5, seed),
        "sandwich": build_sandwiched(ds, r, 0.5, seed),
        "ada": build_ada(ds, r, ada, seed),
        "disjoint": build_disjoint(ds, r, 4, 2.0, seed),
    }
    return ds, {(kind, loaded): loads_filter(dump_filter(filt)) if loaded else filt
                for kind, filt in built.items() for loaded in (False, True)}


def block_batch(ds, n, shuffle):
    """The first n of: a block of keys, a block of non-keys scored at or above 0.5 (no
    item in ``lbf``'s backup or the sandwich's), more keys, then Beta(1, 3) non-keys;
    shuffled if asked. Returns the base pairs, the scores and which items are keys."""
    rng = np.random.default_rng(n)
    keys = rng.choice(ds.n, BLOCK + n // 4, replace=False)
    ids = [ds.keys[i].id for i in keys[:BLOCK]] + [f"h{i}" for i in range(BLOCK)]
    scores = [ds.key_scores[keys[:BLOCK]], rng.uniform(0.5, 1.0, BLOCK)]
    ids += [ds.keys[i].id for i in keys[BLOCK:]] + [f"q{i}" for i in range(n)]
    scores += [ds.key_scores[keys[BLOCK:]], rng.beta(1.0, 3.0, n)]
    is_key = np.repeat([True, False, True, False], [BLOCK, BLOCK, len(keys) - BLOCK, n])
    order = rng.permutation(n) if shuffle else np.arange(n)
    a, b = HashFamily(7).base_pairs([ids[i] for i in order])
    return a, b, np.concatenate(scores)[order], is_key[order]


def ask(filt, a, b, scores):
    return filt.contains_batch(a, b) if isinstance(filt, StandardBloom) else \
        filt.contains_batch(a, b, scores)


KINDS = ["standard", "lbf", "sandwich", "ada", "disjoint"]


class TestBlocks:
    """A batch without probe rows is answered in blocks of ``_WALK_ITEMS`` items, the walk
    and every later stage alike, after its arrays and scores are checked whole."""

    @pytest.mark.parametrize("loaded", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_answer_as_stage_masks(self, small_filters, kind, loaded, monkeypatch):
        ds, filters = small_filters
        filt = filters[kind, loaded]
        monkeypatch.setattr(standard, "_WALK_ITEMS", BLOCK)
        for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 5 * BLOCK + 3):
            for shuffle in (False, True):
                a, b, scores, is_key = block_batch(ds, n, shuffle)
                got = ask(filt, a, b, scores)
                assert got.dtype == bool and got.shape == (n,)
                assert got.tolist() == stage_mask_reference(filt, a, b, scores).tolist()
                assert got[is_key].all()
        assert not got[~is_key].all()

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_probe_takes_at_most_a_block(self, small_filters, kind, monkeypatch):
        # the blocks' probe calls take as many items in all as the batch's calls in one
        # block; before, only the walk was blocked, and lbf's backup took every item below
        # tau in one call
        ds, filters = small_filters
        filt = filters[kind, False]
        a, b, scores, _ = block_batch(ds, 5 * BLOCK + 3, True)
        calls = []
        probe = bits.BitVector.test_hashed
        monkeypatch.setattr(bits.BitVector, "test_hashed",
                            lambda self, *args, **kw: calls.append(len(args[0]))
                            or probe(self, *args, **kw))
        ask(filt, a, b, scores)
        assert sum(calls) <= (2 if kind == "sandwich" else 1) * len(a)
        whole = list(calls)
        calls.clear()
        monkeypatch.setattr(standard, "_WALK_ITEMS", BLOCK)
        ask(filt, a, b, scores)
        assert max(calls) <= BLOCK and sum(calls) == sum(whole)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_bad_last_block_is_refused_before_any_probe(self, small_filters, kind,
                                                          monkeypatch):
        ds, filters = small_filters
        filt = filters[kind, True]
        monkeypatch.setattr(standard, "_WALK_ITEMS", BLOCK)
        a, b, scores, _ = block_batch(ds, 2 * BLOCK + 1, True)
        nan, high = scores.copy(), scores.copy()
        nan[-1], high[-1] = math.nan, 1.5
        cases = [((a, b[:-1], scores), "^batch arrays differ in length: "),
                 ((a, b, scores[:-1]), "^batch arrays differ in length: ")]
        if kind != "standard":  # a standard filter takes a score and ignores it
            cases += [((a, b, nan), "^score must be in \\[0, 1\\], got nan$"),
                      ((a, b, high), "^score must be in \\[0, 1\\], got 1.5$")]
        calls = []
        probes = bits._probes
        monkeypatch.setattr(bits, "_probes", lambda *args: calls.append(1) or probes(*args))
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                filt.contains_batch(*args)
        assert calls == []
        ask(filt, a, b, scores)
        assert calls


def traced_peak(call) -> int:
    """Bytes that ``call()`` allocates at its peak above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["standard", "lbf", "sandwich"])
def test_a_large_batch_allocates_a_few_blocks(query_filters, kind):
    # one 400k batch on random base pairs (no ids hashed): with only the walk blocked,
    # it peaked at 10.4 (standard), 18.1 (lbf) and 13.6 MB (sandwich) above its inputs,
    # and half the batch at half that
    filt = query_filters[1][kind]
    rng = np.random.default_rng(400)
    a, b = (rng.integers(0, 2**64, 400_000, dtype=np.uint64) for _ in range(2))
    scores = rng.beta(1.0, 3.0, 400_000)
    ask(filt, a[:10], b[:10], scores[:10])  # what a first batch makes once
    peak = {n: traced_peak(lambda: ask(filt, a[:n], b[:n], scores[:n]))
            for n in (200_000, 400_000)}
    assert peak[400_000] < 6_000_000
    # the answers take a byte per item, and their blocks another until joined
    assert peak[400_000] - peak[200_000] < 2 * 200_000 + 100_000


class TestPrefixFills:
    """Stages on the view whose keys grow or repeat a prefix of the keys, as
    ``lbf`` backups at ascending tau do, get the bits the dataset's stages get."""

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
