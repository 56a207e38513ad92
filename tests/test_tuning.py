import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adabloom import bits, tuning
from adabloom.adaptive import AdaptiveParams, build_ada
from adabloom.bench import run_sweep
from adabloom.bits import PAIR_LANES, BitVector, HashFamily
from adabloom.disjoint import InfeasibleBudgetError, build_disjoint
from adabloom.learned import build_lbf, build_sandwiched
from adabloom.scores import (
    DatasetError,
    InsufficientDataError,
    ScoredDataset,
    ScoredItem,
    gen_synthetic,
    partition_by_ratio,
)
from adabloom.serialize import dump_filter
from adabloom.standard import StandardBloom, build_standard, insert_keys, optimal_k
from adabloom.tuning import (
    GRIDS,
    NoFeasibleCandidateError,
    TuneResult,
    _holdout_split,
    _measure,
    _plan,
    build,
    default_tau_grid,
    tune,
    tune_ada,
    tune_disjoint,
    tune_lbf,
    tune_sandwiched,
)


class TestTotalBits:
    def test_model_charged(self):
        assert TuneResult("lbf", {}, 0.0, 200_000, 146_000, None).total_bits == 346_000

    def test_zero(self):
        assert TuneResult("lbf", {}, 0.0, 0, 0, None).total_bits == 0


class TestTauSweep:
    def test_grid_of_zero_accepts_everything(self, synth_small):
        res = tune_lbf(synth_small, 20_000, tau_grid=[0.0], seed=1)
        assert res.params["tau"] == 0.0
        assert res.fpr == 1.0

    def test_grid_of_one_is_standard_filter(self, synth_small):
        res = tune_lbf(synth_small, 50_000, tau_grid=[1.0], seed=1)
        filt = res.filter
        assert filt.backup.n_inserted == synth_small.n
        hits = filt.contains_batch(*synth_small.nonkey_pairs(1), synth_small.nonkey_scores)
        assert res.fpr == pytest.approx(np.count_nonzero(hits) / len(hits))

    def test_sweep_beats_endpoints(self, synth_small):
        grid = default_tau_grid(synth_small)
        res = tune_lbf(synth_small, 100_000, seed=2)
        lo = tune_lbf(synth_small, 100_000, tau_grid=[grid[0]], seed=2)
        hi = tune_lbf(synth_small, 100_000, tau_grid=[grid[-1]], seed=2)
        assert res.fpr <= lo.fpr
        assert res.fpr <= hi.fpr

    def test_ties_break_to_larger_tau(self):
        # tiny dataset where several taus give identical (zero) fpr
        items = [ScoredItem(f"k{i}", 0.9, True) for i in range(5)]
        items += [ScoredItem(f"n{i}", 0.05 + i / 100, False) for i in range(5)]
        ds = ScoredDataset(items)
        res = tune_lbf(ds, 4000, tau_grid=[0.3, 0.5, 0.7], seed=3)
        assert res.params["tau"] == 0.7

    def test_empty_grid_rejected(self, synth_small):
        with pytest.raises(ValueError, match="empty lbf grid"):
            tune_lbf(synth_small, 1000, tau_grid=[], seed=1)

    def test_argmin_over_candidate_log(self, synth_small):
        res = tune_sandwiched(synth_small, 80_000, seed=4)
        fprs = [c["fpr"] for c in res.candidates if c["status"] == "ok"]
        assert res.fpr == min(fprs)


class TestTieRules:
    """With every candidate at one FPR, only the tie rule picks the winner."""

    @pytest.mark.parametrize("tune", [tune_lbf, tune_sandwiched])
    def test_tau_sweeps_take_the_last_tau(self, tune, synth_small):
        # a built candidate is measured, one of lbf geometry counted: both give 0.25
        def count(view, bitmap_bits, taus, seed):
            return [0.25] * len(taus)
        with mock.patch("adabloom.tuning._measure", return_value=0.25), \
                mock.patch("adabloom.tuning.count_lbf_fprs", side_effect=count):
            res = tune(synth_small, 40_000, tau_grid=[0.7, 0.3, 0.5], seed=1)
        assert res.params == {"tau": 0.5}
        assert res.fpr == 0.25

    @pytest.mark.parametrize("tune, grids, first", [
        (tune_ada, {"kmax_grid": [5, 3], "c_grid": [2.5, 1.5]}, {"k_max": 3, "c": 1.5}),
        (tune_disjoint, {"g_grid": [4, 3], "c_grid": [2.5, 1.5]}, {"g": 3, "c": 1.5}),
    ])
    def test_grids_take_the_first_point(self, tune, grids, first, synth_small):
        # every block of every candidate counts a quarter of its non-keys
        def count(filt, scores, rows):
            return len(scores) // 4
        with mock.patch("adabloom.tuning._count", side_effect=count):
            res = tune(synth_small, 40_000, seed=1, **grids)
        assert res.params == first
        assert res.candidates[0]["params"] == first


def test_tune_has_no_standard_tuner(synth_small):
    with pytest.raises(ValueError, match="no tuner"):
        tune("standard", synth_small, 40_000)


@pytest.mark.parametrize("method, grids", [
    ("lbf", {"tau_grid": [0.5, 1.5]}), ("sandwich", {"tau_grid": [float("nan")]}),
    ("ada", {"kmax_grid": [-1]}), ("ada", {"c_grid": [1.0]}), ("ada", {"kmax_grid": [3, 3.5]}),
    ("disjoint", {"g_grid": [0]}), ("disjoint", {"c_grid": [2.0, 0.5]}),
    ("disjoint", {"g_grid": [2.5]}), ("ada", {"c_grid": ["2"]}), ("lbf", {"tau_grid": ["0.5"]}),
    ("ada", {"kmax_grid": ["2"]}), ("disjoint", {"c_grid": [None]}),
    ("sandwich", {"tau_grid": [None]})])
def test_tune_rejects_out_of_range_grid_values(method, grids, wrapped_tuners):
    ds = gen_synthetic(300, 300, seed=1)
    with pytest.raises(ValueError, match=" must be "):
        tune(method, ds, 3000, **grids)
    assert all(m.call_count == 0 for m in wrapped_tuners.values())
    # a method ignores the overrides it does not take
    other = next(m for m, names in GRIDS.items() if not set(grids) & set(names))
    assert tune(other, ds, 3000, **grids).method == other


class TestTuneKeywords:
    """``tune`` holds out ``holdout_fraction`` and refuses a keyword no grid names."""

    def test_tune_names_a_keyword_no_grid_takes(self, wrapped_tuners):
        with pytest.raises(ValueError, match="no tuner takes a grid override 'kmax_gird'"):
            tune("lbf", gen_synthetic(5000, 5000, seed=1), 30000, seed=3, kmax_gird=[3])
        assert all(m.call_count == 0 for m in wrapped_tuners.values())

    def test_run_sweep_names_the_holdout_fraction(self, wrapped_tuners):
        with pytest.raises(ValueError, match="no tuner takes a grid override 'holdout_fraction'"):
            run_sweep(gen_synthetic(5000, 5000, seed=1), [30000], ["lbf"], [3],
                      holdout_fraction=0.3)
        assert all(m.call_count == 0 for m in wrapped_tuners.values())

    def test_an_empty_side_of_the_holdout_is_refused_before_any_build(self):
        with mock.patch.object(tuning, "build", wraps=tuning.build) as built, \
                pytest.raises(ValueError, match=re.escape(
                    "holdout fraction 1e-05 of 3000 non-keys leaves 3000 to tune on and 0 held out")):
            tune("disjoint", gen_synthetic(3000, 3000, seed=1), 18000, seed=3,
                 holdout_fraction=1e-5)
        assert built.call_count == 0


class TestNegativeModelBits:
    """A negative model-bit count is refused before any candidate or cell."""

    @pytest.mark.parametrize("method", sorted(GRIDS))
    def test_tune_refuses_before_any_build(self, method):
        with mock.patch.object(tuning, "build", wraps=tuning.build) as built, \
                pytest.raises(ValueError, match=re.escape("model_bits must be >= 0, got -500")):
            tune(method, gen_synthetic(300, 300, seed=1), 3000, seed=3, model_bits=-500)
        assert built.call_count == 0

    @pytest.mark.parametrize("method", sorted(tuning.PARAMS))
    def test_check_model_bits_refuses_for_every_method(self, method):
        with pytest.raises(ValueError, match=re.escape("model_bits must be >= 0, got -1")):
            tuning.check_model_bits(method, -1)

    @pytest.mark.parametrize("methods", [["standard"], ["lbf", "ada"]])
    def test_run_sweep_refuses_before_any_cell(self, methods, wrapped_tuners):
        with mock.patch.object(tuning, "build", wraps=tuning.build) as built, \
                pytest.raises(ValueError, match=re.escape("model_bits must be >= 0, got -500")):
            run_sweep(gen_synthetic(300, 300, seed=1), [2000], methods, [3], model_bits=-500)
        assert built.call_count == 0
        assert all(m.call_count == 0 for m in wrapped_tuners.values())


@pytest.mark.parametrize("grids, method, message", [
    ({"g_grid": [3]}, "ada", "method 'ada' takes no such grid"),
    ({"tau_grid": [0.5], "g_grid": [3]}, "ada", "method 'ada' takes no such grid 'tau_grid'"),
    ({"k_grid": [3]}, None, "no tuner takes a grid override 'k_grid'"),
    ({"kmax_grid": None, "c_grid": []}, "ada", "empty grid overrides ['c_grid']"),
    ({"c_grid": [2.0], "tau_grid": [0.5, 1.5]}, None, "tau must be in [0, 1], got 1.5"),
    ({"g_grid": [3, 2.5]}, "disjoint", "g must be an integer >= 1, got 2.5"),
    ({"g_grid": [3.0]}, "disjoint", "g must be an integer >= 1, got 3.0"),
    ({"kmax_grid": [3.5]}, "ada", "k_max must be an integer >= 0, got 3.5"),
    ({"c_grid": [2.0, "2"]}, "ada", "c must be finite and > 1, got '2'"),
    ({"tau_grid": [None]}, "lbf", "tau must be in [0, 1], got None")])
def test_check_grids_names_the_first_bad_override(grids, method, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        tuning.check_grids(grids, method)


def test_check_grids_takes_numpy_integers():
    grids = {"g_grid": np.arange(2, 5), "c_grid": [2.0]}
    assert tuning.check_grids(grids, "disjoint") == {"g_grid": (2, 3, 4), "c_grid": (2.0,)}


def _ids(ds):
    return [it.id for it in ds.keys]


# (method, params, the same filter from the method's own builder), at 9000 bits, seed 5
BUILDS = [
    ("standard", {}, lambda ds: build_standard(_ids(ds), 9000, optimal_k(9000, ds.n), 5)),
    ("standard", {"k": 3}, lambda ds: build_standard(_ids(ds), 9000, 3, 5)),
    ("lbf", {"tau": 0.7}, lambda ds: build_lbf(ds, 9000, 0.7, 5, 300)),
    ("sandwich", {"tau": 0.6}, lambda ds: build_sandwiched(ds, 9000, 0.6, 5, 300)),
    ("ada", {"k_max": 5, "c": 2.0}, lambda ds: build_ada(
        ds, 9000, AdaptiveParams.from_ratio(partition_by_ratio(ds, 6, 2.0), 5, 0, 2.0), 5, 300)),
    ("ada", {"k_max": 6, "c": 1.8, "k_min": 2}, lambda ds: build_ada(
        ds, 9000, AdaptiveParams.from_ratio(partition_by_ratio(ds, 5, 1.8), 6, 2, 1.8), 5, 300)),
    ("disjoint", {"g": 4, "c": 2.0}, lambda ds: build_disjoint(ds, 9000, 4, 2.0, 5, 300)),
]


def _stages(filt):
    """(lo, hi, bits, k, n_inserted) of every stage; a standard filter is one stage."""
    return [(lo, hi, stage.bits.to_bytes(), stage.k, stage.n_inserted)
            for lo, hi, stage in getattr(filt, "stages", ((0.0, math.inf, filt),))]


class TestBuild:
    @pytest.fixture(scope="class")
    def ds(self):
        return gen_synthetic(1500, 1500, seed=3)

    @pytest.mark.parametrize("on_view", [False, True], ids=["dataset", "by_score"])
    @pytest.mark.parametrize("method, params, reference", BUILDS,
                             ids=[f"{m}-{'-'.join(p)}" for m, p, _ in BUILDS])
    def test_equals_the_methods_own_builder(self, ds, method, params, reference, on_view):
        model_bits = 0 if method == "standard" else 300  # standard has no score model
        got = build(method, ds.by_score() if on_view else ds, 9000, 5, model_bits, **params)
        want = reference(ds)
        assert type(got) is type(want)
        assert _stages(got) == _stages(want)
        assert dump_filter(got) == dump_filter(want)

    @pytest.mark.parametrize("method, name", [("lbf", "build_lbf"),
                                              ("sandwich", "build_sandwiched"),
                                              ("ada", "build_ada"),
                                              ("disjoint", "build_disjoint")])
    def test_calls_the_builder_through_the_module(self, ds, method, name):
        params = next(p for m, p, _ in BUILDS if m == method)
        with mock.patch.object(tuning, name, wraps=getattr(tuning, name)) as spy:
            build(method, ds, 9000, **params)
        assert spy.call_count == 1

    @pytest.mark.parametrize("method, params", [
        ("lbf", {"tau": 0.5, "g": 3}), ("standard", {"tau": 0.5}),
        ("sandwich", {"k": 3, "tau": 0.5}), ("disjoint", {"g": 3, "c": 2.0, "k_min": 0}),
        ("lbf", {}), ("ada", {"k_max": 3}), ("disjoint", {"c": 2.0}), ("bogus", {})])
    def test_rejects_a_missing_or_stray_parameter(self, ds, method, params):
        with pytest.raises(ValueError, match=f"method '{method}' takes parameters"):
            build(method, ds, 9000, **params)

    def test_standard_refuses_model_bits(self, ds):
        # the baseline has no score model to charge them to
        with mock.patch.object(tuning, "insert_keys", side_effect=AssertionError):
            with pytest.raises(ValueError, match="'standard' has no score model, so model_bits "
                                                 "must be 0, got 300"):
                build("standard", ds, 9000, 5, 300)
        assert build("standard", ds, 9000, 5, 0).n_inserted == ds.n

    @pytest.mark.parametrize("n", [0, 10])
    def test_standard_rejects_a_negative_k_with_or_without_keys(self, n):
        with pytest.raises(ValueError, match="hash count k must be >= 0, got -1"):
            build("standard", gen_synthetic(n, 10, seed=1), 100, k=-1)

    @pytest.mark.parametrize("k_max, k_min", [(2, 3), (-1, 0), (2, -1), (3.5, 0), (3, 0.5)])
    def test_ada_names_k_max_and_k_min(self, ds, k_max, k_min):
        # checked before a partition into g = k_max - k_min + 1 groups is cut
        with mock.patch.object(tuning, "partition_by_ratio", side_effect=AssertionError):
            with pytest.raises(ValueError, match=fr"k_max >= k_min >= 0, got \({k_max}, {k_min}\)"):
                build("ada", ds, 9000, k_max=k_max, k_min=k_min, c=2.0)


class TestGridSearch:
    @pytest.mark.parametrize("tune, grids", [(tune_ada, {"kmax_grid": [3], "c_grid": []}),
                                             (tune_disjoint, {"g_grid": []})])
    def test_empty_grid_rejected(self, synth_small, tune, grids):
        with pytest.raises(ValueError, match="empty (ada|disjoint) grid"):
            tune(synth_small, 1000, seed=1, **grids)

    def test_single_candidate(self, synth_small):
        res = tune_ada(synth_small, 80_000, kmax_grid=[4], c_grid=[2.0], seed=5)
        assert res.params == {"k_max": 4, "c": 2.0}

    def test_argmin_property(self, synth_small):
        res = tune_ada(synth_small, 80_000, kmax_grid=[3, 5, 8], c_grid=[1.5, 2.5], seed=5)
        fprs = [c["fpr"] for c in res.candidates if c["status"] == "ok"]
        assert res.fpr == min(fprs)

    def test_deterministic(self, synth_small):
        a = tune_ada(synth_small, 60_000, kmax_grid=[4, 6], c_grid=[2.0], seed=6)
        b = tune_ada(synth_small, 60_000, kmax_grid=[4, 6], c_grid=[2.0], seed=6)
        assert (a.params, a.fpr) == (b.params, b.fpr)

    def test_beats_embedded_lbf_candidate(self, synth_bench):
        # an ada candidate with g=2 and the matched hash count queries
        # identically to the threshold filter at that partition's tau,
        # so the full-grid minimum can never be worse
        budget = 200_000
        c = 2.0
        part = partition_by_ratio(synth_bench, 2, c)
        tau = part.thresholds[1]
        k = optimal_k(budget, part.n_per_group[0])
        lbf = build_lbf(synth_bench, budget, tau, seed=7)
        assert lbf.backup.k == k
        hits = lbf.contains_batch(*synth_bench.nonkey_pairs(7), synth_bench.nonkey_scores)
        lbf_fpr = np.count_nonzero(hits) / len(hits)
        res = tune_ada(synth_bench, budget, kmax_grid=[k, 4, 8], c_grid=[c], seed=7)
        assert res.fpr <= lbf_fpr

    def test_infeasible_candidates_skipped_with_diagnostic(self):
        ds = gen_synthetic(200, 40, seed=8)
        res = tune_disjoint(ds, 5000, g_grid=[3, 50], c_grid=[2.0], seed=8)
        skipped = [c for c in res.candidates if c["status"].startswith("skipped")]
        assert len(skipped) == 1
        assert res.params["g"] == 3

    def test_all_infeasible_raises(self):
        ds = gen_synthetic(50, 4, seed=9)
        with pytest.raises(NoFeasibleCandidateError):
            tune_ada(ds, 5000, kmax_grid=[10, 11], c_grid=[2.0], seed=9)

    def test_disjoint_single_filtered_group(self, synth_small):
        res = tune_disjoint(synth_small, 40_000, g_grid=[2], c_grid=[2.0], seed=10)
        assert res.filter.params.r_per_group == (40_000, 0)


def _full_search(method, dataset, bitmap_bits, axis, seed):
    """The grid search measuring every candidate in full, in grid order: per candidate
    its FPR (None if skipped), and the (fpr, params, filter) of the first least one."""
    view = dataset.by_score()
    fprs, best = [], None
    for params in axis:
        try:
            filt = build(method, view, bitmap_bits, seed, **params)
        except (InsufficientDataError, InfeasibleBudgetError):
            fprs.append(None)
            continue
        hits = filt.contains_batch(*view.nonkey_pairs(seed), view.nonkey_scores)
        fprs.append(np.count_nonzero(hits) / len(hits))
        if best is None or fprs[-1] < best[0]:
            best = (fprs[-1], params, filt)
    return fprs, best


class TestBoundedSearch:
    """The grid tuners count each candidate only while it can still win."""

    # up to 13k non-keys: counts of one, two and three blocks (4096, 8192, ...)
    @settings(max_examples=60, deadline=None)
    @given(method=st.sampled_from(["ada", "disjoint"]), n=st.integers(20, 800),
           m=st.integers(20, 13_000) | st.integers(4097, 13_000)
           | st.sampled_from([4096, 4097, 12_288, 12_289]),
           bits_per_key=st.integers(1, 12),
           data_seed=st.integers(0, 20), seed=st.integers(0, 3),
           first=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
           c_grid=st.lists(st.sampled_from([1.2, 1.5, 2.0, 3.0]), min_size=1, max_size=3,
                           unique=True))
    def test_equals_the_full_measure(self, method, n, m, bits_per_key, data_seed, seed, first,
                                     c_grid):
        ds = gen_synthetic(n, m, seed=data_seed)
        bitmap_bits = n * bits_per_key
        name = "k_max" if method == "ada" else "g"
        axis = [{name: x, "c": c} for x in sorted(first) for c in sorted(c_grid)]
        fprs, best = _full_search(method, ds, bitmap_bits, axis, seed)
        tuner = tune_ada if method == "ada" else tune_disjoint
        grids = {"kmax_grid" if method == "ada" else "g_grid": first, "c_grid": c_grid}
        if best is None:
            with pytest.raises(NoFeasibleCandidateError):
                tuner(ds, bitmap_bits, seed=seed, **grids)
            return
        res = tuner(ds, bitmap_bits, seed=seed, **grids)
        assert (res.params, res.fpr) == (best[1], best[0])
        assert dump_filter(res.filter) == dump_filter(best[2])
        assert [c["params"] for c in res.candidates] == axis
        for candidate, fpr in zip(res.candidates, fprs):
            if fpr is None:
                assert candidate["status"].startswith("skipped: ")
            elif candidate["status"] == "ok":
                assert candidate["fpr"] == fpr
            else:
                assert candidate["status"] == "stopped" and candidate["fpr"] is None
                assert candidate["fpr_at_least"] <= fpr
                assert fpr > res.fpr

    def test_stopped_candidates_are_lower_bounds(self, synth_small):
        res = tune_disjoint(synth_small, 60_000, seed=4)
        stopped = [c for c in res.candidates if c["status"] == "stopped"]
        assert stopped
        assert all(set(c) == {"params", "fpr", "fpr_at_least", "status"} for c in stopped)
        assert all(c["fpr_at_least"] > res.fpr for c in stopped)
        ok = [c for c in res.candidates if c["status"] == "ok"]
        assert res.fpr == min(c["fpr"] for c in ok)
        assert res.params == next(c["params"] for c in ok if c["fpr"] == res.fpr)

    def test_a_tie_goes_to_the_earlier_grid_point(self, synth_small):
        # k_max = 8 comes first by expected FPR, and is counted first; with every
        # candidate counting no false positive, the earlier grid point still wins
        axis = [{"k_max": 2, "c": 2.0}, {"k_max": 8, "c": 2.0}]
        planned = [_plan("ada", synth_small.by_score(), 40_000, 1, 0, p).expected_fpr()
                   for p in axis]
        assert planned[1] < planned[0]
        with mock.patch.object(tuning, "build", wraps=tuning.build) as built, \
                mock.patch("adabloom.tuning._count", return_value=0):
            res = tune_ada(synth_small, 40_000, kmax_grid=[2, 8], c_grid=[2.0], seed=1)
        assert [c.kwargs["k_max"] for c in built.call_args_list] == [8, 2]
        assert res.params == axis[0] and res.fpr == 0.0
        assert [c["status"] for c in res.candidates] == ["ok", "ok"]

    @pytest.mark.parametrize("method, params", [
        ("ada", {"k_max": 5, "c": 2.0}), ("ada", {"k_max": 0, "c": 1.5}),
        ("disjoint", {"g": 4, "c": 2.0}), ("disjoint", {"g": 9, "c": 1.5})])
    def test_the_plan_is_the_built_filter_before_insert(self, method, params):
        ds = gen_synthetic(300, 2000, seed=2)
        plan = _plan(method, ds, 3000, 5, 0, params)
        filt = build(method, ds, 3000, 5, **params)
        table = [[(lo, hi, stage.size_bits, stage.k, stage.n_inserted)
                  for lo, hi, stage in f.stages] for f in (plan, filt)]
        assert table[0] == table[1]
        assert plan.shares == filt.shares
        assert plan.expected_fpr() == filt.expected_fpr()
        assert not any(stage.bits.to_bytes().strip(b"\0") for _, _, stage in plan.stages)


class TestHoldout:
    def test_holdout_fpr_close_to_tune_fpr(self, synth_small):
        res = tune("lbf", synth_small, 100_000, seed=12, holdout_fraction=0.3)
        tune_fpr = min(c["fpr"] for c in res.candidates)
        # held-out measurement of the same filter stays in the same regime
        assert res.fpr == pytest.approx(tune_fpr, abs=0.02)

    def test_holdout_deterministic(self, synth_small):
        a = tune("ada", synth_small, 60_000, seed=13, holdout_fraction=0.25, kmax_grid=[4],
                 c_grid=[2.0])
        b = tune("ada", synth_small, 60_000, seed=13, holdout_fraction=0.25, kmax_grid=[4],
                 c_grid=[2.0])
        assert a.fpr == b.fpr

    def test_rejects_bad_fraction(self, synth_small):
        with pytest.raises(ValueError):
            tune("lbf", synth_small, 10_000, seed=1, holdout_fraction=1.0, tau_grid=[0.5])


class TestHoldoutSplit:
    """``tune`` holds non-keys out by splitting the dataset before its tuner sees it."""

    @pytest.fixture(scope="class")
    def ds(self):
        return gen_synthetic(2000, 2000, seed=4)

    def test_the_draw_is_pinned(self):
        ds = gen_synthetic(500, 500, seed=3)
        tune_on, held_out = _holdout_split(ds, 0.3, 7)
        # the non-keys that a mask over the view's non-keys held out before the split
        digest = hashlib.sha256("\n".join(sorted(held_out.nonkey_ids)).encode()).hexdigest()
        assert digest == "498f6859ee54cd0a65e93be048a4890968174c5be5efab3e262307cf967d217d"
        assert (tune_on.n, tune_on.m, held_out.n, held_out.m) == (500, 350, 0, 150)
        assert sorted(tune_on.key_ids) == sorted(ds.key_ids)
        assert sorted(tune_on.nonkey_ids + held_out.nonkey_ids) == sorted(ds.nonkey_ids)
        # each side in score order, and a view of the dataset holds out the same non-keys
        for side, theirs in zip((tune_on, held_out), _holdout_split(ds.by_score(), 0.3, 7)):
            assert side.ids == theirs.ids
            assert (np.diff(side.key_scores) >= 0).all()
            assert (np.diff(side.nonkey_scores) >= 0).all()

    @pytest.mark.parametrize("method", sorted(GRIDS))
    def test_held_out_scores_shape_no_candidate(self, method, ds):
        held = set(_holdout_split(ds, 0.3, 13)[1].nonkey_ids)
        moved = np.array([i in held for i in ds.ids])
        scores = ds.scores.copy()
        scores[moved] = np.random.default_rng(5).random(np.count_nonzero(moved))
        other = ScoredDataset.from_columns(ds.ids, scores, ds.is_key)
        a = tune(method, ds, 12_000, seed=13, holdout_fraction=0.3)
        b = tune(method, other, 12_000, seed=13, holdout_fraction=0.3)
        assert (a.params, a.candidates) == (b.params, b.candidates)
        assert dump_filter(a.filter) == dump_filter(b.filter)

    @pytest.mark.parametrize("method", sorted(GRIDS))
    def test_tune_runs_the_tuner_on_the_tune_side(self, method, ds):
        tune_on, held_out = _holdout_split(ds, 0.3, 13)
        got = tune(method, ds, 12_000, seed=13, holdout_fraction=0.3)
        want = getattr(tuning, tuning._TUNERS[method])(tune_on, 12_000, seed=13)
        assert (got.params, got.candidates) == (want.params, want.candidates)
        assert dump_filter(got.filter) == dump_filter(want.filter)
        # the winner counted once, on the held-out non-keys alone
        assert got.fpr == _measure(want.filter, held_out.by_score())


class TestHoldoutPinned:
    """Held-out results recorded before the tuners moved to the score-ordered view.

    ``ada``'s FPR moved 0.028 -> 0.032 when ``tune`` came to split the
    dataset: the held-out non-keys no longer move its partition cuts.
    """

    @pytest.fixture(scope="class")
    def ds(self):
        return gen_synthetic(3000, 3000, seed=4)

    def test_lbf(self, ds):
        res = tune("lbf", ds, 20000, seed=12, holdout_fraction=0.3)
        assert res.params == {"tau": 0.8569796025167842}
        assert res.fpr == 0.006666666666666667

    def test_ada(self, ds):
        res = tune("ada", ds, 15000, seed=13, holdout_fraction=0.25, kmax_grid=[3, 4, 5],
                   c_grid=[1.6, 2.0])
        assert res.params == {"k_max": 5, "c": 2.0}
        assert res.fpr == 0.032

    def test_disjoint(self, ds):
        res = tune("disjoint", ds, 15000, seed=13, holdout_fraction=0.25, g_grid=[3, 4],
                   c_grid=[1.6, 2.0])
        assert res.params == {"g": 4, "c": 2.0}
        assert res.fpr == 0.06933333333333333


class TestScoreOrderedView:
    """Filters built on ``dataset.by_score()`` equal those built on the dataset."""

    @staticmethod
    def _builds(ds, seed):
        params = AdaptiveParams.from_ratio(partition_by_ratio(ds, 6, 2.0), 5, 0, 2.0)
        return [build_lbf(ds, 9000, 0.7, seed), build_lbf(ds, 9000, 0.05, seed),
                build_sandwiched(ds, 12000, 0.7, seed), build_ada(ds, 9000, params, seed),
                build_disjoint(ds, 9000, 5, 1.8, seed)]

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
    def test_builds_are_byte_identical(self, seed):
        ds = gen_synthetic(1500, 1500, seed=seed % 7)
        for mine, theirs in zip(self._builds(ds.by_score(), seed), self._builds(ds, seed)):
            assert dump_filter(mine) == dump_filter(theirs)

    def test_tuning_a_view_equals_tuning_its_dataset(self, synth_small):
        view = synth_small.by_score()
        for method, kw in (("lbf", {"tau_grid": [0.3, 0.6, 0.9]}),
                           ("sandwich", {"tau_grid": [0.3, 0.6, 0.9]}),
                           ("ada", {"kmax_grid": [3, 5], "c_grid": [2.0]}),
                           ("disjoint", {"g_grid": [3, 5], "c_grid": [2.0]})):
            # the view holds out the same non-keys as the dataset
            a = tune(method, synth_small, 60_000, seed=2, holdout_fraction=0.3, **kw)
            b = tune(method, view, 60_000, seed=2, holdout_fraction=0.3, **kw)
            assert (a.params, a.fpr, a.candidates) == (b.params, b.fpr, b.candidates)
            assert dump_filter(a.filter) == dump_filter(b.filter)

    @pytest.mark.parametrize("n, m", [(0, 600), (600, 0)])
    def test_one_sided_datasets(self, n, m):
        ds = gen_synthetic(n, m, seed=2)
        view = ds.by_score()
        for mine, theirs in ((build_lbf(view, 4000, 0.5, 1), build_lbf(ds, 4000, 0.5, 1)),
                             (build_sandwiched(view, 4000, 0.5, 1),
                              build_sandwiched(ds, 4000, 0.5, 1))):
            assert dump_filter(mine) == dump_filter(theirs)
        if m:
            # no keys: the backup is empty, only scores at or above tau pass
            res = tune_lbf(ds, 4000, tau_grid=[0.5, 0.9], seed=1)
            assert res.params == {"tau": 0.9}
            assert res.fpr == float((ds.nonkey_scores >= 0.9).mean())
        else:
            with pytest.raises(ValueError):
                tune_lbf(ds, 4000, tau_grid=[0.5], seed=1)


@pytest.fixture
def cache_reads(monkeypatch):
    """Count the set_hashed / test_hashed calls that read cached probe columns."""
    reads = {"set_hashed": 0, "test_hashed": 0}
    for name in reads:
        kernel = getattr(bits.BitVector, name)

        def spy(self, a, b, k, *, cached=None, _kernel=kernel, _name=name, **per_item):
            reads[_name] += cached is not None
            return _kernel(self, a, b, k, cached=cached, **per_item)
        monkeypatch.setattr(bits.BitVector, name, spy)
    return reads


@pytest.fixture
def matrix_reads(monkeypatch):
    """Per ``ProbeRows.probe`` call (the tau counter's) of a cached column, the
    cache it read and whether it read the matrix that cache held before the
    call, rather than building one or computing the column: a column read
    from the matrix is ``int32``, a computed one ``intp``."""
    reads = []
    probe = bits.ProbeRows.probe

    def spy(self, family, i, r):
        held = self.cache._columns
        column = probe(self, family, i, r)
        if i < bits.CACHED_COLUMNS:
            reads.append((self.cache, column.dtype == np.int32 and self.cache._columns is held))
        return column
    monkeypatch.setattr(bits.ProbeRows, "probe", spy)
    return reads


class TestWarmView:
    """A view whose probe cache is built gives the same filters and tuner results."""

    BUILDS = {
        "lbf": lambda ds: build_lbf(ds, 9000, 0.7, 1),
        "lbf-k-past-cache": lambda ds: build_lbf(ds, 9000, 0.2, 1),  # k = 693
        "ada": lambda ds: build_ada(ds, 9000, AdaptiveParams.from_ratio(
            partition_by_ratio(ds, 6, 2.0), 5, 0, 2.0), 1),
        "sandwich-reduced": lambda ds: build_sandwiched(ds, 9000, 0.9, 1),
    }

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_builds_and_answers_are_identical(self, kind, cache_reads):
        build = self.BUILDS[kind]
        ds = gen_synthetic(1500, 1500, seed=3)
        want = build(ds)
        assert kind != "sandwich-reduced" or want.reduced_to_lbf
        answers = want.contains_batch(*ds.nonkey_pairs(1), ds.nonkey_scores)
        view = ds.by_score()
        for _ in range(3):  # cold, then the cache is built, then read
            # an insert of every key at the builds' seed, lane and R: it asks the
            # cache for their geometry, as each build does
            insert_keys(view, 1, ((0.0, math.inf, StandardBloom(BitVector(9000), 1,
                                                                HashFamily(1))),))
            filt = build(view)
            assert dump_filter(filt) == dump_filter(want)
            got = filt.contains_batch(*view.nonkey_pairs(1), view.nonkey_scores,
                                      rows=view.probe_rows(keys=False))
            assert (got == answers[view.nonkey_order]).all()
        assert cache_reads["set_hashed"] >= 1 and cache_reads["test_hashed"] >= 1

    TUNERS = [
        (tune_lbf, {"tau_grid": [0.05, 0.2, 0.5, 0.8, 0.9, 0.95]}),
        (tune_sandwiched, {"tau_grid": [0.05, 0.2, 0.5, 0.8, 0.9, 0.95]}),
        (tune_ada, {"kmax_grid": [3, 8, 12], "c_grid": [1.6, 2.0]}),
        (tune_disjoint, {"g_grid": [3, 5], "c_grid": [2.0]}),
    ]

    @pytest.mark.parametrize("tune, grids", TUNERS, ids=lambda x: getattr(x, "__name__", ""))
    def test_tuners_agree_on_cold_and_warm_views(self, tune, grids, cache_reads, matrix_reads):
        cold = tune(gen_synthetic(1500, 1500, seed=5), 9000, seed=2, **grids)
        view = gen_synthetic(1500, 1500, seed=5).by_score()
        tune(view, 9000, seed=2, **grids)
        reads, counted = dict(cache_reads), len(matrix_reads)
        warm = tune(view, 9000, seed=2, **grids)
        assert (warm.params, warm.fpr, warm.candidates) == (cold.params, cold.fpr, cold.candidates)
        assert dump_filter(warm.filter) == dump_filter(cold.filter)
        if tune in (tune_lbf, tune_sandwiched):  # the warm count read both sides' held matrix
            warm_reads = matrix_reads[counted:]
            assert all(read for _, read in warm_reads)
            assert {id(cache) for cache, _ in warm_reads} == \
                {id(view.probe_rows(keys).cache) for keys in (True, False)}
        elif tune is not tune_disjoint:  # its stages differ in lane: no geometry repeats
            assert cache_reads["test_hashed"] > reads["test_hashed"]


# one build's (method, params), from few values, so that geometries repeat
BUILD_STEPS = st.one_of(
    st.tuples(st.just("standard"), st.sampled_from([{}, {"k": 0}, {"k": 3}])),
    st.tuples(st.sampled_from(["lbf", "sandwich"]),
              st.fixed_dictionaries({"tau": st.sampled_from([0.0, 0.2, 0.5, 0.6, 0.9, 1.0])})),
    st.tuples(st.just("ada"), st.fixed_dictionaries({"k_max": st.integers(0, 6),
                                                     "c": st.sampled_from([1.5, 2.0, 3.0])})),
    st.tuples(st.just("disjoint"), st.fixed_dictionaries({"g": st.integers(1, 6),
                                                          "c": st.sampled_from([1.5, 2.0])})),
)


class TestViewCaches:
    """A run of builds on one view, whose caches carry over from build to build."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(BUILD_STEPS, st.sampled_from([300, 2000]),
                                    st.sampled_from([0, 1, 2**40 + 3])),
                          min_size=1, max_size=8),
           data_seed=st.integers(0, 3), data=st.data())
    def test_builds_and_answers_equal_the_datasets(self, steps, data_seed, data):
        ds = gen_synthetic(120, 150, seed=data_seed)
        view = ds.by_score()
        holdout = np.array(data.draw(st.lists(st.booleans(), min_size=view.m, max_size=view.m)))
        for (method, params), bitmap_bits, seed in steps:
            try:
                want = build(method, ds, bitmap_bits, seed, **params)
            except (InsufficientDataError, InfeasibleBudgetError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    build(method, view, bitmap_bits, seed, **params)
                continue
            got = build(method, view, bitmap_bits, seed, **params)
            # every stage has the same bits, k and key count
            assert _stages(got) == _stages(want)
            for keys in (False, True):
                a, b = view.key_pairs(seed) if keys else view.nonkey_pairs(seed)
                scores = view.key_scores if keys else view.nonkey_scores
                rows = view.probe_rows(keys=keys)
                plain = got.contains_batch(a, b, scores)
                assert (got.contains_batch(a, b, scores, rows=rows) == plain).all()
                if not keys:  # holdout rows: an index array
                    assert (got.contains_batch(a[holdout], b[holdout], scores[holdout],
                                               rows=rows.select(np.flatnonzero(holdout)))
                            == plain[holdout]).all()
                # the view keeps one seed's final pairs per lane: all rows of lanes 0
                # and 1, the rows asked for so far of the others (a zero stride is a
                # row not asked for, since a stride is odd)
                for lane, (lane_seed, held_a, held_b) in rows.cache._lanes.items():
                    served = np.flatnonzero(held_b)
                    assert lane >= PAIR_LANES or len(served) == len(held_b)
                    base_a, base_b = (view.key_pairs if keys else view.nonkey_pairs)(lane_seed)
                    want_a, want_b = HashFamily(lane_seed, lane).remix_pairs(base_a[served],
                                                                             base_b[served])
                    assert (held_a[served] == want_a).all() and (held_b[served] == want_b).all()


    @pytest.mark.parametrize("method, params", [
        ("standard", {}), ("lbf", {"tau": 0.6}), ("sandwich", {"tau": 0.6}),
        ("ada", {"k_max": 5, "c": 2.0}), ("disjoint", {"g": 4, "c": 1.5})])
    def test_answers_with_rows_read_no_base_pairs(self, method, params):
        ds = gen_synthetic(300, 400, seed=5)
        view = ds.by_score()
        filt = build(method, view, 4000, 7, **params)
        holdout = np.arange(view.m) % 3 != 0
        for keys in (False, True):
            a, b = view.key_pairs(7) if keys else view.nonkey_pairs(7)
            scores = view.key_scores if keys else view.nonkey_scores
            rows = view.probe_rows(keys=keys)
            plain = filt.contains_batch(a, b, scores)
            # with rows every stage reads its pairs from the view, so no base pairs are needed
            assert (filt.contains_batch(None, None, scores, rows=rows) == plain).all()
            if not keys:
                assert (filt.contains_batch(None, None, scores[holdout],
                                            rows=rows.select(np.flatnonzero(holdout)))
                        == plain[holdout]).all()

    def test_the_view_holds_hash_work_only(self):
        # every tuner on one view: the caches hold hash pairs and probe columns,
        # and no filter's bits (a bit array is bool)
        view = gen_synthetic(1500, 1500, seed=5).by_score()
        for tune, grids in TestWarmView.TUNERS:
            tune(view, 9000, seed=2, **grids)

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)

        held = [array for keys in (True, False)
                for slot in bits.ProbeCache.__slots__
                for array in arrays(getattr(view.probe_rows(keys=keys).cache, slot))]
        assert held
        assert {array.dtype for array in held} <= {np.dtype(np.uint64), np.dtype(np.int32)}


class TestRobustness:
    def test_retuning_c_at_fixed_kmax_stays_close(self, synth_bench):
        budget = 200_000
        kmax_grid = (4, 6, 8, 10)
        c_grid = (1.4, 1.8, 2.2, 2.6, 3.0)
        full = tune_ada(synth_bench, budget, kmax_grid, c_grid, seed=11)
        refit = tune_ada(synth_bench, budget, [full.params["k_max"]], c_grid, seed=11)
        assert refit.fpr <= 1.5 * full.fpr
        # a misspecified k_max still lands close after retuning c
        k_off = full.params["k_max"] - 2
        if k_off in kmax_grid:
            off = tune_ada(synth_bench, budget, [k_off], c_grid, seed=11)
            assert off.fpr <= 1.5 * full.fpr
