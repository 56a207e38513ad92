"""The counted tau sweep: ``count_lbf_fprs`` against building and measuring each ``lbf``.

Every tau's counted FPR must equal, with ``==``, the FPR the tuner measures
on ``build_lbf`` at that tau, over the non-keys of a dataset or of the tune
side of a holdout split, on a view whose probe matrix is not yet built,
already built, or built for another geometry. Budgets run from 0 bits to
2**18, so k runs from 0 to the cap of 64, past the cached columns, and
tau = 0 leaves no key in the backup.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adabloom.bits import CACHED_COLUMNS, HashFamily
from adabloom.learned import build_lbf, build_sandwiched, count_lbf_fprs
from adabloom.scores import ScoredDataset, ScoredItem, gen_synthetic
from adabloom.standard import optimal_k
from adabloom.tuning import _holdout_split, _measure, default_tau_grid, tune, tune_lbf

# scores and taus that tie with each other and sit on the backup's bound
POOL = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
BUDGETS = (0, 1, 7, 64, 300, 2000, 1 << 18)


@st.composite
def views(draw):
    """A small dataset's score-ordered view: generated, or drawn from the pool."""
    if draw(st.booleans()):
        ds = gen_synthetic(draw(st.integers(0, 80)), draw(st.integers(1, 80)),
                           seed=draw(st.integers(0, 5)))
    else:
        score = st.sampled_from(POOL) | st.floats(0.0, 1.0)
        keys = draw(st.lists(score, max_size=40))
        nonkeys = draw(st.lists(score, min_size=1, max_size=40))
        ds = ScoredDataset([ScoredItem(f"k{i}", s, True) for i, s in enumerate(keys)]
                           + [ScoredItem(f"n{i}", s, False) for i, s in enumerate(nonkeys)])
    return ds.by_score()


def _measured(view, bitmap_bits, taus, seed):
    return [_measure(build_lbf(view, bitmap_bits, tau, seed), view) for tau in taus]


def _warm(view, bitmap_bits, seed):
    """Hold both sides' probe matrix for the lane-0 family of ``seed`` at this budget:
    a cache builds the matrix of a geometry asked for twice in a row."""
    for keys in (True, False):
        for _ in range(2):
            view.probe_rows(keys).cache.columns(HashFamily(seed), max(1, bitmap_bits))


@settings(max_examples=150, deadline=None)
@given(view=views(), bitmap_bits=st.sampled_from(BUDGETS),
       taus=st.lists(st.sampled_from(POOL) | st.floats(0.0, 1.0), min_size=1, max_size=10),
       seed=st.sampled_from([0, 3, 2**40 + 3]), holdout=st.sampled_from([0.0, 0.3]),
       cache=st.sampled_from(["cold", "warm", "other geometry"]))
def test_counts_equal_build_and_measure(view, bitmap_bits, taus, seed, holdout, cache):
    taus = [0.0, *taus, 1.0, taus[0]]  # no key in the backup, every key but 1.0, a duplicate
    # a holdout split leaves a non-key on each side, so it needs two
    if holdout and view.m > 1:
        view = _holdout_split(view, holdout, seed)[0].by_score()
    if cache == "warm":
        _warm(view, bitmap_bits, seed)
    elif cache == "other geometry":
        _warm(view, bitmap_bits + 1, seed + 1)
    assert count_lbf_fprs(view, bitmap_bits, taus, seed) == \
        _measured(view, bitmap_bits, taus, seed)


@pytest.mark.parametrize("cache", ["cold", "warm"])
@pytest.mark.parametrize("bitmap_bits", [0, 1, 1500, 20_000, 1 << 18])
def test_the_whole_default_grid(bitmap_bits, cache):
    view = gen_synthetic(600, 700, seed=4).by_score()
    taus = [0.0, *default_tau_grid(view), 1.0]
    ks = {optimal_k(bitmap_bits, int(np.searchsorted(view.key_scores, tau))) for tau in taus}
    # every budget has a group past the cached columns: at k = 64 if no other
    assert max(ks) > CACHED_COLUMNS
    for counted in (view, _holdout_split(view, 0.25, 9)[0].by_score()):
        if cache == "warm":
            _warm(counted, bitmap_bits, 9)
        assert count_lbf_fprs(counted, bitmap_bits, taus, 9) == \
            _measured(counted, bitmap_bits, taus, 9)


@pytest.mark.parametrize("bitmap_bits", [0, 1500, 20_000])
def test_a_plain_dataset_counts_as_its_view(bitmap_bits):
    # the counter counts on ``dataset.by_score()``; on a plain dataset it used to
    # read its probe rows, which only a view has
    ds = gen_synthetic(300, 400, seed=6)
    taus = [0.0, 0.2, 0.5, 0.8, 1.0]
    plain = count_lbf_fprs(ds, bitmap_bits, taus, 3)
    assert plain == count_lbf_fprs(ds.by_score(), bitmap_bits, taus, 3)
    assert plain == _measured(ds.by_score(), bitmap_bits, taus, 3)


@pytest.mark.parametrize("holdout", [0.0, 0.3])
def test_sandwich_candidates_reduced_to_lbf_log_their_measured_fpr(holdout):
    ds = gen_synthetic(400, 400, seed=1)
    taus = [0.1, 0.5, 0.8, 0.9, 0.95, 0.99]
    res = tune("sandwich", ds, 3000, seed=2, holdout_fraction=holdout, tau_grid=taus)
    # the candidates are tuned on the tune side alone
    view = (_holdout_split(ds, holdout, 2)[0] if holdout else ds).by_score()
    reduced = 0
    for candidate in res.candidates:
        filt = build_sandwiched(view, 3000, candidate["params"]["tau"], 2)
        reduced += filt.reduced_to_lbf
        assert candidate["fpr"] == _measure(filt, view)
    assert 0 < reduced < len(taus)


class TestRefusals:
    def test_tau_out_of_range(self):
        with pytest.raises(ValueError, match=r"tau must be in \[0, 1\], got 1.5"):
            tune_lbf(gen_synthetic(50, 50, seed=1), 1000, tau_grid=[1.5])

    def test_empty_split(self):
        with pytest.raises(ValueError, match="leaves 0 to tune on and 1 held out"):
            tune("lbf", gen_synthetic(50, 1, seed=1), 1000, holdout_fraction=0.9,
                 tau_grid=[0.5])

    def test_no_nonkeys_and_a_negative_budget(self):
        with pytest.raises(ValueError, match="cannot measure FPR without non-keys"):
            count_lbf_fprs(gen_synthetic(50, 0, seed=1).by_score(), 1000, [0.5], 1)
        with pytest.raises(ValueError, match="bitmap_bits must be >= 0"):
            count_lbf_fprs(gen_synthetic(50, 50, seed=1).by_score(), -1, [0.5], 1)
