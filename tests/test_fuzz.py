"""Sweep fuzz: ``run_sweep`` and every ``tuning.build`` filter over small random datasets.

Tiny budgets, up to 12 groups, ratios c near 1, tied scores, and scores on
the stages' bounds, queried as float64 and as float32.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from adabloom.bench import METHODS, run_sweep
from adabloom.bits import HashFamily
from adabloom.learned import build_lbf, build_sandwiched
from adabloom.scores import ScoredDataset, ScoredItem
from adabloom.serialize import dump_filter, loads_filter
from adabloom.standard import StandardBloom
from adabloom.tuning import build

# a few values shared by keys, non-keys and taus, so scores tie and sit on
# stage bounds: float32(0.3) and float32(0.7) are just off 0.3 and 0.7, and
# the next double above float32(0.3) rounds back onto it in float32
F32_03 = float(np.float32(0.3))
POOL = (0.0, 0.1, 0.3, F32_03, float(np.nextafter(F32_03, 1.0)), 0.5, 0.7,
        float(np.float32(0.7)), 0.9, 1.0)
# scores and taus, as Python floats or as numpy float32 values
score = st.one_of(st.sampled_from(POOL), st.floats(0.0, 1.0), st.floats(0.0, 1.0, width=32),
                  st.sampled_from(POOL).map(np.float32),
                  st.floats(0.0, 1.0, width=32).map(np.float32))
near_one = st.one_of(st.floats(1.0, 1.05, exclude_min=True), st.floats(1.05, 4.0))


@st.composite
def datasets(draw):
    keys = draw(st.lists(score, max_size=30))
    nonkeys = draw(st.lists(score, max_size=40))
    return ScoredDataset([ScoredItem(f"k{i}", s, True) for i, s in enumerate(keys)]
                         + [ScoredItem(f"n{i}", s, False) for i, s in enumerate(nonkeys)])


@st.composite
def params(draw, method):
    """Build parameters for ``method``, as ``tuning.PARAMS`` names them."""
    if method == "standard":
        return draw(st.sampled_from([{}, {"k": draw(st.integers(0, 6))}]))
    if method in ("lbf", "sandwich"):
        return {"tau": draw(score)}
    if method == "ada":
        return {"k_max": draw(st.integers(0, 11)), "c": draw(near_one)}
    return {"g": draw(st.integers(1, 12)), "c": draw(near_one)}


def _probes(filt, ds: ScoredDataset):
    """(ids, float64 scores): every item, fresh ids, and fresh ids on each stage bound."""
    ids = [it.id for it in ds.items] + ["fresh-a", "fresh-b"]
    scores = [it.score for it in ds.items] + [0.0, 1.0]
    stages = ((0.0, math.inf, filt),) if isinstance(filt, StandardBloom) else filt.stages
    for lo, hi, _ in stages:
        for bound in (lo, hi):
            if 0.0 < bound <= 1.0:
                for x in (bound, np.nextafter(float(bound), 0.0), np.float32(bound)):
                    if 0.0 <= x <= 1.0:
                        ids.append(f"b{len(ids)}")
                        scores.append(float(x))
    return ids, np.array(scores)


def _answers(filt, ids, scores, seed):
    """The answers of ``contains`` and of ``contains_batch``, given ``scores``' dtype."""
    a, b = HashFamily(seed).base_pairs(ids)
    scalar = [filt.contains(i, s) for i, s in zip(ids, scores)]
    return scalar, filt.contains_batch(a, b, scores).tolist()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ds=datasets(), budget=st.integers(1, 400), model_bits=st.sampled_from([0, 0, 8]),
       seed=st.integers(0, 2**32), tau_grid=st.lists(score, min_size=1, max_size=3),
       kmax_grid=st.lists(st.integers(0, 11), min_size=1, max_size=2),
       g_grid=st.lists(st.integers(1, 12), min_size=1, max_size=2),
       c_grid=st.lists(near_one, min_size=1, max_size=2))
def test_sweep_raises_nothing_and_misses_no_key(ds, budget, model_bits, seed, tau_grid,
                                                kmax_grid, g_grid, c_grid):
    rows = run_sweep(ds, [budget], METHODS, [seed], model_bits=model_bits, tau_grid=tau_grid,
                     kmax_grid=kmax_grid, g_grid=g_grid, c_grid=c_grid)
    assert len(rows) == len(METHODS)
    for row in rows:
        assert row.status.startswith(("ok", "skipped", "infeasible")), row
        if row.status.startswith("ok"):
            assert row.fnr == 0.0, row
            assert row.analytical_fpr is None or 0.0 <= row.analytical_fpr <= 1.0, row


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), ds=datasets(), method=st.sampled_from(METHODS),
       bitmap_bits=st.integers(1, 400), seed=st.integers(0, 2**32))
def test_built_filter_answers_alike_on_every_path(data, ds, method, bitmap_bits, seed):
    try:
        filt = build(method, ds, bitmap_bits, seed, **data.draw(params(method)))
    except ValueError:  # too few non-keys for g groups, no workable share, ...
        return
    loaded = loads_filter(dump_filter(filt))
    ids, scores = _probes(filt, ds)
    for dtype in (np.float64, np.float32):
        typed = scores.astype(dtype)
        scalar, batch = _answers(filt, ids, typed, seed)
        assert scalar == batch, dtype
        assert _answers(loaded, ids, typed, seed) == (scalar, batch), dtype
        # zero FNR, also for a key asked with its score in float32 when that is exact
        keys = [j for j, it in enumerate(ds.items)
                if it.is_key and float(typed[j]) == float(it.score)]
        assert all(scalar[j] for j in keys), dtype


@settings(max_examples=60, deadline=None)
@given(ds=datasets(), bitmap_bits=st.integers(0, 400), tau=score, seed=st.integers(0, 2**32))
def test_sandwich_with_no_initial_bits_is_the_lbf(ds, bitmap_bits, tau, seed):
    sandwich = build_sandwiched(ds, bitmap_bits, tau, seed)
    if sandwich.b1_bits:
        return
    lbf = build_lbf(ds, bitmap_bits, tau, seed)
    assert sandwich.initial is None and sandwich.reduced_to_lbf
    assert (sandwich.backup.k, sandwich.backup.n_inserted) == (lbf.backup.k, lbf.backup.n_inserted)
    assert sandwich.backup.bits.to_bytes() == lbf.backup.bits.to_bytes()
    assert sandwich.expected_fpr() == lbf.expected_fpr()
    ids, scores = _probes(lbf, ds)
    assert _answers(sandwich, ids, scores, seed) == _answers(lbf, ids, scores, seed)
