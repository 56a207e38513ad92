"""Hyper-parameter search for every filter variant, with memory accounting.

Threshold filters sweep tau over non-key score percentiles; the
adaptive filter sweeps (k_max, c) with k_min fixed at 0 (so g = k_max + 1);
the disjoint filter sweeps (g, c). All four share one search loop: every
candidate is scored at the full bit budget by empirical FPR on the
dataset's own non-keys, argmin wins. A tie goes to the larger tau
(smaller backup filter) or to the first, smallest (k_max, c) / (g, c)
point. Infeasible candidates are skipped with a diagnostic recorded in
the candidate log, so a report never has silent gaps. ``GRIDS`` names
the grid overrides each method takes; ``tune(method, ...)`` runs that
method's tuner and ``build(method, ...)`` builds one filter from its
``PARAMS``, for the tuners, the sweep harness and the command line alike.

Every candidate is scored on ``dataset.by_score()``, the same items with
keys and non-keys each in ascending score order. The filters are
bit-identical and the FPR counts equal to those on the dataset itself,
but each candidate cuts the score axis anew, and on sorted scores its
group counts are one ``searchsorted`` and each of its stages picks one
range of rows, not a boolean mask over all of them. A holdout split is
still drawn in the dataset's item order.

The candidates of ``lbf`` geometry are counted, not built: every ``lbf``
tau, and every ``sandwich`` tau whose split (``learned.sandwich_split``,
the step ``build_sandwiched`` takes) gives the initial filter no bits,
fallbacks included. ``learned.count_lbf_fprs`` gives their FPRs in one
pass per distinct k, equal float for float to building and measuring
each. The other candidates are built and measured, and a counted winner
is built once the search is over, so the filters, FPRs and candidate
logs are those of building every candidate. On the two-budget sweep
(50k/50k, 150 and 300 Kb, default grids, seed 7; 2-core Xeon, numpy 2.4,
raw) ``tune_lbf`` went from 0.26 to 0.07 s and ``tune_sandwiched`` from
0.75 to 0.61 s, the whole sweep from 2.0 to 1.66 s.

Memory accounting follows the benchmark convention that a learned
method's budget includes its score model: total = bitmap + model bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adaptive import AdaptiveParams, build_ada, check_ladder
from .bits import BitVector, HashFamily
from .disjoint import InfeasibleBudgetError, build_disjoint
from .learned import (build_lbf, build_sandwiched, count_lbf_fprs, sandwich_split,
                      scored_nonkeys)
from .scores import InsufficientDataError, ScoredDataset, partition_by_ratio
from .standard import StandardBloom, check_model_count, insert_keys, optimal_k

__all__ = [
    "TuneResult",
    "NoFeasibleCandidateError",
    "DEFAULT_C_GRID",
    "DEFAULT_KMAX_GRID",
    "DEFAULT_G_GRID",
    "GRIDS",
    "PARAMS",
    "OPTIONAL",
    "check_grids",
    "check_model_bits",
    "build",
    "default_tau_grid",
    "tune_lbf",
    "tune_sandwiched",
    "tune_ada",
    "tune_disjoint",
    "tune",
]

DEFAULT_C_GRID = tuple(round(1.2 + 0.2 * i, 1) for i in range(10))  # 1.2 .. 3.0
DEFAULT_KMAX_GRID = tuple(range(2, 13))
DEFAULT_G_GRID = tuple(range(2, 13))

# the grid overrides each tuned method takes, with their element types
GRIDS = {
    "lbf": {"tau_grid": float},
    "sandwich": {"tau_grid": float},
    "ada": {"kmax_grid": int, "c_grid": float},
    "disjoint": {"g_grid": int, "c_grid": float},
}
# the parameters each method's build takes, with their types
PARAMS = {"standard": {"k": int}, "lbf": {"tau": float}, "sandwich": {"tau": float},
          "ada": {"k_max": int, "c": float, "k_min": int}, "disjoint": {"g": int, "c": float}}
# the parameters a build may be given without (k defaults to optimal_k, k_min to 0)
OPTIONAL = ("k", "k_min")
# per grid override, the values every build refuses, whatever the candidate
_GRID_LIMITS = {
    "tau_grid": (lambda tau: 0.0 <= tau <= 1.0, "tau must be in [0, 1]"),  # False on NaN
    "kmax_grid": (lambda k_max: k_max >= 0, "k_max must be >= 0"),
    "c_grid": (lambda c: 1.0 < c < math.inf, "c must be finite and > 1"),  # False on NaN
    "g_grid": (lambda g: g >= 1, "g must be >= 1"),
}
# each tuned method's tuner, by name (see ``tune``)
_TUNERS = {"lbf": "tune_lbf", "sandwich": "tune_sandwiched", "ada": "tune_ada",
           "disjoint": "tune_disjoint"}


class NoFeasibleCandidateError(ValueError):
    """Every candidate in the grid was infeasible for this dataset."""


@dataclass
class TuneResult:
    method: str
    params: dict
    fpr: float
    bitmap_bits: int
    model_bits: int
    filter: object
    candidates: list[dict] = field(default_factory=list)
    grids: dict = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        """Total budget charged to the method; learned methods pay for the model."""
        return self.bitmap_bits + self.model_bits


def default_tau_grid(dataset: ScoredDataset) -> tuple[float, ...]:
    """Percentiles 1..99 of the non-key scores and of the key scores, merged.

    Non-key percentiles alone stop near the top of the non-key
    distribution, capping tau below the threshold filter's optimum at
    generous budgets; the key percentiles supply resolution in the
    high-score region where that optimum lives.
    """
    if dataset.m == 0:
        raise ValueError("cannot derive a tau grid without non-keys")
    qs = np.percentile(dataset.nonkey_scores, np.arange(1, 100))
    if dataset.n:
        qs = np.concatenate([qs, np.percentile(dataset.key_scores, np.arange(1, 100))])
    return tuple(float(t) for t in np.unique(qs))


def _measure(filt, view: ScoredDataset, seed: int, subset=None) -> float:
    """Empirical FPR over the non-keys of ``view = dataset.by_score()`` (batch path).

    Over all of them, or ``subset`` (see ``learned.scored_nonkeys``). The
    batch reads its hashes from the view at its rows, under the filter's
    own seed, which ``seed`` names: no base pairs are gathered.
    """
    scores, rows = scored_nonkeys(view, subset)
    hits = filt.contains_batch(None, None, scores, rows=rows)
    return np.count_nonzero(hits) / len(hits)


def _holdout_split(view: ScoredDataset, fraction: float, seed: int):
    """(tune mask, holdout mask) over the non-keys of ``view = dataset.by_score()``.

    Drawn in the dataset's item order, deterministic per seed, then
    permuted onto the view, so the same non-keys are held out either way.
    ValueError if either side would be empty, naming both counts.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")
    count = int(round(view.m * fraction))
    if not 0 < count < view.m:
        raise ValueError(f"holdout fraction {fraction} of {view.m} non-keys leaves "
                         f"{view.m - count} to tune on and {count} held out; "
                         f"both need at least one")
    rng = np.random.default_rng((seed, 0x401D))
    holdout = np.zeros(view.m, dtype=bool)
    holdout[rng.permutation(view.m)[:count]] = True
    holdout = holdout[view.nonkey_order]
    return ~holdout, holdout


def build(method: str, dataset: ScoredDataset, bitmap_bits: int, seed: int = 0,
          model_bits: int = 0, **params):
    """The ``method`` filter over ``dataset``'s keys, with ``params`` named by ``PARAMS``.

    ``k`` (standard) defaults to ``optimal_k``, ``k_min`` (ada) to 0, and g =
    k_max - k_min + 1. ValueError on a missing or stray parameter, on
    ``model_bits`` that ``check_model_bits`` refuses, or on a value a builder
    refuses. Builders are looked up in this module at call time, so a wrapped
    one (perfbench's tracer installs them) is the one called.
    """
    taken = tuple(PARAMS.get(method, ()))
    if method not in PARAMS or not set(taken) >= set(params) >= set(taken) - set(OPTIONAL):
        raise ValueError(f"method {method!r} takes parameters {taken}, got {tuple(params)}")
    check_model_bits(method, model_bits)
    if method == "standard":  # inserted from the cached key pairs, not by hashing the ids again
        k = optimal_k(bitmap_bits, dataset.n) if params.get("k") is None else params["k"]
        bloom = StandardBloom(BitVector(bitmap_bits), k, HashFamily(seed))
        insert_keys(dataset, seed, ((0.0, math.inf, bloom),))
        return bloom
    if method in ("lbf", "sandwich"):
        builder = build_lbf if method == "lbf" else build_sandwiched
        return builder(dataset, bitmap_bits, params["tau"], seed, model_bits)
    if method == "disjoint":
        return build_disjoint(dataset, bitmap_bits, params["g"], params["c"], seed, model_bits)
    k_max, k_min, c = params["k_max"], params.get("k_min", 0), params["c"]
    check_ladder(k_max, k_min)  # before g is derived from them
    partition = partition_by_ratio(dataset, k_max - k_min + 1, c)
    return build_ada(dataset, bitmap_bits, AdaptiveParams.from_ratio(partition, k_max, k_min, c),
                     seed, model_bits)


def _search(method: str, dataset: ScoredDataset, bitmap_bits: int, axis, seed: int,
            model_bits: int, holdout_fraction: float, grids: dict,
            ties_to_last: bool = False, count=None) -> TuneResult:
    """Argmin of the FPR over the params in ``axis``.

    ``count(view, subset)``, if given, gives per candidate its FPR over the
    tuning non-keys, or None; a candidate with None is built by ``build``
    and measured. A counted winner is built once the search is over. The
    first strict improvement wins, or with ``ties_to_last`` the last of
    equal FPRs. With ``holdout_fraction`` set, that share of the non-keys is
    left out of the search and the winner re-measured on it.
    """
    if not axis:
        raise ValueError(f"empty {method} grid")
    check_model_bits(method, model_bits)
    view = dataset.by_score()
    tune_on = holdout = None
    if holdout_fraction:
        tune_on, holdout = _holdout_split(view, holdout_fraction, seed)
    counted = [None] * len(axis) if count is None else count(view, tune_on)
    best = None
    candidates = []
    for params, fpr in zip(axis, counted):
        filt = None
        if fpr is None:
            try:
                filt = build(method, view, bitmap_bits, seed, model_bits, **params)
            except (InsufficientDataError, InfeasibleBudgetError) as exc:
                candidates.append({"params": params, "fpr": None, "status": f"skipped: {exc}"})
                continue
            fpr = _measure(filt, view, seed, subset=tune_on)
        candidates.append({"params": params, "fpr": fpr, "status": "ok"})
        if best is None or fpr < best[0] or (ties_to_last and fpr == best[0]):
            best = (fpr, params, filt)
    if best is None:
        raise NoFeasibleCandidateError(f"no feasible {method} candidate (all skipped)")
    fpr, params, filt = best
    if filt is None:
        filt = build(method, view, bitmap_bits, seed, model_bits, **params)
    if holdout is not None:
        fpr = _measure(filt, view, seed, subset=holdout)
    return TuneResult(method, dict(params), fpr, bitmap_bits, model_bits, filt, candidates,
                      grids)


def _sweep_tau(method: str, dataset: ScoredDataset, bitmap_bits: int, tau_grid, seed: int,
               model_bits: int, holdout_fraction: float) -> TuneResult:
    """The tau sweep of ``lbf`` or ``sandwich``, each candidate of ``lbf`` geometry counted.

    Those are every ``lbf`` tau and every ``sandwich`` tau whose split gives
    the initial filter no bits: ``count_lbf_fprs`` counts them all in one
    pass, and only the other sandwich candidates are built and measured.
    """
    tau_grid = default_tau_grid(dataset.by_score()) if tau_grid is None else tau_grid
    taus = [float(t) for t in tau_grid]

    def count(view, subset):
        fprs = [None] * len(taus)
        of_lbf = [i for i, tau in enumerate(taus)
                  if method == "lbf" or sandwich_split(view, bitmap_bits, tau).b1_bits == 0]
        if of_lbf:
            counts = count_lbf_fprs(view, bitmap_bits, [taus[i] for i in of_lbf], seed, subset)
            for i, fpr in zip(of_lbf, counts):
                fprs[i] = fpr
        return fprs

    # ties break toward larger tau (smaller backup filter)
    return _search(method, dataset, bitmap_bits, [{"tau": t} for t in taus], seed, model_bits,
                   holdout_fraction, {"tau_grid": taus}, ties_to_last=True, count=count)


def tune_lbf(dataset: ScoredDataset, bitmap_bits: int, tau_grid=None, seed: int = 0,
             model_bits: int = 0, holdout_fraction: float = 0.0) -> TuneResult:
    """Pick the tau minimizing empirical FPR for the learned filter.

    With ``holdout_fraction`` set, that share of the non-keys is held
    out of the sweep and the returned FPR is re-measured on it.
    """
    return _sweep_tau("lbf", dataset, bitmap_bits, tau_grid, seed, model_bits, holdout_fraction)


def tune_sandwiched(dataset: ScoredDataset, bitmap_bits: int, tau_grid=None, seed: int = 0,
                    model_bits: int = 0, holdout_fraction: float = 0.0) -> TuneResult:
    """Same tau sweep for the sandwiched filter (allocation is per tau)."""
    return _sweep_tau("sandwich", dataset, bitmap_bits, tau_grid, seed, model_bits,
                      holdout_fraction)


def tune_ada(dataset: ScoredDataset, bitmap_bits: int, kmax_grid=None, c_grid=None,
             seed: int = 0, model_bits: int = 0, holdout_fraction: float = 0.0) -> TuneResult:
    """Full (k_max, c) grid with k_min = 0, so each k_max implies g = k_max + 1."""
    kmax_grid = DEFAULT_KMAX_GRID if kmax_grid is None else tuple(kmax_grid)
    c_grid = DEFAULT_C_GRID if c_grid is None else tuple(c_grid)
    # grids iterate smallest-first, so ties resolve toward the smaller values
    axis = [{"k_max": k, "c": c} for k in sorted(kmax_grid) for c in sorted(c_grid)]
    return _search("ada", dataset, bitmap_bits, axis, seed, model_bits, holdout_fraction,
                   {"kmax_grid": list(kmax_grid), "c_grid": list(c_grid)})


def tune_disjoint(dataset: ScoredDataset, bitmap_bits: int, g_grid=None, c_grid=None,
                  seed: int = 0, model_bits: int = 0, holdout_fraction: float = 0.0) -> TuneResult:
    """Full (g, c) grid with the top group fixed at zero bits."""
    g_grid = DEFAULT_G_GRID if g_grid is None else tuple(g_grid)
    c_grid = DEFAULT_C_GRID if c_grid is None else tuple(c_grid)
    axis = [{"g": g, "c": c} for g in sorted(g_grid) for c in sorted(c_grid)]
    return _search("disjoint", dataset, bitmap_bits, axis, seed, model_bits, holdout_fraction,
                   {"g_grid": list(g_grid), "c_grid": list(c_grid)})


def check_grids(grids: dict, method: str | None = None) -> dict:
    """``grids`` with each override as a tuple; ValueError on the first
    override that ``method``'s tuner cannot use.

    That is a name ``GRIDS[method]`` does not list (with no ``method``, a
    name no tuner takes), an empty grid, or a value that fails every
    candidate it is part of: tau outside [0, 1] or NaN, k_max < 0, c <= 1,
    infinite or NaN, g < 1. An override of None stands for the default grid.
    """
    taken = _GRID_LIMITS if method is None else GRIDS[method]
    for name in grids:
        if name not in taken:
            raise ValueError(f"method {method!r} takes no such grid {name!r}" if method
                             else f"no tuner takes a grid override {name!r}")
    grids = {name: None if values is None else tuple(values) for name, values in grids.items()}
    for name, values in grids.items():
        if values is None:
            continue
        if len(values) == 0:
            raise ValueError(f"empty grid overrides [{name!r}]")
        valid, rule = _GRID_LIMITS[name]
        for value in values:
            if not valid(value):
                raise ValueError(f"{rule}, got {value}")
    return grids


def check_model_bits(method: str, model_bits: int) -> None:
    """ValueError on a negative ``model_bits``, or on any if ``method`` takes
    none: ``standard`` has no score model."""
    check_model_count(model_bits)
    if method == "standard" and model_bits:
        raise ValueError(f"method 'standard' has no score model, so model_bits must be 0, "
                         f"got {model_bits}")


def tune(method: str, dataset: ScoredDataset, bitmap_bits: int, seed: int = 0,
         model_bits: int = 0, holdout_fraction: float = 0.0, **grids) -> TuneResult:
    """Run ``method``'s tuner with the overrides ``GRIDS[method]`` names,
    ignoring those only another method's grids name.

    Raises ValueError naming a keyword that no tuner's grid names, and on
    an override ``check_grids`` rejects. The tuner is looked up in this
    module at call time, so a wrapped ``tune_*`` (perfbench's tracer
    installs them) is the one called.
    """
    if method not in GRIDS:
        raise ValueError(f"method {method!r} has no tuner; choose from {tuple(GRIDS)}")
    check_grids(dict.fromkeys(grids))  # the names alone
    grids = check_grids({name: grids.get(name) for name in GRIDS[method]}, method)
    tuner = globals()[_TUNERS[method]]
    return tuner(dataset, bitmap_bits, seed=seed, model_bits=model_bits,
                 holdout_fraction=holdout_fraction, **grids)
