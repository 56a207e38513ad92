"""Hyper-parameter search for every filter variant, with memory accounting.

Threshold filters sweep tau over non-key score percentiles; the
adaptive filter sweeps (k_max, c) with k_min fixed at 0 (so g = k_max + 1);
the disjoint filter sweeps (g, c). Every candidate is scored at the full
bit budget by empirical FPR on the dataset's own non-keys, argmin wins
(``_search``). A tie goes to the larger tau (smaller backup filter) or to
the first, smallest (k_max, c) / (g, c) point. Infeasible candidates are
skipped with a diagnostic recorded in the candidate log, so a report
never has silent gaps. ``GRIDS`` names the grid overrides each method
takes; ``tune(method, ...)`` runs that method's tuner and ``build(method,
...)`` builds one filter from its ``PARAMS``, for the tuners, the sweep
harness and the command line alike.

Every candidate is scored on ``dataset.by_score()``, the same items with
keys and non-keys each in ascending score order. The filters are
bit-identical and the FPR counts equal to those on the dataset itself,
but each candidate cuts the score axis anew, and on sorted scores its
group counts are one ``searchsorted`` and each of its stages picks one
range of rows, not a boolean mask over all of them.

A tuner scores every non-key of the dataset it is given. To report an
FPR on non-keys that shaped no candidate, ``tune`` takes a
``holdout_fraction``: it splits the dataset in two before any grid,
partition or sandwich split is computed (``_holdout_split``), runs the
tuner on every key and the other non-keys, and counts the winner once
on the held-out ones.

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

The grid tuners (``tune_ada``, ``tune_disjoint``) count each candidate
only while it can still win (``_bounded_search``):

- **Order.** Each candidate's stage table (n, R and k per stage) is known
  before any key is inserted: the partition is memoised on the view, and
  ``disjoint`` shares its bits by ``allocate_disjoint``. ``_plan`` makes
  that filter, and the candidates are ranked by its
  ``GatedBloom.expected_fpr``, ties by grid index, before any is built.
- **Count.** In that order each candidate is built, counted and dropped,
  one at a time. Its non-keys are counted in blocks from the top score
  down, the first of 4096 items and each next one twice as long
  (``_count_bounded``). The count stops once it is strictly above the
  least full count so far, since the candidate can no longer win. A tie is
  counted in full and the lower grid index wins, as it did in grid order.
- **Log.** The candidate log stays in grid order. A stopped candidate is
  ``{"params", "fpr": None, "fpr_at_least": count so far / m, "status":
  "stopped"}``. Every full count, the winner's included, is the FPR a full
  measure gives, float for float, so the winner and its filter are too.

Holding every built candidate to sort them afterwards raised perfbench's
``sweep`` peak RSS from 73.3 to 104.5 MB, so each is planned, not built,
to be ranked. On the two-budget sweep 18-50% of the non-key probes were
done per cell (seeds 7, 1507 and 3). At seed 7 (best of 3, raw CPU)
measuring took ``ada`` 0.071 -> 0.035 s at 150 Kb and 0.052 -> 0.026 s
at 300 Kb, ``disjoint`` 0.083 -> 0.055 s and 0.094 -> 0.043 s, and
perfbench's ``sweep`` pass went 1.234 -> 1.141 ref s (-7.5%, lower in 10
of 10 pairs). The ``sandwich`` tau sweep measures its built candidates in
full: its blocks alternate two geometries, the initial filter's and the
backup's, in ``ProbeCache.columns``, which holds one matrix, and counting
the built candidates in blocks took 0.13 -> 0.31 s at 150 Kb and 0.17 ->
0.31-0.36 s at 300 Kb (seed 7).

Memory accounting follows the benchmark convention that a learned
method's budget includes its score model: total = bitmap + model bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .adaptive import AdaptiveParams, build_ada, check_ladder, plan_ada
from .bits import BitVector, HashFamily
from .disjoint import InfeasibleBudgetError, build_disjoint, plan_disjoint
from .learned import build_lbf, build_sandwiched, count_lbf_fprs, sandwich_split, scored_nonkeys
from .scores import InsufficientDataError, ScoredDataset, is_integer, partition_by_ratio
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
# per grid override, the values every build refuses, whatever the candidate; a value
# that is not a real number (``numbers.Real``: numpy floats and ints are) fails its rule
# before any compare
_GRID_LIMITS = {
    "tau_grid": (lambda tau: isinstance(tau, Real) and 0.0 <= tau <= 1.0,  # False on NaN
                 "tau must be in [0, 1]"),
    "kmax_grid": (lambda k_max: is_integer(k_max) and k_max >= 0, "k_max must be an integer >= 0"),
    "c_grid": (lambda c: isinstance(c, Real) and 1.0 < c < math.inf,  # False on NaN
               "c must be finite and > 1"),
    "g_grid": (lambda g: is_integer(g) and g >= 1, "g must be an integer >= 1"),
}
# non-keys in the first block of a bounded count (``_count_bounded``); each next block
# holds twice as many
_FIRST_BLOCK = 4096
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


def _count(filt, scores: np.ndarray, rows) -> int:
    """False positives of ``filt`` among the non-keys at ``rows`` of a score-ordered
    view, whose scores are ``scores`` (batch path).

    The batch reads its hashes from the view at its rows, under the
    filter's own seed: no base pairs are gathered.
    """
    return int(np.count_nonzero(filt.contains_batch(None, None, scores, rows=rows)))


def _measure(filt, view: ScoredDataset) -> float:
    """Empirical FPR over the non-keys of ``view = dataset.by_score()``."""
    scores, rows = scored_nonkeys(view)
    return _count(filt, scores, rows) / len(scores)


def _count_bounded(filt, scores: np.ndarray, rows, bound: int | None) -> tuple[int, bool]:
    """(false positives of ``filt`` counted, whether every non-key was counted).

    The non-keys of a view, ``scores`` and ``rows``, are counted in blocks
    from the top score down, the first of ``_FIRST_BLOCK`` items and each
    next one twice as long, until the count is above ``bound``; with no
    bound, in one block.
    """
    stop, count = len(scores), 0
    size = stop if bound is None else _FIRST_BLOCK
    while stop and (bound is None or count <= bound):
        start = max(0, stop - size)
        count += _count(filt, scores[start:stop], rows.select(slice(start, stop)))
        stop, size = start, 2 * size
    return count, stop == 0


def _holdout_split(dataset: ScoredDataset, fraction: float, seed: int):
    """(tune side, held-out side) of ``dataset``, each a dataset in score order.

    The tune side holds every key and the non-keys not held out, the
    held-out side the other non-keys: ``fraction`` of them, drawn in the
    dataset's item order (a view's parent's), deterministic per seed, so a
    dataset and its view hold out the same ones. ValueError if either side
    would be empty, naming both counts.
    """
    view = dataset.by_score()
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"holdout fraction must be in (0, 1), got {fraction}")
    count = int(round(view.m * fraction))
    if not 0 < count < view.m:
        raise ValueError(f"holdout fraction {fraction} of {view.m} non-keys leaves "
                         f"{view.m - count} to tune on and {count} held out; "
                         f"both need at least one")
    rng = np.random.default_rng((seed, 0x401D))
    held = np.zeros(view.m, dtype=bool)
    held[rng.permutation(view.m)[:count]] = True
    held = np.concatenate([np.zeros(view.n, dtype=bool), held[view.nonkey_order]])
    return view._pick(~held), view._pick(held)


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
    return build_ada(dataset, bitmap_bits, _ladder(dataset, params), seed, model_bits)


def _ladder(dataset: ScoredDataset, params: dict) -> AdaptiveParams:
    """The ``AdaptiveParams`` of ``ada``'s ``params``: g = k_max - k_min + 1 groups."""
    k_max, k_min, c = params["k_max"], params.get("k_min", 0), params["c"]
    check_ladder(k_max, k_min)  # before g is derived from them
    partition = partition_by_ratio(dataset, k_max - k_min + 1, c)
    return AdaptiveParams.from_ratio(partition, k_max, k_min, c)


def _plan(method: str, dataset: ScoredDataset, bitmap_bits: int, seed: int, model_bits: int,
          params: dict):
    """The ``ada`` or ``disjoint`` filter that ``build`` makes from ``params``, before
    any key is inserted, with the same refusals: its stage table (n, R and k
    per stage) and shares, and so its ``expected_fpr``, are the built filter's."""
    if method == "ada":
        return plan_ada(dataset, bitmap_bits, _ladder(dataset, params), seed, model_bits)
    partition = partition_by_ratio(dataset, params["g"], params["c"])
    return plan_disjoint(dataset, bitmap_bits, partition, params["c"], seed, model_bits)


def _search(method: str, dataset: ScoredDataset, bitmap_bits: int, axis, seed: int,
            model_bits: int, grids: dict, count=None) -> TuneResult:
    """Argmin of the FPR over the params in ``axis``, over every non-key of ``dataset``.

    With ``count`` (the tau sweeps), ``count(view)`` gives per candidate its
    FPR, or None; a candidate with None is built by ``build`` and measured
    in full, a counted winner is built once the search is over, and the last
    of equal FPRs wins (``_full_search``). A sandwich is measured in full
    because blocks of it alternate its two geometries in
    ``ProbeCache.columns``, which holds one: in blocks, counting the built
    candidates took 0.13 -> 0.31 s at 150 Kb and 0.17 -> 0.31-0.36 s at
    300 Kb (seed 7).

    Without it (the grid tuners, ``_bounded_search``) the candidates are
    ranked by the expected FPR of their stage tables before any is built,
    ties by grid index, then built one at a time in that order. Each counts
    its non-keys from the top score down in blocks of 4096, 8192, ...
    items and stops once its count is strictly above the least full count
    so far; it is logged, in grid order, as ``{"params", "fpr": None,
    "fpr_at_least", "status": "stopped"}``. A tie is counted in full and the
    first of equal FPRs in grid order wins. On the two-budget sweep this
    did 18-50% of the non-key probes per cell.
    """
    if not axis:
        raise ValueError(f"empty {method} grid")
    check_model_bits(method, model_bits)
    view = dataset.by_score()
    if count is None:
        candidates, best = _bounded_search(method, view, bitmap_bits, axis, seed, model_bits)
    else:
        candidates, best = _full_search(method, view, bitmap_bits, axis, seed, model_bits,
                                        count(view))
    if best is None:
        raise NoFeasibleCandidateError(f"no feasible {method} candidate (all skipped)")
    fpr, params, filt = best
    if filt is None:
        filt = build(method, view, bitmap_bits, seed, model_bits, **params)
    return TuneResult(method, dict(params), fpr, bitmap_bits, model_bits, filt, candidates,
                      grids)


def _skipped(params: dict, exc: Exception) -> dict:
    return {"params": params, "fpr": None, "status": f"skipped: {exc}"}


def _full_search(method, view, bitmap_bits, axis, seed, model_bits, counted):
    """(candidate log, (fpr, params, filter or None) of the last least FPR, or None)."""
    candidates, best = [], None
    for params, fpr in zip(axis, counted):
        filt = None
        if fpr is None:
            try:
                filt = build(method, view, bitmap_bits, seed, model_bits, **params)
            except (InsufficientDataError, InfeasibleBudgetError) as exc:
                candidates.append(_skipped(params, exc))
                continue
            fpr = _measure(filt, view)
        candidates.append({"params": params, "fpr": fpr, "status": "ok"})
        if best is None or fpr <= best[0]:
            best = (fpr, params, filt)
    return candidates, best


def _bounded_search(method, view, bitmap_bits, axis, seed, model_bits):
    """(candidate log in grid order, (fpr, params, filter) of the first least FPR, or None).

    Every candidate is planned first (``_plan``), in grid order, so a
    refusal comes where building them in grid order raised it. The
    feasible candidates are then built one at a time, in ascending order of
    their planned expected FPR (ties by grid index), and counted by
    ``_count_bounded`` against the least full count so far: one whose count
    passes it cannot win and is logged as stopped, with its count so far as
    a lower bound. Only the best filter is held.
    """
    candidates, ranked = [None] * len(axis), []
    for i, params in enumerate(axis):
        try:
            plan = _plan(method, view, bitmap_bits, seed, model_bits, params)
        except (InsufficientDataError, InfeasibleBudgetError) as exc:
            candidates[i] = _skipped(params, exc)
            continue
        ranked.append((plan.expected_fpr(), i))
    if not ranked:  # every candidate was skipped, as each one is without non-keys
        return candidates, None
    scores, rows = scored_nonkeys(view)
    m = len(scores)
    best = None  # (count, grid index, filter) of the least full count, the first on a tie
    for _, i in sorted(ranked):
        params = axis[i]
        filt = build(method, view, bitmap_bits, seed, model_bits, **params)
        count, whole = _count_bounded(filt, scores, rows, None if best is None else best[0])
        if not whole:
            candidates[i] = {"params": params, "fpr": None, "fpr_at_least": count / m,
                             "status": "stopped"}
            continue
        candidates[i] = {"params": params, "fpr": count / m, "status": "ok"}
        if best is None or (count, i) < best[:2]:
            best = (count, i, filt)
    count, i, filt = best
    return candidates, (count / m, axis[i], filt)


def _sweep_tau(method: str, dataset: ScoredDataset, bitmap_bits: int, tau_grid, seed: int,
               model_bits: int) -> TuneResult:
    """The tau sweep of ``lbf`` or ``sandwich``, each candidate of ``lbf`` geometry counted.

    Those are every ``lbf`` tau and every ``sandwich`` tau whose split gives
    the initial filter no bits: ``count_lbf_fprs`` counts them all in one
    pass, and only the other sandwich candidates are built and measured.
    """
    tau_grid = default_tau_grid(dataset.by_score()) if tau_grid is None else tau_grid
    taus = [float(t) for t in tau_grid]

    def count(view):
        fprs = [None] * len(taus)
        of_lbf = [i for i, tau in enumerate(taus)
                  if method == "lbf" or sandwich_split(view, bitmap_bits, tau).b1_bits == 0]
        if of_lbf:
            counts = count_lbf_fprs(view, bitmap_bits, [taus[i] for i in of_lbf], seed)
            for i, fpr in zip(of_lbf, counts):
                fprs[i] = fpr
        return fprs

    # ties break toward larger tau (smaller backup filter)
    return _search(method, dataset, bitmap_bits, [{"tau": t} for t in taus], seed, model_bits,
                   {"tau_grid": taus}, count=count)


def tune_lbf(dataset: ScoredDataset, bitmap_bits: int, tau_grid=None, seed: int = 0,
             model_bits: int = 0) -> TuneResult:
    """Pick the tau minimizing empirical FPR for the learned filter."""
    return _sweep_tau("lbf", dataset, bitmap_bits, tau_grid, seed, model_bits)


def tune_sandwiched(dataset: ScoredDataset, bitmap_bits: int, tau_grid=None, seed: int = 0,
                    model_bits: int = 0) -> TuneResult:
    """Same tau sweep for the sandwiched filter (allocation is per tau)."""
    return _sweep_tau("sandwich", dataset, bitmap_bits, tau_grid, seed, model_bits)


def tune_ada(dataset: ScoredDataset, bitmap_bits: int, kmax_grid=None, c_grid=None,
             seed: int = 0, model_bits: int = 0) -> TuneResult:
    """Full (k_max, c) grid with k_min = 0, so each k_max implies g = k_max + 1."""
    kmax_grid = DEFAULT_KMAX_GRID if kmax_grid is None else tuple(kmax_grid)
    c_grid = DEFAULT_C_GRID if c_grid is None else tuple(c_grid)
    # grids iterate smallest-first, so ties resolve toward the smaller values
    axis = [{"k_max": k, "c": c} for k in sorted(kmax_grid) for c in sorted(c_grid)]
    return _search("ada", dataset, bitmap_bits, axis, seed, model_bits,
                   {"kmax_grid": list(kmax_grid), "c_grid": list(c_grid)})


def tune_disjoint(dataset: ScoredDataset, bitmap_bits: int, g_grid=None, c_grid=None,
                  seed: int = 0, model_bits: int = 0) -> TuneResult:
    """Full (g, c) grid with the top group fixed at zero bits."""
    g_grid = DEFAULT_G_GRID if g_grid is None else tuple(g_grid)
    c_grid = DEFAULT_C_GRID if c_grid is None else tuple(c_grid)
    axis = [{"g": g, "c": c} for g in sorted(g_grid) for c in sorted(c_grid)]
    return _search("disjoint", dataset, bitmap_bits, axis, seed, model_bits,
                   {"g_grid": list(g_grid), "c_grid": list(c_grid)})


def check_grids(grids: dict, method: str | None = None) -> dict:
    """``grids`` with each override as a tuple; ValueError on the first
    override that ``method``'s tuner cannot use.

    That is a name ``GRIDS[method]`` does not list (with no ``method``, a
    name no tuner takes), an empty grid, or a value that fails every
    candidate it is part of: tau outside [0, 1] or NaN, k_max < 0, c <= 1,
    infinite or NaN, g < 1, a tau or c that is not a real number, or a
    k_max or g that is not an integer (a Python or numpy one). An override
    of None stands for the default grid.
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
                raise ValueError(f"{rule}, got {value if isinstance(value, Real) else repr(value)}")
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

    With ``holdout_fraction`` set, the tuner runs on the tune side of
    ``_holdout_split(dataset, holdout_fraction, seed)``, so the held-out
    non-keys shape no grid, partition, split or candidate, and the
    returned ``fpr`` is the winner's, counted on the held-out side alone.
    Raises ValueError naming a keyword that no tuner's grid names, on an
    override ``check_grids`` rejects, and on a fraction that leaves either
    side empty, each before any candidate is built. The tuner is looked up
    in this module at call time, so a wrapped ``tune_*`` (perfbench's
    tracer installs them) is the one called.
    """
    if method not in GRIDS:
        raise ValueError(f"method {method!r} has no tuner; choose from {tuple(GRIDS)}")
    check_grids(dict.fromkeys(grids))  # the names alone
    grids = check_grids({name: grids.get(name) for name in GRIDS[method]}, method)
    tuner = globals()[_TUNERS[method]]
    held_out = None
    if holdout_fraction:
        dataset, held_out = _holdout_split(dataset, holdout_fraction, seed)
    res = tuner(dataset, bitmap_bits, seed=seed, model_bits=model_bits, **grids)
    if held_out is not None:
        res.fpr = _measure(res.filter, held_out.by_score())
    return res
