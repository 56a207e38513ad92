"""Learned Bloom filter and its sandwiched generalization.

A learned Bloom filter (Kraska et al., 2018) puts a score threshold tau
in front of a standard backup filter: queries scoring at or above tau
are accepted outright, everything else falls through to a Bloom filter
holding exactly the keys that score below tau. The sandwiched variant
(Mitzenmacher, 2018) adds an initial Bloom filter over all keys in
front of the threshold, with the bit budget split between the two
filters by a closed-form allocation. So a learned filter is a sandwich
whose initial filter has 0 bits: ``LearnedBloom`` is a
``SandwichedBloom`` with no initial stage, and ``build_lbf`` and
``build_sandwiched`` share one step that checks the budget and tau and
counts the rates f_p and f_n below.

Writing f_p for the fraction of non-keys at or above tau, f_n for the
fraction of keys below it, and mu = 0.5^ln2, the optimal backup size in
bits per key is

    b2* = f_n * ln(f_p / ((1 - f_p)(1/f_n - 1))) / ln(mu)

independent of the total budget b. When b2* >= b the initial filter
gets nothing and the structure reduces to a plain learned filter; when
b2* <= 0 every bit goes to the initial filter. ``sandwich_split`` makes
that split, before any insert.

A tuner scores a learned filter at about 200 taus per budget, and every
one of them, like each sandwich that ``sandwich_split`` reduces to it, is
a backup over a prefix of the score-ordered keys at the full budget.
``count_lbf_fprs`` gives the FPRs of such a tau grid without building a
filter: per bit, the first key row that sets it at k probes, grown as k
grows, and per non-key, the largest first row over its probes, compared
with each tau's key count. On the two-budget sweep (50k/50k, 150 and
300 Kb, 2-core Xeon, numpy 2.4, raw) it counted a budget's 198 taus in
about 0.035 s, where building and measuring each took about 0.13 s. It
reads every probe of either side through ``bits.ProbeRows.probe``: a
column of the view's cached matrix, which the view builds when the counter
asks for one geometry the second time, as for every other reader, or else
the column ``bits`` computes from the final pairs.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .bits import BitVector, HashFamily, ProbeRows, _check_count
from .scores import ScoredDataset
from .standard import OPTIMAL_FPR_BASE, GatedBloom, StandardBloom, insert_keys, optimal_k

__all__ = [
    "LearnedBloom",
    "SandwichedBloom",
    "SandwichSplit",
    "build_lbf",
    "count_lbf_fprs",
    "scored_nonkeys",
    "sandwich_allocate",
    "sandwich_split",
    "build_sandwiched",
]

logger = logging.getLogger(__name__)

_INITIAL_LANE = 1  # hash lane of the sandwiched initial filter


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau <= 1.0:  # also rejects NaN
        raise ValueError(f"tau must be in [0, 1], got {tau}")


def _stage(bitmap_bits: int, n: int, seed: int, lane: int = 0) -> StandardBloom:
    """Empty stage for n keys, sized against bitmap_bits, k = Round((R/n) ln 2)."""
    return StandardBloom(BitVector(max(1, bitmap_bits)), optimal_k(bitmap_bits, n),
                         HashFamily(seed, lane), n)


def sandwich_allocate(f_p: float, f_n: float, budget_bits_per_key: float) -> tuple[float, float]:
    """Split a per-key bit budget between initial and backup filter.

    Returns (b1, b2). Degenerate optima clamp: all bits go to the
    backup (plain learned filter) when the optimum exceeds the budget,
    all bits to the initial filter when the optimum is non-positive.
    """
    if not 0.0 < f_p < 1.0:
        raise ValueError(f"f_p must be in (0, 1), got {f_p}")
    if not 0.0 < f_n < 1.0:
        raise ValueError(f"f_n must be in (0, 1), got {f_n}")
    if not 0.0 <= budget_bits_per_key < math.inf:  # also rejects NaN
        raise ValueError(f"budget must be finite and >= 0, got {budget_bits_per_key}")
    arg = f_p / ((1.0 - f_p) * (1.0 / f_n - 1.0))
    if arg == 0.0:  # underflow (tiny f_p or f_n): b2* tends to +inf, all bits to the backup
        return 0.0, float(budget_bits_per_key)
    b2 = f_n * math.log(arg) / math.log(OPTIMAL_FPR_BASE)
    if b2 <= 0.0:
        return float(budget_bits_per_key), 0.0
    if b2 >= budget_bits_per_key:
        return 0.0, float(budget_bits_per_key)
    return budget_bits_per_key - b2, b2


class SandwichedBloom(GatedBloom):
    """Initial filter, then score threshold, then backup filter; zero FNR.

    ValueError unless the fields agree with the filters: ``bitmap_bits`` is
    ``b1_bits + b2_bits``, an initial filter of ``b1_bits`` bits is present
    exactly when ``b1_bits > 0``, and the backup holds ``max(1, b2_bits)``
    bits, as ``build_sandwiched`` makes them.
    """

    __slots__ = ("tau", "initial", "backup", "bitmap_bits", "b1_bits", "b2_bits",
                 "fp_above", "fn_below", "fallback_reason")

    def __init__(self, tau: float, initial: StandardBloom | None, backup: StandardBloom,
                 bitmap_bits: int, b1_bits: int, b2_bits: int, model_bits: int = 0,
                 fp_above: float | None = None, fn_below: float | None = None,
                 fallback_reason: str | None = None):
        _check_tau(tau)
        if bitmap_bits != b1_bits + b2_bits:
            raise ValueError(f"bitmap_bits {bitmap_bits} is not b1_bits {b1_bits} + "
                             f"b2_bits {b2_bits}")
        b1_held = initial.size_bits if initial is not None else 0
        if b1_held != b1_bits:
            raise ValueError(f"initial filter of {b1_held} bits (0: none), "
                             f"need b1_bits = {b1_bits}")
        if backup.size_bits != max(1, b2_bits):
            raise ValueError(f"backup of {backup.size_bits} bits, need max(1, b2_bits) = "
                             f"{max(1, b2_bits)}")
        tau = float(tau)  # a numpy float32 bound would meet Python-float scores in float32
        stages = ((0.0, tau, backup),)
        if initial is not None:
            stages = ((0.0, math.inf, initial),) + stages
        shares = None if fp_above is None else ((0.0, tau, 1.0 - fp_above),
                                                (tau, math.inf, fp_above))
        super().__init__(stages, backup.seed, model_bits, shares)
        self.tau = tau
        self.initial = initial
        self.backup = backup
        self.bitmap_bits = bitmap_bits
        self.b1_bits = b1_bits
        self.b2_bits = b2_bits
        # fractions of build-time non-keys scoring >= tau and keys below it, for analytics
        self.fp_above = fp_above
        self.fn_below = fn_below
        self.fallback_reason = fallback_reason

    @property
    def reduced_to_lbf(self) -> bool:
        """True when the allocation gave the initial filter nothing."""
        return self.initial is None

    contains_batch = GatedBloom.contains_batch  # perfbench traces each class's own attribute


class LearnedBloom(SandwichedBloom):
    """Score threshold in front of a backup Bloom filter: a sandwich with no initial filter."""

    __slots__ = ()

    def __init__(self, tau: float, backup: StandardBloom, bitmap_bits: int,
                 model_bits: int = 0, fp_above: float | None = None):
        super().__init__(tau, None, backup, bitmap_bits, 0, bitmap_bits, model_bits, fp_above)

    contains_batch = GatedBloom.contains_batch  # perfbench traces each class's own attribute


def _check_build(bitmap_bits: int, tau: float) -> None:
    """ValueError on a budget or tau that no threshold build takes."""
    _check_count("bitmap_bits", bitmap_bits, 0)
    _check_tau(tau)


def _rates(dataset: ScoredDataset, bitmap_bits: int, tau: float):
    """(keys below tau, f_p, f_n) for a build at ``tau``; ValueError on a bad budget or tau.

    f_p is the fraction of non-keys scoring >= tau, f_n that of keys below
    it; each is None when the dataset has no non-keys / no keys. A
    score-ordered view counts them by ``searchsorted``, a plain dataset by
    masks.
    """
    _check_build(bitmap_bits, tau)
    below, above = dataset._tau_counts(tau)
    f_p = above / dataset.m if dataset.m else None
    return below, f_p, below / dataset.n if dataset.n else None


def build_lbf(dataset: ScoredDataset, bitmap_bits: int, tau: float, seed: int,
              model_bits: int = 0) -> LearnedBloom:
    """Backup filter over the keys scoring below tau, k = Round((R/n0) ln 2).

    The sandwich's backup-only case: ``build_sandwiched`` gives the same bits
    wherever its allocation leaves the initial filter nothing.
    """
    below, f_p, _ = _rates(dataset, bitmap_bits, tau)
    filt = LearnedBloom(tau, _stage(bitmap_bits, below, seed), bitmap_bits, model_bits, f_p)
    insert_keys(dataset, seed, filt.stages)
    return filt


def scored_nonkeys(view: ScoredDataset) -> tuple[np.ndarray, ProbeRows]:
    """(scores, rows) of the non-keys of ``view = dataset.by_score()``, which a
    tuner scores on; ValueError if there are none."""
    if view.m == 0:
        raise ValueError("cannot measure FPR without non-keys")
    return view.nonkey_scores, view.probe_rows(keys=False)


def count_lbf_fprs(dataset: ScoredDataset, bitmap_bits: int, taus, seed: int) -> list[float]:
    """Per tau, the FPR that ``build_lbf`` at it would measure, without building it.

    Equal, float for float, to the tuner's count over the non-keys of
    ``view = dataset.by_score()`` of ``build_lbf(view, bitmap_bits, tau,
    seed)``, with the same refusals; the count runs on that view, so a
    dataset and its view give the same FPRs. Every non-key is counted:
    ``tuning.tune`` holds non-keys out by splitting the dataset, not here.
    The backup at tau holds the view's key rows [0, n_tau) with k =
    ``optimal_k(bitmap_bits, n_tau)`` lane-0 probes, so its bit p is set iff
    first_k[p] < n_tau, where first_k[p] is the least key row whose first k
    probes hit p. A non-key below tau passes iff the largest first_k over
    its k probes is below n_tau; those at or above tau pass outright, and
    with k = 0 so does every non-key. The other taus are counted in groups
    of one k, in ascending k (see ``_group_passes``).
    """
    taus = [float(tau) for tau in taus]
    for tau in taus:
        _check_build(bitmap_bits, tau)
    view = dataset.by_score()
    scores, rows = scored_nonkeys(view)
    grid = np.array(taus, dtype=np.float64)
    n_below = np.searchsorted(view.key_scores, grid).tolist()  # n_tau
    j_below = np.searchsorted(scores, grid).tolist()  # scored non-keys below tau
    passed = [len(scores) - j for j in j_below]  # at or above tau: past the backup
    groups: dict[int, list[int]] = {}
    for t, n in enumerate(n_below):
        groups.setdefault(optimal_k(bitmap_bits, n), []).append(t)
    for t in groups.pop(0, ()):  # no probes: the backup passes every query
        passed[t] += j_below[t]
    # a group without keys or without non-keys below its taus adds no pass
    groups = {k: ts for k, ts in groups.items()
              if max(n_below[t] for t in ts) and max(j_below[t] for t in ts)}
    if groups:
        family, keys = HashFamily(seed), view.probe_rows(keys=True)
        first = np.full(max(1, bitmap_bits), view.n, dtype=np.int32)  # view.n: no key row sets it
        done = 0  # the probe columns in first
        for k in sorted(groups):
            ts = groups[k]
            passes = _group_passes(first, done, k, [n_below[t] for t in ts],
                                   [j_below[t] for t in ts], family, keys, rows)
            for t, more in zip(ts, passes):
                passed[t] += more
            done = k
    return list(np.array(passed, dtype=np.intp) / len(scores))  # as the tuner divides its hits


def _group_passes(first: np.ndarray, done: int, k: int, ns, js, family: HashFamily,
                  keys: ProbeRows, nonkeys: ProbeRows) -> list[int]:
    """Per tau of one k, with n_tau in ``ns`` and j_tau in ``js``, how many of the
    j_tau scored non-keys below it pass its backup.

    ``first`` holds first_{done}; ``keys`` are the view's key rows and
    ``nonkeys`` the scored non-keys' rows, each probed on ``family``'s lane
    by ``ProbeRows.probe``.

    - first grows to first_k by one ``np.minimum.at`` per new probe column,
      over the key rows [0, top), top being the group's largest n_tau. A
      larger k comes with a smaller n_tau, so no later group inserts more:
      a first row at or past top reads "not set" for all of them.
    - The non-keys below the group's largest tau are walked once, column
      by column, each keeping the largest first row of its probes so far,
      and dropped as soon as a probe hits a bit whose first row reaches top.
    - A tau of the group counts the survivors in its prefix of the scored
      non-keys whose largest first row is below its own n_tau.
    """
    r = len(first)
    top = max(ns)
    key_at, inserted = np.arange(top, dtype=np.int32), keys.select(slice(0, top))
    for i in range(done, k):
        np.minimum.at(first, inserted.probe(family, i, r), key_at)
    # the non-keys below the group's largest tau that every probe so far passes: their
    # positions among the scored ones (a slice until the first drop), their rows and the
    # largest first row of their probes so far
    span = live = max(js)
    alive, walkers = slice(0, span), nonkeys.select(slice(0, span))
    need = None
    for i in range(k):
        hit = first.take(walkers.probe(family, i, r))
        need = hit if need is None else np.maximum(need, hit)
        kept = np.flatnonzero(hit < top)
        if len(kept) < live:
            alive = kept if isinstance(alive, slice) else alive.take(kept)
            walkers, need, live = walkers.select(kept), need.take(kept), len(kept)
            if not live:
                return [0] * len(ns)
    cuts = np.searchsorted(np.arange(span)[alive], js).tolist()  # survivors below each tau
    return [int(np.count_nonzero(need[:cut] < n)) for n, cut in zip(ns, cuts)]


class SandwichSplit(NamedTuple):
    """How ``build_sandwiched`` splits its bits at one tau, and the rates it splits by."""

    below: int  # keys scoring below tau, the backup's
    f_p: float | None
    f_n: float | None
    b1_bits: int  # the initial filter's; 0 when the sandwich reduces to lbf
    b2_bits: int  # the backup's
    fallback: str | None  # why the whole budget went to the backup, if the formula is undefined


def sandwich_split(dataset: ScoredDataset, bitmap_bits: int, tau: float) -> SandwichSplit:
    """The bit split ``build_sandwiched`` makes at ``tau``, before any insert.

    f_p and f_n are estimated on the build dataset itself. When either
    rate is missing or hits 0 or 1 the allocation formula is undefined and
    the whole budget goes to the backup filter (plain learned-filter
    behavior). ValueError on a bad budget or tau.
    """
    below, f_p, f_n = _rates(dataset, bitmap_bits, tau)
    n = dataset.n
    fallback = None
    if n == 0:
        fallback = "no keys"
    elif f_p is None or not 0.0 < f_p < 1.0:
        fallback = f"f_p={f_p} outside (0, 1)"
    elif not 0.0 < f_n < 1.0:
        fallback = f"f_n={f_n} outside (0, 1)"

    if fallback is None:
        _, b2_per_key = sandwich_allocate(f_p, f_n, bitmap_bits / n)
        b2_bits = min(bitmap_bits, int(math.floor(b2_per_key * n + 0.5)))
    else:
        b2_bits = bitmap_bits
    return SandwichSplit(below, f_p, f_n, bitmap_bits - b2_bits, b2_bits, fallback)


def build_sandwiched(dataset: ScoredDataset, bitmap_bits: int, tau: float, seed: int,
                     model_bits: int = 0) -> SandwichedBloom:
    """Sandwiched filter with the bit split chosen by ``sandwich_split``.

    Where the split gives the initial filter no bits, the filter has the
    bits of ``build_lbf`` at the same tau (``reduced_to_lbf``).
    """
    split = sandwich_split(dataset, bitmap_bits, tau)
    if split.fallback is not None:
        logger.debug("sandwich build falling back to backup-only split: %s", split.fallback)
    backup = _stage(split.b2_bits, split.below, seed)
    initial = (_stage(split.b1_bits, dataset.n, seed, _INITIAL_LANE) if split.b1_bits > 0
               else None)
    filt = SandwichedBloom(tau, initial, backup, bitmap_bits, split.b1_bits, split.b2_bits,
                           model_bits, split.f_p, split.f_n, split.fallback)
    insert_keys(dataset, seed, filt.stages)
    return filt
