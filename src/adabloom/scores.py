"""Classifier scores: datasets, geometric score partitioning, estimation bounds.

Every learned filter variant consumes items carrying a classifier score
s(x) in [0, 1], higher meaning more likely to be a key. Scores come
either from a CSV produced by a real model or from a synthetic Beta
generator whose key/non-key densities have the ascending/descending
shape such classifiers produce in practice.

The adaptive variants split [0, 1] into g groups at thresholds chosen
so the non-key counts fall geometrically, m_j / m_{j+1} = c, with group
1 holding the lowest scores and the largest non-key count. Group
probabilities are estimated as p_hat_j = m_j / m; ``min_sample_size``
gives the number of non-keys needed for that estimate to be accurate.
"""

from __future__ import annotations

import csv
import hashlib
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .bits import HashFamily, ProbeCache, ProbeRows

__all__ = [
    "ScoredItem",
    "ScoredDataset",
    "ScorePartition",
    "DatasetError",
    "InsufficientDataError",
    "check_scores",
    "load_scored_csv",
    "save_scored_csv",
    "gen_synthetic",
    "partition_by_ratio",
    "partition_from_thresholds",
    "partition_below_threshold",
    "estimate_group_probs",
    "min_sample_size",
]

CSV_HEADER = ("id", "score", "label")


class DatasetError(ValueError):
    """A scored-CSV row or a dataset's score failed parsing or validation."""


class InsufficientDataError(ValueError):
    """Not enough (distinct) non-key scores to build the requested partition."""


@dataclass(frozen=True)
class ScoredItem:
    id: str
    score: float
    is_key: bool

    @property
    def label(self) -> str:
        return "key" if self.is_key else "nonkey"


class ScoredDataset:
    """Immutable collection of scored items; the universe for build and eval.

    Caches numpy views of scores and per-seed base-hash pairs, so that
    tuning sweeps touching the same dataset do not recompute them. Scores
    are not checked on construction; ``validate`` checks them all.

    ``by_score`` gives the same dataset with keys and non-keys each in
    ascending score order, which the tuners build and measure every
    candidate on. Set bits and false positive counts do not depend on
    item order, but on sorted scores a partition's group counts are one
    ``searchsorted`` of its thresholds, and each stage of a build or a
    batch query picks its items as one range of rows instead of a
    boolean mask over all of them (see ``standard``). On 50k/50k
    Beta(3,1)/Beta(1,3) scores, the 12 stages of ``ada`` at k_max = 12,
    c = 1.6 and 300 Kb answered the 50k non-keys in 10.3 ms on the
    dataset, 4.9 ms on the view with per-stage masks and 2.6 ms on the
    view with ranges (2-core Xeon, numpy 2.4).
    """

    def __init__(self, items: list[ScoredItem] | tuple[ScoredItem, ...]):
        self.items: tuple[ScoredItem, ...] = tuple(items)
        self.n = sum(1 for it in self.items if it.is_key)
        self.m = len(self.items) - self.n
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.items)

    @property
    def keys(self) -> tuple[ScoredItem, ...]:
        return self._cached("keys", lambda: tuple(it for it in self.items if it.is_key))

    @property
    def nonkeys(self) -> tuple[ScoredItem, ...]:
        return self._cached("nonkeys", lambda: tuple(it for it in self.items if not it.is_key))

    @property
    def key_scores(self) -> np.ndarray:
        return self._cached("key_scores",
                            lambda: np.array([it.score for it in self.keys], dtype=np.float64))

    @property
    def nonkey_scores(self) -> np.ndarray:
        return self._cached("nonkey_scores",
                            lambda: np.array([it.score for it in self.nonkeys], dtype=np.float64))

    def validate(self) -> None:
        """DatasetError naming the first key's, else non-key's, score that is NaN or outside [0, 1].

        Vectorized over the score arrays; the items are read only to name the bad one.
        """
        scores = np.concatenate([self.key_scores, self.nonkey_scores])
        inside = (scores >= 0.0) & (scores <= 1.0)
        if not inside.all():
            bad = (self.keys + self.nonkeys)[int(np.argmin(inside))]
            raise DatasetError(f"{bad.label} {bad.id!r}: score {bad.score!r} outside [0, 1]")

    @property
    def sorted_nonkey_scores(self) -> np.ndarray:
        return self._cached("sorted_nonkey_scores", lambda: np.sort(self.nonkey_scores))

    def key_pairs(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Base-hash pairs of the key ids under ``seed`` (cached)."""
        return self._hash_pairs(seed, True)

    def nonkey_pairs(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        return self._hash_pairs(seed, False)

    def probe_rows(self, keys: bool) -> ProbeRows | None:
        """Rows of the keys or non-keys in a probe cache; only a view has one."""
        return None

    def _hash_pairs(self, seed: int, keys: bool) -> tuple[np.ndarray, np.ndarray]:
        tag = ("pairs", seed, keys)
        if tag not in self._cache:
            family = HashFamily(seed)
            items = self.keys if keys else self.nonkeys
            self._cache[tag] = family.base_pairs([it.id for it in items])
        return self._cache[tag]

    def _group_counts(self, thresholds: tuple[float, ...], scores: np.ndarray) -> tuple[int, ...]:
        """Scores per group of ``thresholds``, as ``ScorePartition.group_indices`` places them."""
        idx = np.searchsorted(np.asarray(thresholds[1:-1]), scores, side="right")
        return tuple(np.bincount(idx, minlength=len(thresholds) - 1).tolist())

    def _cached(self, tag: str, make):
        if tag not in self._cache:
            self._cache[tag] = make()
        return self._cache[tag]

    def by_score(self) -> "ScoredDataset":
        """This dataset with keys and non-keys each in stable ascending score order.

        Built once and cached. Its score and base-hash arrays are this
        dataset's cached arrays permuted, nothing is re-hashed; its
        ``key_order`` / ``nonkey_order`` give, per position, the index
        into this dataset's keys / non-keys.

        The view also caches the hash work every tuner candidate repeats:
        per side (keys, non-keys) one ``bits.ProbeCache`` holding

        - the final pairs of lanes 0 and 1 for one seed each, built on first
          use: 8 bytes per item for lane 0 (``h_b | 1``; h_a is the base
          hash) and 16 for lane 1, so 24 bytes per item;
        - at most one ``int32`` matrix of the first ``bits.CACHED_COLUMNS``
          probes of every item, for one (seed, lane, R), 48 bytes per item.
          A geometry is cached the second time in a row it is asked for and
          replaces the last one, so the lane-0 stages at the full bitmap of
          ``lbf``, ``ada`` and a ``sandwich`` reduced to ``lbf`` reuse it
          from candidate to candidate, while the per-group lanes of
          ``disjoint`` build nothing;
        - the bytes of the last fresh fill, R / 8 bytes: a fresh stage of
          the same seed, lane, R and k whose keys extend that fill's starts
          from them (see ``bits.ProbeRows.insert``). The backups of ``lbf``
          at ascending tau, of the ``sandwich`` candidates that reduce to
          ``lbf`` and the first stage of ``ada`` at ascending c are such
          stages.

        None of it holds counts or FPRs. ``insert_keys`` and
        ``GatedBloom.contains_batch`` read it through ``probe_rows``.
        """
        return self._cached("by_score", lambda: _ScoreOrderedView(self))

    def fingerprint(self) -> str:
        """sha256 over the canonical row encoding, for run metadata."""
        digest = hashlib.sha256()
        for it in self.items:
            digest.update(f"{it.id},{it.score!r},{it.label}\n".encode("utf-8"))
        return digest.hexdigest()


class _ScoreOrderedView(ScoredDataset):
    """``parent.by_score()``; its ``ScoredItem`` tuples are only built on demand.

    Walking the items out of allocation order is several times slower
    than in order, so nothing on the tuners' path touches them.
    """

    def __init__(self, parent: ScoredDataset):
        self._parent = parent
        self.n, self.m = parent.n, parent.m
        self.key_order = np.argsort(parent.key_scores, kind="stable")
        self.nonkey_order = np.argsort(parent.nonkey_scores, kind="stable")
        nonkey_scores = parent.nonkey_scores[self.nonkey_order]
        self._cache = {
            "key_scores": parent.key_scores[self.key_order],
            "nonkey_scores": nonkey_scores,
            "sorted_nonkey_scores": nonkey_scores,
        }
        # indexed by ``keys``: non-keys first
        self._probes = (ProbeCache(lambda seed: self._hash_pairs(seed, False)),
                        ProbeCache(lambda seed: self._hash_pairs(seed, True)))

    @property
    def items(self) -> tuple[ScoredItem, ...]:
        return self._cached("items", lambda: self.keys + self.nonkeys)

    @property
    def keys(self) -> tuple[ScoredItem, ...]:
        return self._cached("keys", lambda: _permuted(self._parent.keys, self.key_order))

    @property
    def nonkeys(self) -> tuple[ScoredItem, ...]:
        return self._cached("nonkeys",
                            lambda: _permuted(self._parent.nonkeys, self.nonkey_order))

    def __len__(self) -> int:
        return self.n + self.m

    def by_score(self) -> ScoredDataset:
        return self

    def probe_rows(self, keys: bool) -> ProbeRows:
        return ProbeRows(self._probes[keys], slice(0, self.n if keys else self.m))

    def _group_counts(self, thresholds: tuple[float, ...], scores: np.ndarray) -> tuple[int, ...]:
        # scores are sorted (NaN last): a group's count is the difference of
        # the numbers of scores below its two bounds
        below = np.searchsorted(scores, thresholds[1:-1], side="left")
        return tuple(np.diff(below, prepend=0, append=len(scores)).tolist())

    def _hash_pairs(self, seed: int, keys: bool) -> tuple[np.ndarray, np.ndarray]:
        tag = ("pairs", seed, keys)
        if tag not in self._cache:
            a, b = self._parent._hash_pairs(seed, keys)
            order = self.key_order if keys else self.nonkey_order
            self._cache[tag] = a[order], b[order]
        return self._cache[tag]


def _permuted(items: tuple, order: np.ndarray) -> tuple:
    return tuple(items[i] for i in order.tolist())


def check_scores(scores) -> np.ndarray:
    """``scores`` as a float64 array; ValueError if any is NaN or outside [0, 1].

    The batch twin of the check every scalar ``contains`` makes, so that
    both paths reject the same scores and meet the stage bounds in float64:
    in float32 a bound can round onto a score on its other side.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
        bad = scores[~((scores >= 0.0) & (scores <= 1.0))].flat[0]
        raise ValueError(f"score must be in [0, 1], got {bad}")
    return scores


def check_ratio(c: float) -> None:
    """ValueError unless the group ratio c is finite and > 1 (NaN is neither)."""
    if not c < math.inf:
        raise ValueError(f"ratio c must be finite, got {c}")
    if not c > 1.0:
        raise ValueError(f"ratio c must be > 1, got {c}")


def load_scored_csv(path) -> ScoredDataset:
    """Read a dataset CSV with header ``id,score,label``.

    id must be non-empty and comma-free, score a decimal in [0, 1],
    label ``key`` or ``nonkey``. Errors are ``DatasetError`` naming the
    offending 1-based line, also for a row the ``csv`` module refuses (a
    field over its size limit, say).
    """
    items: list[ScoredItem] = []
    seen: set[str] = set()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError(f"{path}: empty file, expected header id,score,label") from None
            if tuple(header) != CSV_HEADER:
                raise DatasetError(f"{path}: line 1: expected header id,score,label, got {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 3:
                    raise DatasetError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
                raw_id, raw_score, raw_label = row
                if not raw_id or "," in raw_id:
                    raise DatasetError(f"{path}: line {lineno}: id must be non-empty and comma-free")
                if raw_id in seen:
                    raise DatasetError(f"{path}: line {lineno}: duplicate id {raw_id!r}")
                seen.add(raw_id)
                try:
                    score = float(raw_score)
                except ValueError:
                    raise DatasetError(f"{path}: line {lineno}: malformed score {raw_score!r}") from None
                if not (math.isfinite(score) and 0.0 <= score <= 1.0):
                    raise DatasetError(f"{path}: line {lineno}: score {raw_score!r} outside [0, 1]")
                if raw_label not in ("key", "nonkey"):
                    raise DatasetError(
                        f"{path}: line {lineno}: label must be key or nonkey, got {raw_label!r}")
                items.append(ScoredItem(raw_id, score, raw_label == "key"))
    except csv.Error as exc:
        raise DatasetError(f"{path}: line {reader.line_num}: {exc}") from None
    return ScoredDataset(items)


def save_scored_csv(dataset: ScoredDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for it in dataset.items:
            writer.writerow((it.id, repr(it.score), it.label))


def gen_synthetic(
    n: int,
    m: int,
    key_shape: tuple[float, float] = (3.0, 1.0),
    nonkey_shape: tuple[float, float] = (1.0, 3.0),
    seed: int = 0,
) -> ScoredDataset:
    """Synthetic scored dataset with Beta-distributed classifier scores.

    Defaults give keys an ascending score density (Beta(3,1)) and
    non-keys a descending one (Beta(1,3)), mirroring what a usable
    classifier produces. Deterministic per seed.
    """
    if n < 0 or m < 0:
        raise ValueError("n and m must be >= 0")
    for name, (a, b) in (("key_shape", key_shape), ("nonkey_shape", nonkey_shape)):
        if not (0 < a < math.inf and 0 < b < math.inf):  # also rejects NaN
            raise ValueError(f"{name} parameters must be finite and > 0, got {(a, b)}")
    rng = np.random.default_rng(seed)
    key_scores = rng.beta(key_shape[0], key_shape[1], size=n)
    nonkey_scores = rng.beta(nonkey_shape[0], nonkey_shape[1], size=m)
    items = [ScoredItem(f"k{i:07d}", float(s), True) for i, s in enumerate(key_scores)]
    items += [ScoredItem(f"n{i:07d}", float(s), False) for i, s in enumerate(nonkey_scores)]
    return ScoredDataset(items)


@dataclass(frozen=True)
class ScorePartition:
    """Thresholds 0 = t_0 < t_1 < ... < t_g = 1 plus realized group counts.

    A score s lands in the unique group j with t_{j-1} <= s < t_j
    (s = 1 goes to group g). Groups are 1-based in the math and in
    ``group_of``; ``group_index`` gives the 0-based variant used for
    array indexing.
    """

    thresholds: tuple[float, ...]
    n_per_group: tuple[int, ...]
    m_per_group: tuple[int, ...]

    def __post_init__(self):
        t = self.thresholds
        if len(t) < 2 or t[0] != 0.0 or t[-1] != 1.0:
            raise ValueError(f"thresholds must run from 0.0 to 1.0, got {t}")
        if not all(t[i] < t[i + 1] for i in range(len(t) - 1)):  # also rejects NaN
            raise ValueError(f"thresholds must be strictly increasing, got {t}")
        if len(self.n_per_group) != self.g or len(self.m_per_group) != self.g:
            raise ValueError("per-group counts must have one entry per group")

    @property
    def g(self) -> int:
        return len(self.thresholds) - 1

    @property
    def n(self) -> int:
        return sum(self.n_per_group)

    @property
    def m(self) -> int:
        return sum(self.m_per_group)

    @property
    def p_hat(self) -> tuple[float, ...] | None:
        """Estimated non-key group probabilities m_j / m; None when m = 0."""
        if self.m == 0:
            return None
        return tuple(mj / self.m for mj in self.m_per_group)

    def group_index(self, score: float) -> int:
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {score}")
        return bisect_right(self.thresholds, score, 1, self.g) - 1

    def interval(self, j: int) -> tuple[float, float]:
        """[lo, hi) of 0-based group j; the top group's hi is inf, so it holds 1."""
        t = self.thresholds
        return t[j], (t[j + 1] if j + 1 < self.g else math.inf)

    def group_of(self, score: float) -> int:
        return self.group_index(score) + 1

    def group_indices(self, scores: np.ndarray) -> np.ndarray:
        """Vectorized 0-based group lookup."""
        inner = np.asarray(self.thresholds[1:-1])
        return np.searchsorted(inner, scores, side="right")


def partition_from_thresholds(dataset: ScoredDataset, thresholds) -> ScorePartition:
    """Partition with explicit thresholds; counts are realized from the data."""
    t = tuple(float(x) for x in thresholds)
    return ScorePartition(
        thresholds=t,
        n_per_group=dataset._group_counts(t, dataset.key_scores),
        m_per_group=dataset._group_counts(t, dataset.nonkey_scores),
    )


def _geometric_cuts(sorted_scores: np.ndarray, g: int, c: float) -> list[float]:
    """Cut points splitting sorted scores into g groups with counts ~ c^(g-j).

    Thresholds sit at midpoints between adjacent distinct values; a tie
    block crossing a cut is absorbed whole into the lower group, so
    realized counts can deviate from the geometric targets.
    """
    m = len(sorted_scores)
    weights = c ** np.arange(g - 1, -1, -1, dtype=float)
    cumulative = np.cumsum(weights / weights.sum())[:-1] * m
    cuts: list[float] = []
    prev_count = 0
    prev_cut = 0.0
    for boundary in cumulative:
        count = max(prev_count + 1, int(np.rint(boundary)))
        while True:
            if count >= m:
                raise InsufficientDataError(
                    f"not enough distinct non-key scores to cut {g} groups")
            lo = sorted_scores[count - 1]
            hi = sorted_scores[count]
            if lo == hi:  # absorb the tie block into the lower group
                count = int(np.searchsorted(sorted_scores, lo, side="right"))
                continue
            cut = (float(lo) + float(hi)) / 2.0
            if cut <= prev_cut:
                count += 1
                continue
            break
        cuts.append(cut)
        prev_count = count
        prev_cut = cut
    return cuts


def partition_by_ratio(dataset: ScoredDataset, g: int, c: float) -> ScorePartition:
    """Partition the score axis so non-key counts fall geometrically.

    Thresholds are placed at empirical quantiles of the non-key score
    distribution targeting m_j proportional to c^(g-j); key counts are
    then derived against the same thresholds.
    """
    if g < 1:
        raise ValueError(f"group count g must be >= 1, got {g}")
    if g > 1:
        check_ratio(c)
    if dataset.m < g:
        raise InsufficientDataError(f"need at least g={g} non-keys, have {dataset.m}")
    if g == 1:
        thresholds: tuple[float, ...] = (0.0, 1.0)
    else:
        cuts = _geometric_cuts(dataset.sorted_nonkey_scores, g, c)
        thresholds = (0.0, *cuts, 1.0)
    return partition_from_thresholds(dataset, thresholds)


def partition_below_threshold(dataset: ScoredDataset, tau: float, g: int, c: float) -> ScorePartition:
    """Geometric partition of the non-keys below ``tau``, then [tau, 1] on top.

    Used for head-to-head comparisons against a threshold filter: the
    top threshold is pinned to the other filter's tau and the g-1
    groups underneath split the remaining non-keys with ratio c.
    """
    if g < 2:
        raise ValueError(f"need g >= 2 to pin a top threshold, got {g}")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    below = dataset.sorted_nonkey_scores
    below = below[below < tau]
    if len(below) < g - 1:
        raise InsufficientDataError(
            f"need at least {g - 1} non-keys below tau={tau}, have {len(below)}")
    # every cut is a midpoint of two scores below tau, so below tau too
    cuts = _geometric_cuts(below, g - 1, c) if g > 2 else []
    thresholds = (0.0, *cuts, tau, 1.0)
    return partition_from_thresholds(dataset, thresholds)


def estimate_group_probs(partition: ScorePartition) -> tuple[float, ...]:
    """p_hat_j = m_j / m; raises when the partition saw no non-keys."""
    p = partition.p_hat
    if p is None:
        raise ValueError("cannot estimate group probabilities from zero non-keys")
    return p


def _sample_bound(k_groups: int, epsilon: float, delta: float) -> float:
    return (2.0 * (k_groups - 1) / epsilon**2) * (
        math.sqrt(1.0 / math.pi) + math.sqrt((1.0 - 2.0 / math.pi) / delta)
    ) ** 2


def min_sample_size(k_groups: int, epsilon: float, delta: float) -> int:
    """Non-keys needed so the total estimation error of p_hat stays below
    epsilon with probability at least 1 - delta, for k_groups groups."""
    if k_groups < 2:
        raise ValueError(f"bound needs k_groups >= 2, got {k_groups}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return int(math.ceil(_sample_bound(k_groups, epsilon, delta)))
