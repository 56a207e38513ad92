"""Classifier scores: datasets, geometric score partitioning, estimation bounds.

Every learned filter variant consumes items carrying a classifier score
s(x) in [0, 1], higher meaning more likely to be a key. Scores come
either from a CSV produced by a real model or from a synthetic Beta
generator whose key/non-key densities have the ascending/descending
shape such classifiers produce in practice.

A ``ScoredDataset`` holds its items as three columns: the ids, a float64
score array and a bool key mask. Generating, loading, saving and
fingerprinting work on the columns, block by block; the ``ScoredItem``
tuples (``items``, ``keys``) are built on first access, ``keys`` from the
key columns alone. A dataset's score column holds no NaN and no score
outside [0, 1]: ``ScoredDataset._checked`` refuses one, with a
``DatasetError``, when the column is made, so no builder, tuner or sweep
checks a dataset's scores again.

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
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat, zip_longest
from numbers import Real
from operator import itemgetter

import numpy as np

from .bits import HashFamily, ProbeCache, ProbeRows, _check_count, _shown

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
    "min_sample_size",
]

CSV_HEADER = ("id", "score", "label")


class DatasetError(ValueError):
    """A scored-CSV row or a dataset's score failed parsing or validation."""


class InsufficientDataError(ValueError):
    """Not enough (distinct) non-key scores to build the requested partition."""


@dataclass(frozen=True, slots=True)
class ScoredItem:
    id: str
    score: float
    is_key: bool


# Rows per block when a dataset is written, fingerprinted or read from CSV:
# each block is checked or formatted by C-level maps over its columns. Fewer
# rows keep fewer row lists alive for the garbage collector to walk while a
# CSV is read: 300k rows loaded in 0.83-0.98 s in blocks of 256 to 1024 rows,
# 0.93-1.24 s in blocks of 4096 and 1.23-1.48 s in blocks of 16384 or more,
# and saved in the same time from 512 to 4096 (2-core Xeon, Python 3.11).
_ROW_BLOCK = 1 << 10
# a row's label, and the end of its text, by ``is_key``
_LABELS = ("nonkey", "key")
_LINE_ENDS = tuple(f",{label}\n" for label in _LABELS)


class ScoredDataset:
    """Immutable collection of scored items; the universe for build and eval.

    A dataset is three columns in item order: ``ids`` (the id strings),
    ``scores`` (float64) and ``is_key`` (bool); n and m are counted from
    ``is_key``. ``gen_synthetic``, ``load_scored_csv`` and ``by_score``
    build the columns directly (``from_columns``), so none of them makes a
    ``ScoredItem`` per row. ``ScoredDataset(items)`` keeps the given tuple
    as ``items``, reads ``is_key`` from it at once and the ids and scores
    on first use. Otherwise ``items`` and ``keys`` are tuples of
    ``ScoredItem`` built on first access and cached, ``keys`` from the key
    ids and scores alone, so asking for them does not build ``items``.
    Once ``items`` exist (always, for a dataset made from items) ``keys``
    are picked from them, so they hold the same objects.

    The score column is checked where it is made (``_checked``):
    ``from_columns`` checks it at once, and a dataset made from items when
    its ``scores`` are first read, as the key and non-key scores, the
    score-ordered view, a fingerprint and a save all read them. The check
    stays lazy there so that a build reading only the key ids reads no
    score: reading the scores of 300k given items took 10.3 ms (2-core
    Xeon, CPU time, median of 7).

    Also caches the key and non-key ids and scores (each picked by the
    label mask) and per-seed base-hash pairs, so that
    tuning sweeps touching the same dataset do not recompute them.

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
        items = tuple(items)
        flags = [it.is_key for it in items]
        # ``bytes`` takes flags 0 to 255 (bools, ints) as one byte each, any but 0 read
        # as True: 300k items took 9.2 ms, against 14.1 ms through ``np.array(flags,
        # dtype=bool)`` (2-core Xeon, CPU time, medians of 9 alternating runs)
        try:
            is_key = np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)
        except (TypeError, ValueError):  # np.bool_ (on numpy 2), floats, None, ints past a byte
            _check_labels(flags)
            is_key = np.array(flags, dtype=bool)
        self._set_is_key(is_key)
        self._cache["items"] = items

    @classmethod
    def from_columns(cls, ids: list[str], scores, is_key) -> "ScoredDataset":
        """The dataset whose row i is (``ids[i]``, ``scores[i]``, ``is_key[i]``).

        The columns are kept, not copied: ``ids`` as given, the others as
        float64 and bool arrays. ValueError unless they are of one length,
        and ``DatasetError`` on a score that ``_checked`` refuses or a label
        that ``_check_labels`` refuses.
        """
        scores = np.asarray(scores, dtype=np.float64)
        is_key = np.asarray(is_key)
        if is_key.dtype.kind in "OSU":  # only such a column can hold text
            _check_labels(is_key.tolist())
        is_key = is_key.astype(bool, copy=False)
        if not scores.shape == is_key.shape == (len(ids),):
            raise ValueError(f"columns of {len(ids)} ids, {scores.shape} scores and "
                             f"{is_key.shape} labels do not make rows")
        dataset = cls.__new__(cls)
        dataset._set_is_key(is_key)
        dataset._cache["ids"] = ids  # first: ``_checked`` names a bad row by its id
        dataset._cache["scores"] = dataset._checked(scores)
        return dataset

    def _pick(self, rows: np.ndarray) -> "ScoredDataset":
        """The dataset of the rows the bool mask ``rows`` keeps, in this dataset's order."""
        return ScoredDataset.from_columns(list(compress(self.ids, rows.tolist())),
                                          self.scores[rows], self.is_key[rows])

    def _set_is_key(self, is_key: np.ndarray) -> None:
        """The label column, n and m counted from it, and an empty cache."""
        self.is_key = is_key
        self.n = int(np.count_nonzero(is_key))
        self.m = len(is_key) - self.n
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.is_key)

    # Columns of given items are read by list comprehensions: on Python 3.11
    # they read a slot of 300k items in 10-18 ms, ``map(attrgetter(...))`` in
    # 13-50 ms (2-core Xeon).
    @property
    def ids(self) -> list[str]:
        return self._cached("ids", lambda: [it.id for it in self.items])

    @property
    def scores(self) -> np.ndarray:
        return self._cached("scores", lambda: self._checked(np.fromiter(
            [it.score for it in self.items], dtype=np.float64, count=len(self))))

    @property
    def items(self) -> tuple[ScoredItem, ...]:
        return self._cached("items", lambda: tuple(
            map(ScoredItem, self.ids, self.scores.tolist(), self.is_key.tolist())))

    @property
    def keys(self) -> tuple[ScoredItem, ...]:
        return self._cached("keys", self._key_items)

    @property
    def key_ids(self) -> list[str]:
        return self._cached("key_ids", lambda: self._side("ids", True))

    @property
    def nonkey_ids(self) -> list[str]:
        return self._cached("nonkey_ids", lambda: self._side("ids", False))

    @property
    def key_scores(self) -> np.ndarray:
        return self._cached("key_scores", lambda: self.scores[self.is_key])

    @property
    def nonkey_scores(self) -> np.ndarray:
        return self._cached("nonkey_scores", lambda: self.scores[~self.is_key])

    def _key_items(self) -> tuple[ScoredItem, ...]:
        """The ``ScoredItem``s of the keys.

        Picked from ``items`` once those exist, so a dataset made from items
        returns its own objects; otherwise built from the key ids and scores,
        and ``items`` is left unbuilt. For the 50k keys of a 50k/200k
        generated dataset that took 0.08-0.10 s, against 0.40-0.62 s to
        build the 250k ``items`` and pick the keys from them (2-core Xeon,
        Python 3.11, a fresh process each).
        """
        if "items" in self._cache:
            return tuple(self._side("items", True))
        return tuple(map(ScoredItem, self.key_ids, self.key_scores.tolist(), repeat(True)))

    def _side(self, column: str, keys: bool) -> list:
        """The ``items`` or ``ids`` of the keys, or of the non-keys, in item order.

        Picked by ``itertools.compress`` over the bytes of the side's mask:
        a fresh dataset of 300k given items and both sides' ids took 20.5 ms,
        against 34.1 ms with a list of the side's rows and a getitem per row
        (2-core Xeon, Python 3.11, CPU time, medians of 9 alternating runs).
        While the ids of given items are not read yet, a side's ids come
        from its own items, so that a fresh ``ScoredDataset(items)`` reads
        only the ids it hashes. Listing every id first made perfbench's build
        pass, which makes five such datasets of 300k items, 0.33-0.39 ->
        0.42-0.47 ref s (6 of 6 pairs, 2-core Xeon).
        """
        mask = (self.is_key if keys else ~self.is_key).tobytes()
        if column == "ids" and "ids" not in self._cache and "items" in self._cache:
            return [it.id for it in compress(self.items, mask)]
        return list(compress(getattr(self, column), mask))

    def _checked(self, scores: np.ndarray) -> np.ndarray:
        """``scores``, this dataset's score column; DatasetError naming the first
        key's, else non-key's, score that is NaN or outside [0, 1].

        The one statement of the dataset score rule: every filter routes an
        item by its score in [0, 1], and a NaN falls in no score region. It
        is a min and a max over the column when every score passes; the ids
        are read only to name a bad row.
        """
        if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):  # False on NaN
            outside = ~((scores >= 0.0) & (scores <= 1.0))
            bad = np.flatnonzero(outside & self.is_key)
            row = int(bad[0] if len(bad) else np.argmax(outside))
            raise DatasetError(f"{_LABELS[bool(self.is_key[row])]} {self.ids[row]!r}: "
                               f"score {scores[row].item()!r} outside [0, 1]")
        return scores

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
            ids = self.key_ids if keys else self.nonkey_ids
            self._cache[tag] = HashFamily(seed).base_pairs(ids)
        return self._cache[tag]

    def _group_counts(self, thresholds: tuple[float, ...], scores: np.ndarray) -> tuple[int, ...]:
        """Scores per group of ``thresholds``, as ``ScorePartition.group_indices`` places them.

        A ``bincount`` of the ``score_pieces`` of the inner thresholds, as
        Python ints, which a container packs as integers.
        """
        pieces = score_pieces(np.asarray(thresholds[1:-1]), scores)
        return tuple(np.bincount(pieces, minlength=len(thresholds) - 1).tolist())

    def _tau_counts(self, tau: float) -> tuple[int, int]:
        """(keys scoring below tau, non-keys scoring at or above it)."""
        return (int(np.count_nonzero(self.key_scores < tau)),
                int(np.count_nonzero(self.nonkey_scores >= tau)))

    def _cached(self, tag: str, make):
        if tag not in self._cache:
            self._cache[tag] = make()
        return self._cache[tag]

    def _memo(self, tag, make):
        """``make()``; a score-ordered view keeps it under ``tag`` instead."""
        return make()

    def by_score(self) -> "ScoredDataset":
        """This dataset with keys and non-keys each in stable ascending score order.

        Built once and cached. Its columns and base-hash arrays are this
        dataset's permuted, nothing is re-hashed; its ``key_order`` /
        ``nonkey_order`` give, per position, the index into this dataset's
        keys / non-keys.

        The view also caches the work every tuner candidate repeats. Per
        side (keys, non-keys) one ``bits.ProbeCache`` holds

        - the final pairs of lanes 0 and 1 for one seed each, built on first
          use: 8 bytes per item for lane 0 (``h_b | 1``; h_a is the base
          hash) and 16 for lane 1, so 24 bytes per item;
        - per lane from 2 up, the final pairs under one seed of the rows any
          stage asked for so far, each remixed once, in a window whose pages
          take memory only once written: 16 bytes per (lane, row) served,
          about 7.5 MB on the benchmark's sweep (50k/50k, default grids),
          where a pass asks for about 9M pairs, each remixed per stage
          before (see ``bits``);
        - at most one ``int32`` matrix of the first ``bits.CACHED_COLUMNS``
          probes of every item, for one (seed, lane, R), 48 bytes per item.
          A geometry is cached the second time in a row it is asked for (the
          tau counter of ``learned.count_lbf_fprs`` asks once per probe
          column, so at its second column) and replaces the last one,
          so the lane-0 stages at the full bitmap of ``lbf``, ``ada`` and a
          ``sandwich`` reduced to ``lbf`` reuse it from candidate to
          candidate, while the per-group lanes of ``disjoint`` build nothing.

        ``insert_keys`` and ``standard._answer_rows`` read these through
        ``probe_rows``. The view also keeps each partition that
        ``partition_by_ratio`` cut from it, one per (g, c), since no
        partition depends on the budget or the seed: a pass of the
        benchmark's two-budget sweep asks for 120 distinct ones 440 times.
        A partition holds the view's own group counts; nothing on the view
        holds filter bits or FPRs.
        """
        return self._cached("by_score", lambda: _ScoreOrderedView(self))

    def _text_blocks(self):
        """The rows as text ``id,score,label\\n``, one string per ``_ROW_BLOCK`` rows.

        A score is written as ``repr`` of a Python float (``tolist``), never
        of ``np.float64``, which numpy 2 prints as ``np.float64(...)``.
        """
        for lo in range(0, len(self), _ROW_BLOCK):
            ids = self.ids[lo:lo + _ROW_BLOCK]
            parts = [","] * (4 * len(ids))  # per row: id, ",", score, ",label\n"
            parts[0::4] = ids
            parts[2::4] = map(repr, self.scores[lo:lo + _ROW_BLOCK].tolist())
            parts[3::4] = map(_LINE_ENDS.__getitem__, self.is_key[lo:lo + _ROW_BLOCK].tolist())
            yield "".join(parts)

    def fingerprint(self) -> str:
        """sha256 over the canonical row encoding ``id,repr(score),label\\n``, for run metadata."""
        digest = hashlib.sha256()
        for text in self._text_blocks():
            digest.update(text.encode("utf-8"))
        return digest.hexdigest()


class _ScoreOrderedView(ScoredDataset):
    """``parent.by_score()``: keys in ascending score order, then non-keys.

    The score arrays and hash pairs are permuted at once; the ids only on
    first use, since nothing on the tuners' path reads them, and each
    side's ids from the parent's ids of that side.
    """

    def __init__(self, parent: ScoredDataset):
        self._parent = parent
        self._set_is_key(np.arange(len(parent)) < parent.n)
        self.key_order = np.argsort(parent.key_scores, kind="stable")
        self.nonkey_order = np.argsort(parent.nonkey_scores, kind="stable")
        key_scores = parent.key_scores[self.key_order]
        nonkey_scores = parent.nonkey_scores[self.nonkey_order]
        self._cache.update(key_scores=key_scores, nonkey_scores=nonkey_scores,
                           sorted_nonkey_scores=nonkey_scores,
                           scores=np.concatenate([key_scores, nonkey_scores]))
        # indexed by ``keys``: non-keys first
        self._probes = (ProbeCache(lambda seed: self._hash_pairs(seed, False)),
                        ProbeCache(lambda seed: self._hash_pairs(seed, True)))

    @property
    def ids(self) -> list[str]:
        return self._cached("ids", lambda: self.key_ids + self.nonkey_ids)

    def _side(self, column: str, keys: bool) -> list:
        if column != "ids":
            return super()._side(column, keys)
        parent = self._parent
        ids, order = ((parent.key_ids, self.key_order) if keys
                      else (parent.nonkey_ids, self.nonkey_order))
        return list(map(ids.__getitem__, order.tolist()))

    def by_score(self) -> ScoredDataset:
        return self

    _memo = ScoredDataset._cached  # a view keeps what it makes

    def probe_rows(self, keys: bool) -> ProbeRows:
        return ProbeRows(self._probes[keys], slice(0, self.n if keys else self.m))

    def _group_counts(self, thresholds: tuple[float, ...], scores: np.ndarray) -> tuple[int, ...]:
        # scores are sorted: a group's count is the difference of the numbers
        # of scores below its two bounds
        below = np.searchsorted(scores, thresholds[1:-1], side="left")
        return tuple(np.diff(below, prepend=0, append=len(scores)).tolist())

    def _tau_counts(self, tau: float) -> tuple[int, int]:
        # scores are sorted: the count below tau is where tau would go
        above = self.m - np.searchsorted(self.nonkey_scores, tau)
        return int(np.searchsorted(self.key_scores, tau)), int(above)

    def _hash_pairs(self, seed: int, keys: bool) -> tuple[np.ndarray, np.ndarray]:
        tag = ("pairs", seed, keys)
        if tag not in self._cache:
            a, b = self._parent._hash_pairs(seed, keys)
            order = self.key_order if keys else self.nonkey_order
            self._cache[tag] = a[order], b[order]
        return self._cache[tag]


def _check_labels(labels) -> None:
    """``DatasetError`` naming the first row whose label is text (``str`` or ``bytes``):
    as a bool, any non-empty text, ``"False"`` too, would read as a key."""
    row = next((i for i, label in enumerate(labels) if isinstance(label, (str, bytes))), None)
    if row is not None:
        raise DatasetError(f"row {row}: label must be a truth value, not text, "
                           f"got {labels[row]!r}")


def check_scores(scores) -> np.ndarray:
    """``scores`` as a float64 array; ValueError naming the shape and dtype unless
    they are a 1-D array of bools, ints or floats, or if any is NaN or outside [0, 1].

    The batch twin of the check every scalar ``contains`` makes, so that
    both paths reject the same scores (a string among them too) and meet the
    stage bounds in float64: in float32 a bound can round onto a score on
    its other side.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1 or scores.dtype.kind not in "biuf":
        raise ValueError(f"scores must be a 1-D array of real numbers, got shape "
                         f"{scores.shape}, dtype {scores.dtype}")
    scores = scores.astype(np.float64, copy=False)
    if scores.size and not (scores.min() >= 0.0 and scores.max() <= 1.0):
        bad = scores[~((scores >= 0.0) & (scores <= 1.0))].flat[0]
        raise ValueError(f"score must be in [0, 1], got {bad}")
    return scores


def check_ratio(c: float) -> None:
    """ValueError unless the group ratio c is a real number (``numbers.Real``), finite
    and > 1 (NaN is neither)."""
    if not isinstance(c, Real):
        raise ValueError(f"ratio c must be a real number, got {c!r}")
    if not c < math.inf:
        raise ValueError(f"ratio c must be finite, got {c}")
    if not c > 1.0:
        raise ValueError(f"ratio c must be > 1, got {c}")


def load_scored_csv(path) -> ScoredDataset:
    """Read a dataset CSV with header ``id,score,label``.

    id must be non-empty, comma-free and unique, score a decimal in [0, 1],
    label ``key`` or ``nonkey``. A leading UTF-8 byte order mark, which
    spreadsheet "CSV UTF-8" exports write, is read and skipped before the
    rows. (Reading with ``utf-8-sig`` instead made perfbench's ``build``
    passes 1.3-3.0% slower than reading ``utf-8`` in four sets of
    alternating runs, where this read was level with it; the cause was not
    found.) Errors are ``DatasetError`` naming the offending 1-based line,
    also for a row the ``csv`` module refuses (a field over its size limit,
    say). Rows are read and checked in blocks of ``_ROW_BLOCK``, each
    column with C-level maps, by ``_block_columns``, the one statement of
    the row rules; only a block that fails is checked again by it a row at
    a time, to name its first bad row's line.

    The ids read so far are kept where the garbage collector does not walk
    them at each full collection: in tuples, which it stops tracking, and
    as the keys of a dict, which it never tracks while they are strings.
    """
    id_blocks: list[tuple[str, ...]] = []
    scores, is_key, refused = [], [], []
    seen: dict[str, None] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        if fh.read(1) != "\ufeff":
            fh.seek(0)
        reader = csv.reader(fh)
        rows = _rows_until_refused(reader, path, refused)
        try:
            header = next(rows)
        except StopIteration:
            if refused:
                raise refused[0] from None
            raise DatasetError(f"{path}: empty file, expected header id,score,label") from None
        if tuple(header) != CSV_HEADER:
            raise DatasetError(f"{path}: line 1: expected header id,score,label, got {header!r}")
        lineno = 2
        while block := list(islice(rows, _ROW_BLOCK)):
            try:
                columns = _block_columns(block, seen)
            except ValueError:  # the same check, a row at a time, names the first bad line
                seen = dict.fromkeys(chain.from_iterable(id_blocks))
                for line, row in enumerate(block, start=lineno):
                    try:
                        _block_columns([row], seen)
                    except ValueError as exc:
                        raise DatasetError(f"{path}: line {line}: {exc}") from None
                raise
            id_blocks.append(columns[0])
            scores.append(columns[1])
            is_key.append(columns[2])
            lineno += len(block)
    if refused:  # every row before the refused one passed
        raise refused[0]
    return ScoredDataset.from_columns(list(chain.from_iterable(id_blocks)),
                                      np.concatenate([np.empty(0), *scores]),
                                      np.concatenate([np.empty(0, dtype=bool), *is_key]))


def _rows_until_refused(reader, path, refused: list):
    """The rows of ``reader``, ending early on a row the ``csv`` module refuses.

    The refusal is appended to ``refused`` as a DatasetError naming its line,
    so that the rows before it are checked first, as when every row was
    checked as it was read.
    """
    try:
        yield from reader
    except csv.Error as exc:
        refused.append(DatasetError(f"{path}: line {reader.line_num}: {exc}"))


def _block_columns(block: list[list[str]], seen: dict[str, None]):
    """(ids, scores, is_key) of a block of CSV rows; ValueError if a row breaks a rule.

    The one statement of the row rules, each checked over the whole block:
    3 fields; an id that is non-empty, comma-free and not in ``seen``; a
    score that parses as a float in [0, 1]; a label ``key`` or ``nonkey``.
    The message is that of the first rule in this order that a row breaks,
    naming the first such row's value; so on a block of one row it is that
    row's, which ``load_scored_csv`` uses to name a bad row's line. Empty
    rows are skipped. Adds the block's ids to ``seen``.
    """
    if set(map(len, block)) - {3}:
        block = list(filter(None, block))
        if set(map(len, block)) - {3}:
            raise ValueError(f"expected 3 fields, got {next(n for n in map(len, block) if n != 3)}")
    # one map per column: ``zip(*block)`` would make an iterator per row for the gc to track
    ids = tuple(map(itemgetter(0), block))
    raw_scores, labels = (list(map(itemgetter(i), block)) for i in (1, 2))
    before = len(seen)
    seen.update(dict.fromkeys(ids))
    if not all(ids) or "," in "".join(ids):
        raise ValueError("id must be non-empty and comma-free")
    if len(seen) != before + len(ids):
        # ``seen`` keeps insertion order: the first repeat is the first id that added no key
        dup = next(i for i, new in zip_longest(ids, islice(seen, before, None)) if i != new)
        raise ValueError(f"duplicate id {dup!r}")
    rest = iter(raw_scores)  # after a score that does not parse, the scores behind it
    try:
        scores = np.array(list(map(float, rest)), dtype=np.float64)
    except ValueError:
        raise ValueError(f"malformed score {raw_scores[-len(list(rest)) - 1]!r}") from None
    is_key = np.fromiter(map("key".__eq__, labels), dtype=bool, count=len(labels))
    inside = (scores >= 0.0) & (scores <= 1.0)  # False on NaN
    if not inside.all():
        raise ValueError(f"score {raw_scores[int(inside.argmin())]!r} outside [0, 1]")
    if np.count_nonzero(is_key) + labels.count("nonkey") != len(labels):
        bad = next(label for label in labels if label not in _LABELS)
        raise ValueError(f"label must be key or nonkey, got {bad!r}")
    return ids, scores, is_key


def save_scored_csv(dataset: ScoredDataset, path) -> None:
    """Write ``dataset`` as a CSV that ``load_scored_csv`` reads back, as ``csv.writer`` would.

    An id that is empty or holds a comma or a CR, which the loader cannot
    read back, is a ``DatasetError`` naming the first one, as is a score
    the dataset refuses (see ``ScoredDataset``), and no file is written
    then. Rows go out as the fingerprint's text, in blocks; if an id
    holds a quote or an LF, which the ``csv`` module quotes, every row
    goes through it. The text is the faster of the two: 300k rows took
    0.41-0.46 s, and ``csv.writer.writerows`` over the same columns
    0.66-0.96 s (2-core Xeon, Python 3.11, 5 runs each).
    """
    ids, scores = dataset.ids, dataset.scores
    text = "".join(ids)
    if "," in text or "\r" in text or not all(ids):
        bad = next(i for i in ids if not i or "," in i or "\r" in i)
        raise DatasetError(f"{path}: id {bad!r} must be non-empty and hold no comma or CR")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        if '"' not in text and "\n" not in text:
            fh.writelines(dataset._text_blocks())
        else:
            labels = map(_LABELS.__getitem__, dataset.is_key.tolist())
            csv.writer(fh, lineterminator="\n").writerows(
                zip(ids, map(float.__repr__, scores), labels))


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
    classifier produces. Keys ``k0000000``, ``k0000001``, ... come first,
    then non-keys ``n0000000``, ... (``"k{:07d}".format`` of the row
    number, so 8 digits from 10**7 on). Deterministic per seed.

    The ids are cut from one text per prefix and digit count, written as a
    byte matrix of digits (``_numbered_ids``), instead of formatted one by
    one: the 250k ids of 50k keys and 200k non-keys took 0.04-0.07 s, and
    ``format`` per id 0.11-0.23 s (2-core Xeon, numpy 2.4, 10 runs each).
    """
    n, m = _check_count("key count n", n, 0), _check_count("non-key count m", m, 0)
    for name, (a, b) in (("key_shape", key_shape), ("nonkey_shape", nonkey_shape)):
        if not (0 < a < math.inf and 0 < b < math.inf):  # also rejects NaN
            raise ValueError(f"{name} parameters must be finite and > 0, got {(a, b)}")
    rng = np.random.default_rng(seed)
    key_scores = rng.beta(key_shape[0], key_shape[1], size=n)
    nonkey_scores = rng.beta(nonkey_shape[0], nonkey_shape[1], size=m)
    ids = _numbered_ids("k", 0, n) + _numbered_ids("n", 0, m)
    return ScoredDataset.from_columns(ids, np.concatenate([key_scores, nonkey_scores]),
                                      np.arange(n + m) < n)


def _numbered_ids(prefix: str, start: int, stop: int) -> list[str]:
    """``[f"{prefix}{i:07d}" for i in range(start, stop)]`` for an ASCII ``prefix`` without spaces.

    Per digit count, one byte matrix with a row ``prefix``, digits, space
    per number is filled a digit column at a time, then decoded and split
    once.
    """
    head = np.frombuffer(prefix.encode("ascii"), dtype=np.uint8)
    ids: list[str] = []
    while start < stop:
        width = max(7, len(str(start)))
        end = min(stop, 10 ** width)
        numbers = np.arange(start, end, dtype=np.min_scalar_type(end))
        rows = np.empty((end - start, len(head) + width + 1), dtype=np.uint8)
        rows[:, :len(head)] = head
        rows[:, -1] = ord(" ")
        for col in range(len(head) + width - 1, len(head) - 1, -1):
            numbers, rows[:, col] = np.divmod(numbers, 10)
        rows[:, len(head):-1] += ord("0")
        ids += rows.tobytes().decode("ascii").split()
        start = end
    return ids


@dataclass(frozen=True)
class ScorePartition:
    """Thresholds 0 = t_0 < t_1 < ... < t_g = 1 plus realized group counts.

    A score s lands in the unique group j with t_{j-1} <= s < t_j
    (s = 1 goes to group g). Groups are 1-based in the math and 0-based
    here: ``group_indices`` gives a score's group and ``interval`` a
    group's scores.
    """

    thresholds: tuple[float, ...]
    n_per_group: tuple[int, ...]
    m_per_group: tuple[int, ...]

    def __post_init__(self):
        t = self.thresholds
        _check_thresholds(t)
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
    def m(self) -> int:
        return sum(self.m_per_group)

    @property
    def p_hat(self) -> tuple[float, ...] | None:
        """Estimated non-key group probabilities m_j / m; None when m = 0."""
        if self.m == 0:
            return None
        return tuple(mj / self.m for mj in self.m_per_group)

    @property
    def shares(self) -> tuple[tuple[float, float, float], ...] | None:
        """(lo, hi, p_j) per group: its ``interval`` and ``p_hat``; None when m = 0."""
        p_hat = self.p_hat
        return None if p_hat is None else tuple((*self.interval(j), p)
                                                for j, p in enumerate(p_hat))

    def interval(self, j: int) -> tuple[float, float]:
        """[lo, hi) of 0-based group j; the top group's hi is inf, so it holds 1."""
        t = self.thresholds
        return t[j], (t[j + 1] if j + 1 < self.g else math.inf)

    def group_indices(self, scores: np.ndarray) -> np.ndarray:
        """Vectorized 0-based group lookup (``score_pieces`` of the inner thresholds)."""
        return score_pieces(np.asarray(self.thresholds[1:-1]), scores)


# The most bounds that ``score_pieces`` compares every score with; past it it searches.
# Pieces by compares took 265 against 381 us for 10k scores and 64 bounds, 10.4 against
# 12.2 ms for 300k, and were level or slower at 128 (2-core Xeon, numpy 2.4, medians of
# 15-101 runs).
COMPARE_BOUNDS = 64


def score_pieces(bounds: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """``np.searchsorted(bounds, scores, side="right")`` for scores in no particular order.

    A score's piece is the number of the ascending ``bounds`` at or below it;
    a NaN is past every bound. Up to ``COMPARE_BOUNDS`` bounds it is counted
    by comparing every score with each bound, branch-free, instead of a
    binary search per score, whose branches mostly mispredict on unordered
    scores: ``scores < bound`` counts the bounds above a score, and is False
    for a NaN, which so stays last. Scores meet the bounds in float64, as
    they do in the search: in float32 a bound can round onto a score on its
    other side.
    """
    if len(bounds) > COMPARE_BOUNDS:
        return np.searchsorted(bounds, scores, side="right")
    scores = np.asarray(scores, dtype=np.float64)
    above = np.zeros(scores.shape, dtype=np.uint8)  # holds up to 255 bounds
    for bound in bounds.tolist():
        above += scores < bound
    return np.subtract(len(bounds), above, dtype=np.intp)


def _check_thresholds(thresholds) -> None:
    """ValueError naming, by ``repr``, the first threshold that is not a real number
    (``numbers.Real``): a string '0.5' is refused, not read as a number."""
    for x in thresholds:
        if not isinstance(x, Real):
            raise ValueError(f"thresholds must be real numbers, got {x!r}")


def partition_from_thresholds(dataset: ScoredDataset, thresholds) -> ScorePartition:
    """Partition with explicit thresholds; counts are realized from the data."""
    thresholds = tuple(thresholds)
    _check_thresholds(thresholds)  # before float(), which would read a string
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
    then derived against the same thresholds. A score-ordered view cuts
    each (g, c) once and returns that partition again after (see
    ``ScoredDataset.by_score``); a plain dataset cuts it at every call.
    A g that is not an integer is refused (``_check_count``): g = 2.5 would
    cut 3 groups.
    """
    g = _check_count("group count g", g, 1)
    if g > 1:
        check_ratio(c)
    if dataset.m < g:
        raise InsufficientDataError(f"need at least g={g} non-keys, have {dataset.m}")

    def cut() -> ScorePartition:
        cuts = _geometric_cuts(dataset.sorted_nonkey_scores, g, c) if g > 1 else []
        return partition_from_thresholds(dataset, (0.0, *cuts, 1.0))

    return dataset._memo(("partition", g, c if g > 1 else None), cut)  # c is unused at g = 1


def partition_below_threshold(dataset: ScoredDataset, tau: float, g: int, c: float) -> ScorePartition:
    """Geometric partition of the non-keys below ``tau``, then [tau, 1] on top.

    Used for head-to-head comparisons against a threshold filter: the
    top threshold is pinned to the other filter's tau and the g-1
    groups underneath split the remaining non-keys with ratio c. A g that
    is not an integer is refused, as in ``partition_by_ratio``.
    """
    g = _check_count("group count g", g, 2)  # one group below the pinned top threshold
    if not (isinstance(tau, Real) and 0.0 < tau < 1.0):
        raise ValueError(f"tau must be in (0, 1), got {_shown(tau)}")
    if g > 2:  # below that, c is unused
        check_ratio(c)
    below = dataset.sorted_nonkey_scores
    below = below[below < tau]
    if len(below) < g - 1:
        raise InsufficientDataError(
            f"need at least {g - 1} non-keys below tau={tau}, have {len(below)}")
    # every cut is a midpoint of two scores below tau, so below tau too
    cuts = _geometric_cuts(below, g - 1, c) if g > 2 else []
    thresholds = (0.0, *cuts, tau, 1.0)
    return partition_from_thresholds(dataset, thresholds)


def _sample_bound(k_groups: int, epsilon: float, delta: float) -> float:
    return (2.0 * (k_groups - 1) / epsilon**2) * (
        math.sqrt(1.0 / math.pi) + math.sqrt((1.0 - 2.0 / math.pi) / delta)
    ) ** 2


def min_sample_size(k_groups: int, epsilon: float, delta: float) -> int:
    """Non-keys needed so the total estimation error of p_hat stays below
    epsilon with probability at least 1 - delta, for k_groups groups."""
    k_groups = _check_count("k_groups", k_groups, 2)
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return int(math.ceil(_sample_bound(k_groups, epsilon, delta)))
