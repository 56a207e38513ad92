"""Classic Bloom filter, its textbook analytics, and the score-gated stage core.

Serves both as a baseline method and as the stage every learned variant
is made of. The expected false positive rate of a filter with R bits,
n inserted keys and K hash functions is

    (1 - (1 - 1/R)^(K*n))^K

the K-th power of the bit load that ``alpha_load`` gives for one group
of n keys (the adaptive filter's load sums n_t K_t over its groups; one
bit set by any probe has load 1). The FPR-minimizing hash count for a
given load is K = (R/n) ln 2, at which point the FPR per bit-per-key
approaches 0.5^ln2 (~0.6185).

A :class:`GatedBloom` is a tuple of stages ``(lo, hi, StandardBloom)``.
A query with score s passes iff every stage whose interval [lo, hi)
holds s passes; a key goes into every stage whose interval holds its
score. The four learned filters are such stage tuples:

- sandwiched: ``((0, inf, initial), (0, tau, backup))``;
- learned: the sandwich with no initial stage, ``((0, tau, backup),)``,
  so scores >= tau pass outright;
- adaptive: one stage per group with K_j > 0, all on one shared array;
- disjoint: one stage per group with R_j > 0, each with its own array
  and hash lane.

A bound lo <= 0 or hi > 1 is an open end, so the top group's stage, with
hi = inf, holds the score 1. Both query paths of a ``GatedBloom`` raise
``ValueError`` on a missing, NaN or out-of-range score; ``StandardBloom``
takes a score too and ignores it. A batch without rows whose hash arrays
and scores differ in length, and a batch with rows whose scores and rows
differ in length, are refused with ``ValueError`` before any probe.

Each learned filter also gives ``shares``: pieces ``(lo, hi, share)`` of
the score axis with their share of the build's non-keys, or None when the
build had none. ``lbf`` and the sandwich give [0, tau) with 1 - f_p and
[tau, inf) with f_p; ``ada`` and ``disjoint`` give each group's interval
with its p_j (``ScorePartition.shares``). ``GatedBloom.expected_fpr`` is
one formula on that table for all four:

- the load of each bit array is ``alpha_load`` over the stages on it, so
  ``ada``'s stages share one load and every other stage has its own;
- a stage's FPR is its array's load to the power of its k;
- a non-key in a piece passes with the product of the FPRs of the stages
  that hold the piece (1 if none does), and the expected FPR is the
  ``math.fsum`` over the pieces of share times that product;
- a stage over the whole score axis (lo <= 0 and hi > 1: the sandwich's
  initial filter) holds every piece, so its FPR multiplies the sum once.

For ``ada`` this is the paper's sum_j p_j alpha^K_j (``expected_fpr_ada``),
for the sandwich F_initial * (f_p + (1 - f_p) F_backup).

``insert_keys`` and a batch query that comes with ``ProbeRows`` pick each
stage's items with ``_stage_items``. A batch with rows is in ascending
score order (see ``bits.ProbeRows``), so a stage's items are one run of
it: two ``searchsorted`` calls give the range [i0, i1), the inputs are
views, the stage reads the view's held pairs and cached probe columns, and
the answers are written to ``out[i0:i1]``. Only a stage whose interval
overlaps an earlier one (a sandwich's backup) can hold items already
rejected; it narrows to the survivors inside its range. Items without rows
(a plain dataset, a query batch's later stages) are selected by position:
``np.flatnonzero`` of the mask of the stage's interval and the survivors,
gathered with ``take`` and answered by a scatter to the positions, or, for
a stage over the whole axis that rejects no survivor, ``slice(0, n)``.
Both give the same items. On a 10k batch with 7k items selected at
random, two ``uint64`` boolean gathers took 63 us and a boolean scatter
31 us, where ``flatnonzero`` took 8 us, two ``take`` calls 10 us and the
scatter to positions 8 us (2-core Xeon, numpy 2.4, best of 5 x 1000).

A batch query without rows (a query batch, a plain dataset) is answered
by one probe walk over stages with disjoint intervals, picked in one
pass by lower bound (``_Walk``), if there are at least two. So each item
gets its stage once, by ``scores.score_pieces`` of its score in their
bounds, is remixed once on that stage's lane, and all items of a block
(below) walk in one ``BitVector.test_hashed`` call with a hash count (0
outside every stage, which passes), range and bit offset each; the
offsets point into one copy of the stages' arrays laid end to end, made
with the walk, and ``ada``'s stages, on one array, keep one range and no
offsets. The other stages are probed afterwards, one at a time, on the
survivors inside their interval: a stage that overlaps a walked one (a
sandwich's backup), and a stage that would walk alone (``lbf``'s backup,
the sandwich's initial filter).

Every batch without rows, of a ``GatedBloom`` or a ``StandardBloom``, is
answered in blocks of ``_WALK_ITEMS`` (2**15) items, the walk and every
later stage alike: its arrays and scores are checked whole, before any
probe, then each block is gathered, remixed and probed on its own, and
the blocks' answers are joined. So what a batch allocates past its
answers is bounded by a block. One 400k-item batch of random base pairs
and Beta(1, 3) scores, on filters of the build benchmark's parameters
(100k keys, 1 Mb, tau 0.5), peaked above its inputs at 1.8 MB on
``lbf``, 1.5 MB on the sandwich and 1.2 MB on ``standard``, where
probing the later stages (or the standard filter) on the whole batch
took 18.1, 14.1 and 10.7 MB; ``ada`` (2.5 MB) and ``disjoint`` (4.1 MB)
walked in blocks before (tracemalloc). Nor did it take longer, since a
block's temporaries stay in the L2 cache: in three alternating runs
``lbf`` took 8.6-13.4 ms where it took 13.7-17.6 ms whole, the sandwich
9.1-14.1 against 14.5-17.6 ms and ``standard`` 5.8-9.7 against 7.7-10.4
ms (2-core Xeon, numpy 2.4, CPU time, median of 9 calls each). No batch
of the query benchmark (10k items) spans two blocks.

On one 10k batch of the benchmark's query workload (2-core Xeon, numpy
2.4, best of 4 x 1000, raw) ``ada`` took 0.48 ms where a walk per stage
took 1.18 ms, and ``disjoint`` 0.78 instead of 1.52 ms. Of that, placing
the 10k scores among 18 bounds by ``searchsorted``, a binary search per
score, took 0.21 ms. ``score_pieces`` compares every score with each
bound instead: a 10k batch then took 0.33 instead of 0.42 ms on ``ada``
and 0.63 instead of 0.75 ms on ``disjoint``, with equal answers (CPU
time, best of 20, medians of 9 alternating runs). Batches with rows keep
a walk per stage, which reads cached columns and held pairs: on the 50k
non-keys of a score-ordered view, ``disjoint`` at g = 8 and 150 Kb took
2.0 ms with rows and 4.6 ms in one walk without.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .bits import BitVector, HashFamily, ProbeRows, _check_count
from .scores import ScoredDataset, check_scores, score_pieces

__all__ = [
    "StandardBloom",
    "GatedBloom",
    "build_standard",
    "insert_keys",
    "expected_fpr_standard",
    "alpha_load",
    "check_model_count",
    "optimal_k",
    "OPTIMAL_FPR_BASE",
    "DEFAULT_K_CAP",
    "MAX_K",
]

LN2 = math.log(2.0)

# FPR base of an optimally hashed filter: 0.5 ** ln 2. The only place
# this constant is defined; the disjoint allocator and the sandwiched
# allocator both import it.
OPTIMAL_FPR_BASE = 0.5 ** LN2

DEFAULT_K_CAP = 64
# The largest hash count a filter takes: a query that hits probes k bits, so a
# loaded k of 2**31 on a full filter would run for minutes. 2**20 probes take
# about 0.4 s scalar and 0.1 s batched; the library's builders stop at 64.
MAX_K = 1 << 20
# the scalar scores a query takes: those whose array ``check_scores`` takes (bool, int, float)
_REAL = (int, float, np.integer, np.floating, np.bool_)


def check_model_count(model_bits: int) -> int:
    """``model_bits``, the bits a filter charges to its score model; ValueError
    unless it is an integer (a Python or numpy one) >= 0."""
    return _check_count("model_bits", model_bits, 0)


def round_half_away(x: float) -> int:
    """Round() with half-away-from-zero ties (x is never negative here)."""
    return int(math.floor(x + 0.5))


class StandardBloom:
    """R-bit Bloom filter with k double-hashing probes per item."""

    __slots__ = ("bits", "k", "family", "n_inserted")

    def __init__(self, bits: BitVector, k: int, family: HashFamily, n_inserted: int = 0):
        if k < 0:
            raise ValueError(f"hash count k must be >= 0, got {k}")
        if k > MAX_K:
            raise ValueError(f"hash count k must be <= {MAX_K}, got {k}")
        self.bits = bits
        self.k = k
        self.family = family
        self.n_inserted = n_inserted

    @property
    def size_bits(self) -> int:
        return self.bits.length_bits

    @property
    def seed(self) -> int:
        return self.family.seed

    def contains(self, item: bytes | str, score: float | None = None) -> bool:
        """Membership test; false positives possible, false negatives not.

        ``score`` is ignored: it is accepted so every filter answers one call.
        """
        return self.bits.test_bits(self.family.iter_indices(item, self.k, self.bits.length_bits))

    def contains_batch(self, base_a: np.ndarray | None, base_b: np.ndarray | None,
                       scores: np.ndarray | None = None, *,
                       rows: ProbeRows | None = None) -> np.ndarray:
        """Batch membership test from base-hash arrays of the master seed.

        With ``rows``, from a score-ordered view, the batch's hashes are read
        from the view instead (``ProbeRows.pairs``: the held final pairs of
        lanes 0 and 1, no remix), so ``base_a`` and ``base_b`` are not read
        and may be None, and the probe reads its cached columns; scores, if
        given, must be as many as the rows. Without rows, a missing base
        array or arrays of different lengths are refused, and the batch is
        remixed and probed in blocks of ``_WALK_ITEMS`` items. A refused
        batch raises ValueError before any probe.
        """
        if rows is None:
            _check_batch(base_a, base_b, scores)
            return _in_blocks(lambda a, b: self.bits.test_hashed(
                *self.family.remix_pairs(a, b), self.k), base_a, base_b)
        _check_rows(scores, rows)
        return self.bits.test_hashed(*rows.pairs(self.family), self.k,
                                     cached=rows.cached(self.family, self.bits.length_bits))

    def expected_fpr(self) -> float:
        return expected_fpr_standard(self.size_bits, self.n_inserted, self.k)

    def __repr__(self) -> str:
        return f"StandardBloom(r={self.size_bits}, k={self.k}, n={self.n_inserted})"


def _check_batch(base_a, base_b, scores) -> None:
    """ValueError unless a batch without probe rows has both base arrays, each a 1-D
    ``uint64`` array, all equally long.

    ``scores`` may be None; a refused base array is named with its shape and
    dtype, a length mismatch with the lengths.
    """
    if base_a is None or base_b is None:
        raise ValueError("a batch without probe rows needs base_a and base_b")
    for name, x in (("base_a", base_a), ("base_b", base_b)):
        if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.uint64):
            got = (f"shape {x.shape}, dtype {x.dtype}" if isinstance(x, np.ndarray)
                   else type(x).__name__)
            raise ValueError(f"{name} must be a 1-D uint64 array, got {got}")
    named = [(name, len(x)) for name, x in zip(("base_a", "base_b", "scores"),
                                               (base_a, base_b, scores)) if x is not None]
    if len({n for _, n in named}) > 1:
        raise ValueError("batch arrays differ in length: "
                         + ", ".join(f"{name} {n}" for name, n in named))


def _check_rows(scores, rows: ProbeRows) -> None:
    """ValueError if a batch with probe rows has scores of another length than its rows."""
    if scores is not None and len(scores) != rows.size:
        raise ValueError(f"batch arrays differ in length: scores {len(scores)}, rows {rows.size}")


def _in_blocks(answer, *arrays: np.ndarray) -> np.ndarray:
    """``answer(*arrays)`` of a batch without probe rows, called on each block of at
    most ``_WALK_ITEMS`` items of the arrays and concatenated; one call if they fit one."""
    n = len(arrays[0])
    if n <= _WALK_ITEMS:
        return answer(*arrays)
    return np.concatenate([answer(*(x[i:i + _WALK_ITEMS] for x in arrays))
                           for i in range(0, n, _WALK_ITEMS)])


def _stage_items(scores: np.ndarray, lo: float, hi: float, ordered: bool,
                 alive: np.ndarray | None = None):
    """(selector, count) of the items with ``lo <= score < hi`` that ``alive`` keeps.

    lo <= 0 and hi > 1 are open ends, and a NaN score counts as above
    every bound. On ``ordered`` scores (ascending, NaN last) the selector
    is the slice [i0, i1), or the survivors' indices inside it if
    ``alive`` rejects some there. Otherwise it is the items' positions,
    ``np.flatnonzero`` of their mask, or ``slice(0, n)`` for a stage over
    the whole axis that ``alive`` (if given) rejects none of: callers gather
    with them by ``take`` and scatter to them, which with ``flatnonzero``
    took about a quarter of the time of a boolean gather and scatter on a
    random mask.
    """
    if not ordered:
        if lo <= 0.0 and hi > 1.0 and (alive is None or alive.all()):
            return slice(0, len(scores)), len(scores)
        sel = scores < hi if hi <= 1.0 else np.ones(len(scores), dtype=bool)
        if lo > 0.0:
            sel &= ~(scores < lo)
        if alive is not None:
            sel &= alive
        kept = np.flatnonzero(sel)
        return kept, len(kept)
    i0 = int(np.searchsorted(scores, lo)) if lo > 0.0 else 0
    i1 = int(np.searchsorted(scores, hi)) if hi <= 1.0 else len(scores)
    sel = slice(i0, max(i0, i1))
    if alive is not None:
        inside = alive[sel]
        if not inside.all():  # an earlier, overlapping stage rejected some
            kept = np.flatnonzero(inside) + i0
            return kept, len(kept)
    return sel, sel.stop - i0


# Items per block: a batch without probe rows is answered this many items at a
# time, its walk and every later stage alike. The walk holds about 110 bytes per
# item (pairs, stage tables, the walkers' positions and their counts, ranges and
# offsets in walk order), so one 400k batch on ``disjoint`` peaked at 42 MiB
# unblocked; ``lbf``'s backup, probed after the walk, took 18.1 MB on one 400k
# batch unblocked and 1.8 MB in blocks (tracemalloc).
_WALK_ITEMS = 1 << 15


class _Walk(NamedTuple):
    """How ``GatedBloom.contains_batch`` answers a block of a batch without probe rows.

    The batch comes in blocks of at most ``_WALK_ITEMS`` items, and each
    block is walked, then probed on the ``later`` stages, before the next.
    The walked stages are picked in one pass over the stages by lower
    bound: a stage walks if it starts at or past the end of the last one
    picked. They hold disjoint score intervals, so each item is in at most
    one of them, and all of them are probed in one ``test_hashed`` walk
    with a hash count, range and bit offset per item. Their distinct bounds
    cut the scores into pieces: a score's piece is the number of bounds at
    or below it (``scores.score_pieces``), and per-piece tables give each
    item its stage's count (0 outside every stage), lane, range and
    offset; a piece's stage is the walked stage that starts at the
    piece's lower bound, found in a dict. Stages on several arrays are
    probed in one copy of them laid end to end, one ``np.concatenate``
    (``BitVector.joined``), so an offset is the sum of the lengths of the
    arrays before the stage's.
    The ``later`` stages are probed afterwards, one at a time, on the
    survivors inside their interval: those that overlap a walked one (a
    sandwich's backup), and every stage if fewer than two would walk, since
    one stage alone needs no counts. A query passes iff every stage that
    holds its score does, so which of two overlapping stages walks does not
    change an answer.
    """

    bounds: np.ndarray  # the walked stages' distinct bounds, ascending; open ends infinite
    counts: np.ndarray  # per piece: its stage's k, or 0
    k: int  # the largest count
    family: HashFamily | None  # the stages' one family, or None: ``salts`` per piece
    salts: tuple | None  # ``HashFamily.lane_salts`` of the pieces' families, made once
    bits: BitVector | None  # the stages' one array, or their arrays end to end
    ranges: np.ndarray | None  # per piece, if several arrays: the stage's range
    offsets: np.ndarray | None  # and the bit its array starts at
    later: tuple

    @classmethod
    def of(cls, stages) -> "_Walk":
        walked, later, end = [], [], -math.inf
        for lo, hi, stage in sorted(stages, key=lambda s: s[0]):  # one pass by lower bound
            span = (-math.inf if lo <= 0.0 else lo, math.inf if hi > 1.0 else hi)
            if end <= span[0] < span[1]:  # at or past the last walked end, and not empty
                walked.append((span, stage))
                end = span[1]
            else:
                later.append((lo, hi, stage))
        if len(walked) < 2:
            walked, later = [], list(stages)
        bounds = np.unique(np.array([x for span, _ in walked for x in span], dtype=np.float64))
        # piece p holds the scores from bounds[p - 1] up to bounds[p]: no walked stage
        # starts or ends inside another, so its stage is the one starting at bounds[p - 1]
        by_start = {lo: stage for (lo, _), stage in walked}
        holders = [None] + [by_start.get(x) for x in bounds.tolist()]
        at = [stage or walked[0][1] for stage in holders] if walked else []
        counts = np.array([stage.k if stage else 0 for stage in holders], dtype=np.intp)
        families = tuple(stage.family for stage in at)
        same = len({(f.seed, f.lane) for f in families}) == 1
        arrays = list({id(stage.bits): stage.bits for _, stage in walked}.values())
        bits, ranges, offsets = (arrays or [None])[0], None, None
        if len(arrays) > 1:
            start, starts = 0, {}
            for array in arrays:
                starts[id(array)] = start
                start += array.length_bits
            bits = BitVector.joined(arrays)
            ranges = np.array([stage.bits.length_bits for stage in at], dtype=np.uint64)
            offsets = np.array([starts[id(stage.bits)] for stage in at], dtype=np.uint64)
        return cls(bounds, counts, int(counts.max(initial=0)), families[0] if same else None,
                   None if same else HashFamily.lane_salts(families), bits, ranges, offsets,
                   tuple(later))

    def answer(self, base_a: np.ndarray, base_b: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """The walked stages' answers: True where an item's stage holds it, or it has none."""
        if not len(self.bounds):
            return np.ones(len(scores), dtype=bool)
        piece = score_pieces(self.bounds, scores)
        if self.family is not None:
            a, b = self.family.remix_pairs(base_a, base_b)
        else:
            a, b = HashFamily.remix_each(self.salts, piece, base_a, base_b)
        per_item = {"counts": self.counts.take(piece)}
        if self.ranges is not None:
            per_item.update(ranges=self.ranges.take(piece), offsets=self.offsets.take(piece))
        return self.bits.test_hashed(a, b, self.k, **per_item)


class GatedBloom:
    """Score-gated Bloom stages; see the module docstring. Zero FNR."""

    __slots__ = ("stages", "seed", "model_bits", "shares", "_walk")

    def __init__(self, stages, seed: int, model_bits: int = 0, shares=None):
        self.stages: tuple[tuple[float, float, StandardBloom], ...] = tuple(stages)
        self.seed = seed
        self.model_bits = check_model_count(model_bits)
        # (lo, hi, share of the build's non-keys) per score piece; None without non-keys
        self.shares: tuple[tuple[float, float, float], ...] | None = shares
        self._walk: _Walk | None = None  # made on the first batch once every array is frozen

    def contains(self, item: bytes | str, score: float | None = None) -> bool:
        """True iff every stage whose [lo, hi) holds ``score`` holds the item."""
        if score is None:
            raise ValueError(f"{type(self).__name__} queries need a score")
        if not isinstance(score, _REAL):  # as ``check_scores`` refuses a batch of them
            raise ValueError(f"score must be a real number, got {type(score).__name__} {score!r}")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {score}")
        score = float(score)  # as in ``check_scores``: a float32 would meet the bounds in float32
        return all(stage.contains(item) for lo, hi, stage in self.stages if lo <= score < hi)

    def contains_batch(self, base_a: np.ndarray | None, base_b: np.ndarray | None,
                       scores: np.ndarray | None = None, *,
                       rows: ProbeRows | None = None) -> np.ndarray:
        """Batch ``contains`` from base-hash arrays of the master seed.

        ``rows`` gives the items' rows in a score-ordered view's probe cache,
        from which every stage reads its hashes: then ``base_a`` and ``base_b``
        are not read and may be None. A batch with rows must be in ascending
        score order (see ``ProbeRows``), or ValueError: its stages pick score
        ranges, and a range of an unordered batch would send keys to the
        wrong stages, and as many scores as rows, or ValueError. A batch
        without rows is answered in blocks of ``_WALK_ITEMS`` items, each by
        one walk over stages with disjoint intervals, if there are two or
        more (see ``_Walk``), and then the later stages.
        """
        if scores is None:
            raise ValueError(f"{type(self).__name__} queries need a score")
        scores = check_scores(scores)
        if rows is None:
            _check_batch(base_a, base_b, scores)
            walk = self._walk
            if walk is None:
                walk = _Walk.of(self.stages)
                if all(stage.bits.frozen for _, _, stage in self.stages):
                    self._walk = walk
            return _in_blocks(lambda a, b, s: _probe_stages(walk.later, a, b, s,
                                                            walk.answer(a, b, s)),
                              base_a, base_b, scores)
        _check_rows(scores, rows)
        if not (scores[1:] >= scores[:-1]).all():
            raise ValueError("a batch with probe rows must be in ascending score order")
        return _probe_stages(self.stages, None, None, scores, np.ones(len(scores), dtype=bool),
                             rows)

    def expected_fpr(self) -> float | None:
        """Expected FPR from the stage table and the shares; None without non-keys.

        See the module docstring.
        """
        if self.shares is None:
            return None
        on_array = {}
        for _, _, stage in self.stages:
            on_array.setdefault(id(stage.bits), []).append(stage)
        load = {key: alpha_load(held[0].size_bits, [s.n_inserted for s in held],
                                [s.k for s in held]) for key, held in on_array.items()}
        whole, gated = 1.0, []
        for lo, hi, stage in self.stages:
            fpr = load[id(stage.bits)] ** stage.k
            if lo <= 0.0 and hi > 1.0:
                whole *= fpr
            else:
                gated.append((lo, hi, fpr))
        return whole * math.fsum(
            share * math.prod(f for lo, hi, f in gated if lo <= piece_lo and piece_hi <= hi)
            for piece_lo, piece_hi, share in self.shares)


def _probe_stages(stages, base_a, base_b, scores: np.ndarray, out: np.ndarray,
                  rows: ProbeRows | None = None) -> np.ndarray:
    """``out`` with each stage's answers on the items inside its interval that ``out``
    still passes: those of the batch's base pairs, or of ``rows`` if given."""
    for lo, hi, stage in stages:
        sel, count = _stage_items(scores, lo, hi, rows is not None, out)
        if count == len(scores):  # every item, none yet rejected: no copies
            out = stage.contains_batch(base_a, base_b, rows=rows)
        elif count and rows is None:  # ``sel`` holds positions
            out[sel] = stage.contains_batch(base_a.take(sel), base_b.take(sel))
        elif count:  # the stage reads its pairs from the view: gather no base pairs
            out[sel] = stage.contains_batch(None, None, rows=rows.select(sel))
    return out


def insert_keys(dataset: ScoredDataset, seed: int, stages) -> None:
    """Insert each key into every stage whose [lo, hi) holds its score.

    Sets each stage's ``n_inserted`` to its key count, then freezes the bits.
    On a score-ordered view each stage's keys are a slice of the view's
    rows, inserted from the view's final pairs and cached probe columns; a
    stage with no keys or k = 0 asks the view for no geometry.
    """
    rows = dataset.probe_rows(keys=True)
    for lo, hi, stage in stages:
        sel, stage.n_inserted = _stage_items(dataset.key_scores, lo, hi, rows is not None)
        if not (stage.n_inserted and stage.k):
            continue
        if rows is not None:
            batch = rows.select(sel)
            stage.bits.set_hashed(*batch.pairs(stage.family), stage.k,
                                  cached=batch.cached(stage.family, stage.bits.length_bits))
        else:
            base_a, base_b = dataset.key_pairs(seed)
            a, b = stage.family.remix_pairs(base_a[sel], base_b[sel])
            stage.bits.set_hashed(a, b, stage.k)
    for _, _, stage in stages:
        stage.bits.freeze()


def build_standard(keys: Iterable[bytes | str], r: int, k: int, seed: int) -> StandardBloom:
    """Insert every key with k hash functions into a fresh r-bit filter."""
    _check_count("filter size r", r, 1)
    family = HashFamily(seed)
    bloom = StandardBloom(BitVector(r), k, family, 0)
    a, b = family.base_pairs(keys)  # raises TypeError on a key that is not bytes or str
    a, b = family.remix_pairs(a, b)
    bloom.bits.set_hashed(a, b, k)
    bloom.n_inserted = len(a)
    bloom.bits.freeze()
    return bloom


def alpha_load(r: int, n_per_group, k_per_group) -> float:
    """Probability a given bit is set: 1 - (1 - 1/R)^(sum_t n_t K_t).

    One bit that any probe sets is set (load 1); no probe sets nothing.
    """
    if r < 1:
        raise ValueError(f"filter size r must be >= 1, got {r}")
    if len(n_per_group) != len(k_per_group):
        raise ValueError(
            f"group count mismatch: {len(n_per_group)} key counts vs {len(k_per_group)} hash counts")
    total = sum(int(n) * int(k) for n, k in zip(n_per_group, k_per_group))
    if total == 0 or r == 1:
        return float(total > 0)
    return -math.expm1(total * math.log1p(-1.0 / r))


def expected_fpr_standard(r: int, n: int, k: int) -> float:
    """Expected FPR of an r-bit filter holding n keys with k hashes: the one-group load ** k.

    Zero probes accept everything (0.0 ** 0 is 1).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    return alpha_load(r, (n,), (k,)) ** k


def optimal_k(r: int, n: int) -> int:
    """FPR-minimizing hash count min(DEFAULT_K_CAP, Round((r/n) ln 2)); the cap when n = 0.

    Past the cap of 64 (above about 92 bits per key) the expected FPR is
    below 1e-19 either way, while every insert and every hit costs k probes.
    """
    if r < 0 or n < 0:
        raise ValueError("r and n must be >= 0")
    if n == 0:
        return DEFAULT_K_CAP
    return min(DEFAULT_K_CAP, round_half_away(r / n * LN2))
