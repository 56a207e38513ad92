"""Bit storage and hashing shared by every filter variant.

A Bloom-style filter needs an R-bit array and K hash functions mapping
items to positions in [0, R). Instead of K independent hash functions,
the whole family is derived from two 64-bit base hashes via double
hashing, h_i(x) = h_a(x) + i*h_b(x) mod R (Kirsch & Mitzenmacher,
"Less hashing, same performance", 2006), the standard engineering
substitute with negligible effect on the false positive rate. The
stride hash h_b is forced odd so the probe sequence cannot degenerate
when R is even.

Base hashes are FNV-1a over the item bytes, salted with two constants
derived from the family seed, then passed through a 64-bit finalizer
for avalanche. Everything is deterministic: the same (seed, item, i, R)
yields the same index on any platform. All intermediate arithmetic
wraps at 64 bits, which lets the scalar path and the numpy batch path
produce identical indices.

``_base_hash`` is the per-item reference: scalar queries use it, and the
tests compare the batch path against it. ``HashFamily.base_pairs`` hashes
a batch column-wise instead, in chunks of ``_HASH_CHUNK`` items, which
bounds the temporaries. Each chunk becomes one ``bytes`` buffer holding its
ids (``_chunk_bytes``):

- a chunk of ``str`` ids whose joined text is ASCII is joined with a NUL
  between ids and encoded once. On 8192 ``q…`` ids this took 113 us where
  taking the lengths with ``len`` per id took 250 us (2-core Xeon, numpy
  2.4, best of 300);
- any other chunk (``bytes``, ``bytearray``, ``memoryview``, non-ASCII
  text, an id holding a NUL, a mix) converts each id as ``base_pair`` does
  and joins the bytes.

Both give the bytes the per-item path hashes, and a bad id raises the same
``TypeError``. Converting id by id took about 35 of the 57 ms that hashing
100k ASCII ids took when every chunk was hashed as below.

If more than ``_SCALAR_TAIL_ROWS`` ids of a chunk have one byte length L,
the buffer is already a matrix of their bytes: ``(n, L + 1)`` for the
joined text, which is then n * (L + 1) - 1 bytes long with a NUL at every
(L + 1)-th byte, and ``(n, L)`` for the per-id join. Byte column j is a
strided view, xored into the states of both salts in one ``(2, n)`` array
that is the chunk's own slice of the output, in item order: no sort, no
gather, no scatter, and the finalizer runs in place there. A batch of 10k
``q…`` ids (8 bytes each, as in the benchmark's query batches) took
0.69 ms where sorting them as below took 1.48 ms, and 100k of them 6.6
instead of 12.6 ms (2-core Xeon, numpy 2.4, best of 15 x 20, raw).

Any other chunk takes the start and length of each id: of the joined text
from one compare of its bytes with 0, of the per-id join from the ids'
lengths. With the ids sorted longest first, step j xors byte j of every id
longer than j bytes (a prefix of the rows, read from the buffer at the
id's start plus j) into its states and multiplies them by the FNV prime.
Once no more than ``_SCALAR_TAIL_ROWS`` ids of a chunk are still active,
they finish in the Python loop from their current states, reading the rest
of each id as a slice of the buffer, so one long id among short ones costs
what it costs the per-item loop. The finished states go back to item order
by one scatter per salt: 98 us on an 8192-id chunk, where one 2-D fancy
scatter of both took 191 us.

A ``BitVector`` holds one ``bool`` byte per bit and packs them only for the
container (see its docstring), so every kernel indexes the bits directly:
an insert is one scatter of ``True``, a probe one ``take``, with no byte and
mask per bit. Against packed bits, where an insert marked an R-byte array
and packed and ORed it in per call, a 10-key insert into 300k bits took 7
instead of 32 us, and over six traced perfbench sweep passes (2-core Xeon,
numpy 2.4, raw) inserts took 0.47 instead of 0.54 s and probes 0.49
instead of 0.70 s. A probe reads R bytes instead of R / 8, which still paid
on a half-full loaded filter probed with 10k items at k = 8: 143-181 us at
R = 300k-1M against 199-378 us packed, and 177-247 against 222-384 us at
R = 4M (three runs each on a shared host).

One kernel, ``_probes``, computes the probes of a batch: columns first to
stop - 1 as the ``(w, n)`` slab ``(a + b * cols[:, None]) mod R``. Every
batch probe goes through it: ``set_hashed``'s and ``test_hashed``'s slabs,
the walk's columns, the cached matrix below and ``ProbeRows.probe``; only
the scalar reference ``HashFamily.iter_indices`` states the rule again.
``BitVector.set_hashed`` sets the bits of slabs of at most ``_SLAB``
probes, which bounds memory for any k. ``_SLAB`` is 2**16, so each
``uint64`` temporary is 512 KiB, well inside a core's L2: inserting 50k
keys with k = 4 into 300k bits took 2.3 ms, 2.6 ms at 2**18. The kernel
reduces by a scalar R as ``idx - idx // R * R``: the same remainder as
``% R``, but numpy divides a ``uint64`` array by a scalar without hardware
division (libdivide) and takes remainders with it; on 200k indices this
took 0.45 instead of 0.9 ms.

Probe i of an item depends only on its base pair, its lane, i and R, not
on which filter is probed, and a tuner builds and measures hundreds of
candidates that share lane 0 and R on the same keys and non-keys. A
``ProbeCache`` holds, for a fixed list of items, the hash work those
candidates repeat; the score-ordered view of a dataset keeps one per side
(see ``ScoredDataset.by_score``), and a batch names its items in it by
``ProbeRows``:

- the final pairs of lanes 0 and 1, built once per seed, which every stage
  on those lanes reads at its rows (a view of a range, a gather of index
  rows) instead of remixing its slice of the base pairs;
- per lane from 2 up (``disjoint``'s groups past the first) the final
  pairs of every row asked for so far under one seed, in a window of the
  items' length over an anonymous memory map. A row is remixed the first
  time a stage on its lane reads it, so once per view and seed, not once
  per candidate and budget, and a page of the window takes memory only
  once a row on it is written: 16 bytes per (lane, row) served. On the
  benchmark's sweep (50k/50k, 150 and 300 Kb, default grids, seeds 1101
  and 2601) the stages of a pass asked for 8.9-9.0M such pairs, 450k-457k
  distinct ones, and the windows' written pages held 7.4-7.5 MB; peak RSS
  went 67.3 -> 74.1 MB (perfbench medians, 10 runs each). Full windows
  from ``np.empty`` would take memory as soon as the heap reused pages
  that were already resident;
- the first ``CACHED_COLUMNS`` probe indices of one (seed, lane, R) as an
  ``int32`` matrix. ``set_hashed`` and ``test_hashed`` take that matrix and
  their items' rows in it as ``cached``, and ``ProbeRows.probe`` reads one
  column of it, as ``learned.count_lbf_fprs`` does. Insert sets the cached columns
  directly, cast to ``intp`` up to ``_SLAB`` at a time: numpy scatters
  ``int32`` indices on a slow cast path (400k indices into 300k bools took
  2.4 ms as ``int32``, 1.6 ms cast first), and an ``intp`` matrix would hold
  4.8 MB more on the benchmark's sweep.

The view holds hash work only: each stage inserts its keys into its own
bits with ``set_hashed``, from the view's pairs and cached columns.
Starting a stage from the kept bits of an earlier one of the same
geometry over fewer keys skipped 1.7% of a sweep pass's insert probes
(50k/50k, 150 and 300 Kb), and keeping, scanning and copying those bits
cost more than that saved: the pass took 4-5% more CPU time with it
(2-core Xeon, CPU time of four alternations in one process, two seeds).

``test_hashed`` tests a batch of at most ``_SMALL_BATCH`` (2**14) probes,
n * k, as one slab: the ``(k, n)`` indices at once, cached or not. A walk
pays a dozen numpy calls per column whatever the batch size, while a slab
computes all n * k probes, where the walk drops an item at its first miss;
on uncached batches at half load with k = 10 (R = 300k, 2-core Xeon, numpy
2.4, best of 15 x 20) the walk took 82 us and the slab 60 us for 1250
items, about even at 2500, and 160 us against 401 us for 10k. A larger
batch walks the first ``CACHED_COLUMNS`` columns one at a time over the
items that are still all hits, whether or not they are cached; at the
optimal k a filter is about half full, so a non-key costs about two
probes. The walk keeps one array, the positions of the
survivors (none until the first miss, unless the items have counts, below).
Per column it tests the survivors, finds the hits with ``flatnonzero`` and,
if any item missed, gathers the positions and the column source at them
with ``take`` (on numpy 2.4 twice as fast as ``compress``). A column that
drops nothing, as every column of a batch of keys, is told by its hit
count equal to the survivor count, with no separate ``all`` pass. That is
four numpy passes per column where keeping positions and rows apart took
six: in a profiled sweep pass (50k/50k, 150 and 300 Kb, seed 1101, 2-core
Xeon, numpy 2.4) ``test_hashed`` took 1.55 instead of 1.93 s, and
``set_hashed``, with the ``intp`` cast below, 0.93 instead of 1.11 s. Only
the column source differs:

- cached, column i is read from the matrix at the survivors. The matrix
  of a range of rows is first cut to the range (a view), so a survivor's
  position indexes its own columns; index rows are gathered at the
  survivors instead;
- uncached, it is the running sum h = a + i*b, kept per survivor and
  advanced by b per column (the same 64-bit wrap as a + i*b), reduced by R.

Either way the column's bits are one ``take`` of the bits, and no copy of
them is made. On 50k non-keys at R = 300k and k = 8 (2-core Xeon, numpy
2.4) the cached walk took 0.54 ms, the uncached one 0.67 ms and one slab
of all 8 columns 9.1 ms. Columns past the walk, on the few items that
survive it, are probed in slabs of 1, 2, 4, ... columns: at k = 10**6,
three items that hit everywhere take about 60 slabs, not a numpy call per
column. ``CACHED_COLUMNS`` is 12: about 0.5 ** 12 (0.02%) of non-keys
reach column 13, and the default ``ada`` ladder tops out at k = 12.

The small-batch rule also ends a walk. At a column computed from the
pairs (every column of an uncached walk, and those past
``CACHED_COLUMNS``), once the m survivors' remaining probes, m times the
largest count left, fit ``_SMALL_BATCH``, the columns left are one slab
and the walk stops; cached columns are still read one at a time. So a
stage with a high k probes its few survivors in a few calls instead of
one per column. On a 10k batch of the benchmark's query workload (seed
41: 2500 keys and 7500 fresh non-keys) ``lbf``'s backup, k = 34 at
tau = 0.5 with 333 of the keys below tau, took 17 kernel calls and 0.39
ms, and 6 calls and 0.21 ms by this rule; the five filters took 44 calls
and 20 (2-core Xeon, numpy 2.4, best of 7 x 50). The tuners' sweep
reads cached columns and probes many items per column, and its time did
not move.

An uncached batch may give each item its own hash count, and a range and
bit offset together, with which ``GatedBloom`` probes all its disjoint
stages in one call (see ``standard``). The walkers' positions then start in
the order of a radix sort of the counts, longest first, as 8- or 16-bit
keys; their counts, ranges and offsets are taken into that order once and
cut or taken together with them at every drop, while the pairs are gathered
at the positions by the first uncached column. The walkers past their count
at a column are a suffix of them, those whose own counts are at most the
column, and are marked as hits at their positions, in item order, so no
answer is unsorted; an item with count 0 leaves before the first column,
and only a column at which the last walker's count ends looks for the cut.
A fixed k is the same loop with one count for every walker. A range per
item is reduced with ``%``, a hardware division per index (libdivide needs
one divisor), and the offset is added after it, so probe i of item j tests
bit ``offset_j + (a_j + i*b_j) mod r_j`` of the stages' arrays laid end to
end.
"""

from __future__ import annotations

import mmap
from numbers import Real
from operator import index
from typing import Iterable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "BitVector",
    "CACHED_COLUMNS",
    "HashFamily",
    "PAIR_LANES",
    "ProbeCache",
    "ProbeRows",
    "splitmix64",
]

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# _avalanche's shift and multipliers and the FNV prime as numpy scalars: numpy
# 1.x cannot apply a Python int to a uint64 array in place
_SHIFT = np.uint64(33)
_FMIX_A = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_B = np.uint64(0xC4CEB9FE1A85EC53)
_PRIME = np.uint64(_FNV_PRIME)

# Items per numpy pass of base_pairs. Each pass allocates index and state
# arrays of 8 to 16 bytes per item and a copy of the chunk's id bytes.
# On the benchmark's build workload (batches of 100k-200k 8-byte ids) the
# peak RSS was 142 MB with the per-item loop, 144 MB with this chunk size,
# 152 MB with 32k items and 208 MB unchunked; 4k to 32k ran equally fast.
_HASH_CHUNK = 1 << 13
# A numpy step costs 5-10 us however few rows it covers, the Python loop
# 0.3-0.5 us per byte and row (both salts): they break even near 20 rows.
_SCALAR_TAIL_ROWS = 16
# Joins the ASCII ids of a chunk, so that their ends are found in the bytes.
_SEPARATOR = "\x00"
_SLAB = 1 << 16  # probes per slab: 512 KiB per uint64 temporary, whatever k and n
# A probe batch of at most this many probes (n * k) is tested as one slab.
_SMALL_BATCH = 1 << 14
# Probe columns a ProbeCache holds: a filter at the optimal k is about half
# full, so 0.5 ** 12 of non-keys reach column 13; the default ada ladder
# tops out at k = 12.
CACHED_COLUMNS = 12
# Hash lanes whose final pairs a ProbeCache builds for all its items at once:
# lane 0 (every stage but the ones below) and lane 1 (the sandwiched initial
# filter, disjoint's group 1). Higher lanes hold the rows asked for so far.
PAIR_LANES = 2


def splitmix64(x: int) -> int:
    """One splitmix64 step; doubles as a cheap 64-bit mixer for seed derivation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _avalanche(h: int) -> int:
    # murmur3 fmix64: FNV alone has weak avalanche in the low bits
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    return h ^ (h >> 33)


def _avalanche_array(h: np.ndarray) -> np.ndarray:
    """``_avalanche`` of every element of a ``uint64`` array, in place; returns it."""
    t = h >> _SHIFT
    h ^= t
    h *= _FMIX_A
    np.right_shift(h, _SHIFT, out=t)
    h ^= t
    h *= _FMIX_B
    np.right_shift(h, _SHIFT, out=t)
    h ^= t
    return h


def _base_hash(data: bytes, salt: int) -> int:
    h = (_FNV_OFFSET ^ salt) & _MASK64
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return _avalanche(h)


def _fnv1a_columns(state: np.ndarray, buf: bytes, starts: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Run FNV-1a over the ids of a chunk under both salts, in ``state``.

    ``state`` is ``(2, n)``, each row its salt's offset basis; the finalizer
    is left to the caller. Id j is ``buf[starts[j]:starts[j] + lengths[j]]``.
    The states end in the order longest id first, and that order is
    returned, as indices into ``lengths``.
    """
    n = len(lengths)
    order = np.argsort(-lengths, kind="stable")
    pos = starts[order]
    # longer[j]: how many ids are longer than j bytes, i.e. the active prefix
    longer = (n - np.cumsum(np.bincount(lengths))).tolist()
    data = np.frombuffer(buf, dtype=np.uint8)
    for j, rows in enumerate(longer[:-1]):
        if rows <= _SCALAR_TAIL_ROWS:
            # the loop of _base_hash, resumed at byte j, both salts per byte
            tail_a, tail_b = state[:, :rows].tolist()
            spans = zip(pos[:rows].tolist(), (starts + lengths)[order[:rows]].tolist())
            for row, (start, stop) in enumerate(spans):
                ha, hb = tail_a[row], tail_b[row]
                for byte in buf[start:stop]:
                    ha = ((ha ^ byte) * _FNV_PRIME) & _MASK64
                    hb = ((hb ^ byte) * _FNV_PRIME) & _MASK64
                tail_a[row], tail_b[row] = ha, hb
            state[:, :rows] = (tail_a, tail_b)
            break
        active = state[:, :rows]
        active ^= data[pos[:rows]]
        active *= _PRIME
        pos[:rows] += 1
    return order


def _item_bytes(item: bytes | str) -> bytes:
    if isinstance(item, bytes):
        return item
    if isinstance(item, str):
        return item.encode("utf-8")
    if isinstance(item, (bytearray, memoryview)):
        return bytes(item)
    raise TypeError(f"items must be bytes or str, got {type(item).__name__}")


def _chunk_bytes(chunk: list) -> tuple:
    """The ids of a chunk as one buffer: ``(buf, starts, lengths)``, the start
    and byte length of each id in ``buf``, or ``(rows, None, None)``.

    ``rows`` is given for more than ``_SCALAR_TAIL_ROWS`` ids of one byte
    length L (fewer finish in the Python loop): the ``(n, L)`` matrix of
    their bytes, a strided view of the buffer. A chunk of ``str`` ids whose
    joined text is ASCII and holds no NUL but the separators is joined with
    a NUL between ids and encoded once. Its ids have one length L if the
    text is n * (L + 1) - 1 bytes long and every (L + 1)-th byte is a NUL:
    those are then all n - 1 NULs. Otherwise one compare of the bytes with
    0 finds where the ids end. Any other chunk is converted id by id and
    joined without separators.
    """
    n = len(chunk)
    try:
        text = _SEPARATOR.join(chunk)
    except TypeError:  # an id that is not a str
        text = None
    if text is not None and text.isascii() and text.count(_SEPARATOR) == n - 1:
        buf = text.encode("ascii")
        width = len(chunk[0]) + 1  # an id and its separator
        if (n > _SCALAR_TAIL_ROWS and len(buf) == n * width - 1
                and not np.ndarray(n - 1, np.uint8, buf, width - 1, (width,)).any()):
            return np.ndarray((n, width - 1), np.uint8, buf, 0, (width, 1)), None, None
        cuts = np.flatnonzero(np.frombuffer(buf, dtype=np.uint8) == 0)
        starts = np.concatenate(([0], cuts + 1))
        return buf, starts, np.append(cuts, len(buf)) - starts
    data = [_item_bytes(item) for item in chunk]
    lengths = np.fromiter(map(len, data), dtype=np.intp, count=n)
    buf = b"".join(data)
    if n > _SCALAR_TAIL_ROWS and (lengths == lengths[0]).all():
        return np.ndarray((n, len(data[0])), np.uint8, buf), None, None
    return buf, np.cumsum(lengths) - lengths, lengths


class HashFamily:
    """Indexed hash family h_i(x) = (h_a(x) + i*h_b(x)) mod R over byte strings.

    ``lane`` derives an independent-looking family from the same master
    seed by remixing the base hashes: one avalanche of each base hash, so
    per-item base hashes are computed once and remixed per lane. The
    disjoint filter gives each group its own lane and the sandwiched
    filter its initial filter lane 1. A ``ProbeCache`` keeps the remixed
    pairs of lanes 0 and 1 of all its items, and of each other lane those
    of the items asked for so far.
    """

    __slots__ = ("seed", "lane", "_salt_a", "_salt_b", "_lane_a", "_lane_b")

    def __init__(self, seed: int, lane: int = 0):
        if not is_integer(seed):  # any integer, kept mod 2**64: only the count rule's first step
            raise ValueError(f"seed must be an integer, got {_shown(seed)}")
        self.seed = index(seed) & _MASK64  # a Python int: a numpy seed would overflow or wrap
        self.lane = _check_count("lane", lane, 0)
        self._salt_a = splitmix64(self.seed ^ 0x243F6A8885A308D3)
        self._salt_b = splitmix64(self.seed ^ 0x13198A2E03707344)
        if self.lane:
            base = splitmix64(self.seed ^ ((self.lane * 0xA24BAED4963EE407) & _MASK64))
            self._lane_a = base
            self._lane_b = splitmix64(base)
        else:
            self._lane_a = 0
            self._lane_b = 0

    def base_pair(self, item: bytes | str) -> tuple[int, int]:
        """Lane-independent base hashes of one item."""
        data = _item_bytes(item)
        return _base_hash(data, self._salt_a), _base_hash(data, self._salt_b)

    def base_pairs(self, items: Iterable[bytes | str]) -> tuple[np.ndarray, np.ndarray]:
        """Base hashes for a batch of items, as two uint64 arrays.

        Equal, item by item, to :meth:`base_pair`, computed column-wise in
        chunks of ``_HASH_CHUNK`` items, each hashed from one buffer of its
        ids' bytes: a chunk of ASCII ``str`` ids is joined and encoded once,
        any other is converted id by id, and the ids of a chunk of one byte
        length are hashed as the rows of a byte matrix (see the module
        docstring). Raises TypeError on an item that is not bytes,
        bytearray, memoryview or str.
        """
        items = list(items)
        out = np.empty((2, len(items)), dtype=np.uint64)
        basis = np.array([[_FNV_OFFSET ^ self._salt_a], [_FNV_OFFSET ^ self._salt_b]],
                         dtype=np.uint64)
        for lo in range(0, len(items), _HASH_CHUNK):
            chunk = items[lo:lo + _HASH_CHUNK]
            buf, starts, lengths = _chunk_bytes(chunk)
            if starts is None:  # ids of one length: hashed in item order, in place
                state = out[:, lo:lo + len(chunk)]
                state[...] = basis
                for column in buf.T:  # byte j of every id, a strided view
                    state ^= column
                    state *= _PRIME
                _avalanche_array(state)
            else:
                state = np.empty((2, len(chunk)), dtype=np.uint64)
                state[...] = basis
                order = _fnv1a_columns(state, buf, starts, lengths) + lo
                out[0, order], out[1, order] = _avalanche_array(state)
        return out[0], out[1]

    def pair(self, item: bytes | str) -> tuple[int, int]:
        """Final (h_a, h_b) for this lane; h_b is forced odd."""
        a, b = self.base_pair(item)
        if self.lane:
            a = _avalanche(a ^ self._lane_a)
            b = _avalanche(b ^ self._lane_b)
        return a, b | 1

    def remix_pairs(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Turn base-hash arrays into this lane's (h_a, h_b) arrays."""
        if self.lane:
            a = _avalanche_array(a ^ np.uint64(self._lane_a))
            b = _avalanche_array(b ^ np.uint64(self._lane_b))
        return a, b | np.uint64(1)

    @staticmethod
    def lane_salts(families) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Per family, its two lane salts and whether it is on lane 0 (None if
        none is), as arrays for :meth:`remix_each`; make them once per plan."""
        salt_a = np.array([f._lane_a for f in families], dtype=np.uint64)
        salt_b = np.array([f._lane_b for f in families], dtype=np.uint64)
        lane0 = None if all(f.lane for f in families) else np.array([not f.lane for f in families])
        return salt_a, salt_b, lane0

    @staticmethod
    def remix_each(salts, which: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`remix_pairs` item by item, item j on the lane of family
        ``which[j]`` of ``salts`` (see :meth:`lane_salts`), in one pass over the batch."""
        salt_a, salt_b, lane0 = salts
        mixed_a = _avalanche_array(a ^ salt_a.take(which))
        mixed_b = _avalanche_array(b ^ salt_b.take(which))
        if lane0 is not None:  # lane 0 keeps the base pair
            lane0 = lane0.take(which)
            mixed_a, mixed_b = np.where(lane0, a, mixed_a), np.where(lane0, b, mixed_b)
        return mixed_a, mixed_b | np.uint64(1)

    def indices(self, item: bytes | str, k: int, r: int) -> list[int]:
        """First k member hashes of ``item`` reduced to [0, r)."""
        return list(self.iter_indices(item, k, r))

    def iter_indices(self, item: bytes | str, k: int, r: int) -> Iterator[int]:
        """:meth:`indices` one at a time, so a probe can stop at its first miss
        whatever k a loaded container holds."""
        r = _check_count("hash range r", r, 1)
        k = _check_count("hash count k", k, 0)
        a, b = self.pair(item)
        return (((a + i * b) & _MASK64) % r for i in range(k))


def _probes(a: np.ndarray, b: np.ndarray, first: int, stop: int, r,
            offsets=None) -> np.ndarray:
    """Probes ``first``..``stop - 1`` of the items with final pairs (a, b), as a
    ``(stop - first, n)`` ``intp`` array of bit indices ``offsets + (a + i*b) mod r``.

    The sums wrap at 64 bits. r is a ``uint64`` scalar, or, together with
    ``offsets``, one ``uint64`` range per item, reduced with ``%``. Probe 0
    alone is a reduction of ``a``, with no product: a walk that keeps the
    running sum a + i*b asks so for probe i.
    """
    idx = (a[None] if (first, stop) == (0, 1)
           else a + b * np.arange(first, stop, dtype=np.uint64)[:, None])
    if r.ndim:
        return (idx % r + offsets).view(np.intp)
    out = idx // r
    out *= r
    return np.subtract(idx, out, out=out).view(np.intp)


def is_integer(value) -> bool:
    """Whether ``operator.index`` takes ``value``: a Python or numpy integer, not a float."""
    try:
        index(value)
    except TypeError:
        return False
    return True


def _shown(value):
    """``value`` as a refusal names it: a real number as itself, anything else by ``repr``."""
    return value if isinstance(value, Real) else repr(value)


def _check_count(name: str, value, least: int) -> int:
    """``value`` as an int; ValueError unless it is an integer (``is_integer``) >= ``least``.

    The one check of every integer parameter: bit counts and budgets, hash
    counts k, ranges r, key counts n, group counts g, the ends of a
    hash-count ladder, hash lanes and item counts. A fractional count is
    refused, not truncated: the paper's bounds hold for integer g and K only,
    and no integer shares sum to a fractional budget, so ``allocate_disjoint``
    would never place its remainder.
    """
    if not is_integer(value):
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return index(value)


class BitVector:
    """Fixed-length bit array, one ``bool`` byte per bit; insert-only and freezable.

    A vector of R bits takes R bytes in memory, so that inserts scatter and
    probes gather bits directly, and R / 8 bytes on disk: :meth:`to_bytes`
    packs bit i into byte i // 8 at position i % 8 (LSB first), the layout
    of the serialization container, and :meth:`from_bytes` unpacks it.
    After :meth:`freeze` the vector is immutable and safe for concurrent
    readers.
    """

    __slots__ = ("_nbits", "_bits", "_frozen")

    def __init__(self, length_bits: int):
        self._nbits = _check_count("bit vector length", length_bits, 1)
        self._bits = np.zeros(self._nbits, dtype=bool)
        self._frozen = False

    @classmethod
    def _of(cls, bits: np.ndarray) -> "BitVector":
        """A frozen vector over ``bits``, a non-empty ``bool`` array, which it keeps."""
        bv = cls.__new__(cls)
        bv._nbits, bv._bits, bv._frozen = len(bits), bits, True
        return bv

    @classmethod
    def joined(cls, vectors: Iterable["BitVector"]) -> "BitVector":
        """The vectors' bits laid end to end in one frozen vector: bit i of a
        vector is bit i plus the lengths of the vectors before it."""
        return cls._of(np.concatenate([v._bits for v in vectors]))

    @property
    def length_bits(self) -> int:
        return self._nbits

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "BitVector":
        self._frozen = True
        return self

    def _writable(self) -> None:
        if self._frozen:
            raise RuntimeError("cannot set bits on a frozen BitVector")

    def set_bits(self, indices: Iterable[int]) -> None:
        self._writable()
        bits, nbits = self._bits, self._nbits
        for idx in indices:
            if not 0 <= idx < nbits:
                raise IndexError(f"bit index {idx} out of range for {nbits}-bit vector")
            bits[idx] = True

    def test_bits(self, indices: Iterable[int]) -> bool:
        """True iff every listed bit is set; vacuously true for no indices."""
        bits, nbits = self._bits, self._nbits
        for idx in indices:
            if not 0 <= idx < nbits:
                raise IndexError(f"bit index {idx} out of range for {nbits}-bit vector")
            if not bits[idx]:
                return False
        return True

    def set_hashed(self, a: np.ndarray, b: np.ndarray, k: int, *, cached=None) -> None:
        """Set the first k double-hashing positions for a batch of items.

        Scatters them into the bits in slabs of ``_SLAB // n`` columns (at
        least one), so repeated calls accumulate. ``cached`` is ``(columns,
        rows)`` from :meth:`ProbeRows.cached`: the first ``len(columns)``
        probes are read from the ``int32`` matrix instead, in slabs of the
        same width cast to ``intp``, since numpy scatters ``int32`` indices
        about 1.5x slower than the cast and the ``intp`` scatter together.
        """
        self._writable()
        k = _check_count("hash count k", k, 0)
        if k == 0 or len(a) == 0:
            return
        r = np.uint64(self._nbits)
        bits = self._bits
        width = max(1, _SLAB // len(a))
        start = 0
        if cached is not None:
            columns, rows = cached
            start = min(k, len(columns))
            for i in range(0, start, width):
                bits[columns[i:min(start, i + width), rows].astype(np.intp)] = True
        for i in range(start, k, width):
            bits[_probes(a, b, i, min(k, i + width), r)] = True

    def test_hashed(self, a: np.ndarray, b: np.ndarray, k: int, *, cached=None,
                    counts=None, ranges=None, offsets=None) -> np.ndarray:
        """Boolean array: are all of the first k positions set, per item.

        An uncached batch may give each item its own geometry: ``counts`` its
        hash count (at most k; 0 passes the item), and, given together,
        ``ranges`` its range r_j and ``offsets`` the bit where that range
        starts (both ``uint64``), so that probe i of item j tests bit
        ``offsets[j] + (a_j + i*b_j) mod r_j``. ``GatedBloom`` probes its
        stages with disjoint intervals so, in one call.

        A batch of at most ``_SMALL_BATCH`` probes (n * k) is tested as one
        slab. A larger one walks the first ``CACHED_COLUMNS`` columns one at a
        time over the items that are still all hits: from ``cached``, as in
        :meth:`set_hashed`, or else from the running sum a + i*b; the
        columns past the walk are probed in slabs of 1, 2, 4, ... columns
        (at most ``_SLAB`` probes each). At a column computed from the pairs,
        once the walkers' remaining probes (their number times the largest
        count left) fit ``_SMALL_BATCH``, the rest is one slab. The walkers
        are kept as their positions (None until the first miss) and,
        uncached, their running sums and strides, or, cached with index rows,
        their rows; a range of rows reads the matrix cut to the range, at the
        positions. With ``counts`` the positions start sorted longest count
        first, and the walkers' counts, ranges and offsets are kept in their
        order, so the walkers a column takes past their count are a suffix of
        them, written as hits at their positions.
        """
        k = _check_count("hash count k", k, 0)
        if cached is not None and not (counts is None and ranges is None and offsets is None):
            raise ValueError("per-item counts, ranges and offsets need an uncached batch")
        if (ranges is None) != (offsets is None):
            raise ValueError("per-item ranges and offsets are given together")
        n = len(a)
        r = np.uint64(self._nbits) if ranges is None else ranges
        if n * k <= _SMALL_BATCH:
            hit = self._bits.take(_probes(a, b, 0, k, r, offsets))
            if counts is not None:
                hit |= np.arange(k)[:, None] >= counts  # the columns past an item's count
            return hit.all(axis=0)
        res = np.zeros(n, dtype=bool)  # the items that passed their count
        alive = None  # positions of the walkers; None: the first m items
        if counts is not None:
            # a radix sort, longest count first: the keys fit 8 or 16 bits unless k is huge
            alive = np.argsort((k - counts).astype(np.min_scalar_type(k)), kind="stable")
            counts = counts.take(alive)
            if r.ndim:
                r, offsets = r.take(alive), offsets.take(alive)
        m, i, width = n, 0, 1
        h = rows = None  # uncached: the walkers' running sum a + i*b at column hcol
        if cached is not None:
            columns, rows = cached
            if isinstance(rows, slice):  # then a position indexes its own columns
                columns, rows = columns[:, rows], None
        while m:
            if (k if counts is None else counts[m - 1]) <= i:  # the last walker's count is least
                # the walkers past their count, a suffix, hit every column of it
                live = 0 if counts is None else m - int(np.searchsorted(counts[::-1], i, "right"))
                res[slice(live, m) if alive is None else alive[live:]] = True
                if not live:
                    break
                m, alive, counts = live, alive[:live], counts[:live]
                if h is not None:
                    h, step = h[:m], step[:m]
                if r.ndim:
                    r, offsets = r[:m], offsets[:m]
            w = 1
            if cached is None or i >= CACHED_COLUMNS:  # a column computed from the pairs
                rest = (k if counts is None else int(counts[0])) - i  # the longest walker's
                if m * rest <= _SMALL_BATCH:  # few enough probes left: finish in one slab
                    w = rest
                elif i >= CACHED_COLUMNS:
                    w = min(width, k - i, max(1, _SLAB // m))
                    width *= 2
            if cached is not None and i < CACHED_COLUMNS:
                at = alive if rows is None else rows
                hit = self._bits.take(columns[i] if at is None else columns[i].take(at))
            else:
                if h is None:  # the first column computed from the pairs
                    h, step = (a[:m], b[:m]) if alive is None else (a.take(alive), b.take(alive))
                    hcol = 0
                if hcol < i:  # wraps at 64 bits, as a + i*b does
                    h = h + step if i == hcol + 1 else h + step * np.uint64(i - hcol)
                    hcol = i
                # probe j of the pairs (h, step) is probe i + j of (a, b)
                hit = self._bits.take(_probes(h, step, 0, w, r, offsets))
                if counts is not None and w > 1:
                    hit |= np.arange(i, i + w)[:, None] >= counts
                hit = hit[0] if w == 1 else hit.all(axis=0)
            i += w
            kept = np.flatnonzero(hit)
            # a batch of keys hits everywhere: then there is nothing to drop
            if len(kept) < m:
                alive = kept if alive is None else alive.take(kept)
                m = len(kept)
                if h is not None:
                    h, step = h.take(kept), step.take(kept)
                if rows is not None:
                    rows = rows.take(kept)
                if r.ndim:
                    r, offsets = r.take(kept), offsets.take(kept)
                if counts is not None:
                    counts = counts.take(kept)
        return res

    def popcount(self) -> int:
        return int(np.count_nonzero(self._bits))

    def to_bytes(self) -> bytes:
        """The bits packed, LSB first: (R + 7) // 8 bytes, the padding bits 0."""
        return np.packbits(self._bits, bitorder="little").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, length_bits: int) -> "BitVector":
        """The frozen vector :meth:`to_bytes` packed; ValueError on a wrong length or a
        set padding bit past ``length_bits``."""
        expected = (_check_count("bit vector length", length_bits, 1) + 7) // 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for {length_bits} bits, got {len(data)}")
        if data[-1] >> (length_bits % 8 or 8):
            raise ValueError(f"bits set past the end of a {length_bits}-bit array")
        packed = np.frombuffer(data, dtype=np.uint8)
        bits = np.unpackbits(packed, count=length_bits, bitorder="little").view(bool)
        return cls._of(bits)

    def __repr__(self) -> str:
        return f"BitVector({self._nbits} bits, {self.popcount()} set)"


class ProbeCache:
    """Hash work on a fixed list of items, shared by the filters built on it.

    ``pairs(seed)`` gives the items' base-hash arrays. The cache holds:

    - the final pairs ``(h_a, h_b | 1)`` of lanes 0 and 1 (``PAIR_LANES``),
      each built once per seed on first use: lane 0 shares h_a with the base
      pairs and adds ``h_b | 1``, lane 1 adds both remixed arrays, so the two
      cost 24 bytes per item;
    - per lane from 2 up, a window of the final pairs under one seed: a
      ``(2, n)`` ``uint64`` array over an anonymous memory map, zero until a
      row is asked for and remixed. A stride ``h_b | 1`` is odd, so a zero
      one marks a row not remixed yet. The pages of a window take memory
      only once written, so it costs 16 bytes per row served;
    - at most one ``int32`` matrix, ``columns[i, j] = (a_j + i * b_j) mod r``
      for one geometry (seed, lane, r): :meth:`columns` builds it the second
      time in a row the same geometry is asked for, replacing the last one,
      so a geometry asked for once costs nothing. Every reader asks so, the
      tau counter too, which asks once per probe column it reads (see
      :meth:`ProbeRows.probe`). There is no matrix for r >= 2**31.

    A new seed replaces a lane's pairs or window, so each lane holds one.
    """

    __slots__ = ("_pairs", "_lanes", "_asked", "_built", "_columns")

    def __init__(self, pairs):
        self._pairs = pairs
        self._lanes: dict[int, tuple] = {}  # lane -> (seed, h_a, h_b)
        self._asked = self._built = self._columns = None

    def pairs(self, family: HashFamily, rows) -> tuple[np.ndarray, np.ndarray]:
        """Final pairs of the items at ``rows`` (a slice or an integer index
        array) for this family: the held arrays at ``rows``, after remixing
        the rows of a lane's window that no stage asked for before."""
        held = self._lanes.get(family.lane)
        if held is None or held[0] != family.seed:
            base = self._pairs(family.seed)
            if family.lane < PAIR_LANES:
                held = (family.seed, *family.remix_pairs(*base))
            else:
                held = (family.seed, *_zeroed(len(base[0])))
            self._lanes[family.lane] = held
        a, b = held[1], held[2]
        strides = b[rows]
        if family.lane >= PAIR_LANES and not strides.all():
            new = np.flatnonzero(strides == 0)
            if isinstance(rows, slice):
                start, _, step = rows.indices(len(b))
                at = start + step * new
            else:
                at = rows.take(new)
            base_a, base_b = self._pairs(family.seed)
            a[at], b[at] = family.remix_pairs(base_a.take(at), base_b.take(at))
            strides = b[rows]
        return a[rows], strides

    def columns(self, family: HashFamily, r: int) -> np.ndarray | None:
        """The matrix for this family's seed and lane at range r, or None."""
        geometry = (family.seed, family.lane, r)
        repeated, self._asked = geometry == self._asked, geometry
        if repeated and geometry != self._built and r < 1 << 31:
            self._columns = self._built = None  # the old matrix goes first
            a, b = self.pairs(family, slice(None))
            columns = np.empty((CACHED_COLUMNS, len(a)), dtype=np.int32)
            width = max(1, _SLAB // max(1, len(a)))
            for i in range(0, CACHED_COLUMNS, width):
                stop = min(CACHED_COLUMNS, i + width)
                columns[i:stop] = _probes(a, b, i, stop, np.uint64(r))
            self._columns, self._built = columns, geometry
        return self._columns if geometry == self._built else None


def _zeroed(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two zero ``uint64`` arrays of length n over one anonymous memory map,
    whose pages take memory only once written."""
    buf = mmap.mmap(-1, max(1, 16 * n))
    window = np.frombuffer(buf, dtype=np.uint64, count=2 * n).reshape(2, n)
    return window[0], window[1]


class ProbeRows(NamedTuple):
    """A batch's rows in a :class:`ProbeCache`: a slice or an index array.

    A batch that comes with rows is in ascending score order: it is one
    side of a score-ordered view, or an order-keeping subset of one (a
    score range, the survivors within a range). The
    stage loops of ``standard`` rely on it to pick a score range by
    ``searchsorted``. Its hashes are the cache's items' hashes at ``rows``,
    under the seed of the family that reads them.
    """

    cache: ProbeCache
    rows: slice | np.ndarray

    def select(self, sel: slice | np.ndarray) -> "ProbeRows":
        """The rows of the batch items ``sel`` picks: a slice of positions (which
        keeps a slice of rows) or an index array of positions."""
        rows = self.rows
        if isinstance(rows, slice):
            if isinstance(sel, slice):
                return ProbeRows(self.cache, slice(rows.start + sel.start, rows.start + sel.stop))
            return ProbeRows(self.cache, rows.start + sel)  # offset: no range of the batch's length
        return ProbeRows(self.cache, rows[sel])

    def pairs(self, family: HashFamily) -> tuple[np.ndarray, np.ndarray]:
        """The batch's final pairs for this family (see :meth:`ProbeCache.pairs`)."""
        return self.cache.pairs(family, self.rows)

    def probe(self, family: HashFamily, i: int, r: int) -> np.ndarray:
        """Probe i of the batch's items for this family on range r, as bit
        indices: the cache's column (see :meth:`ProbeCache.columns`) if it
        holds one, else the kernel's, from the batch's final pairs."""
        columns = self.cache.columns(family, r) if i < CACHED_COLUMNS else None
        if columns is None:
            return _probes(*self.pairs(family), i, i + 1, np.uint64(r))[0]
        rows = self.rows
        return columns[i, rows] if isinstance(rows, slice) else columns[i].take(rows)

    def cached(self, family: HashFamily, r: int):
        """``cached`` for ``set_hashed`` / ``test_hashed``, or None on a miss."""
        columns = self.cache.columns(family, r)
        return None if columns is None else (columns, self.rows)
