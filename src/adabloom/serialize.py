"""Binary container for built filters.

Layout (all integers little-endian, floats IEEE-754 binary64 LE):

    magic   4 bytes  "ADBF"
    version u16      currently 1
    kind    u8       0x01 standard, 0x02 learned, 0x03 sandwiched,
                     0x04 adaptive, 0x05 disjoint
    body             kind-specific parameter block, then the packed
                     bit array(s); bit i of a vector lives at byte
                     i // 8, bit position i % 8 (LSB first), and the
                     padding bits past the vector's length are 0

Nothing follows the last block.

The layout functions below (``_plain``, ``_lbf``, ``_sandwich``,
``_ada``, ``_disjoint``, and the ``_standard`` and ``_partition`` steps
they share) are the specification of each kind's body. Each states its
fields once, in order: given a filter it writes them, given none it
reads them and builds the filter. A None float is stored as NaN.

The learned kinds store their thresholds, allocations and realized
group counts so a loaded filter answers queries and reports the same
analytics as the one that was saved. Version 1 does not store
``SandwichedBloom.fallback_reason``: a loaded sandwich reports None.
"""

from __future__ import annotations

import struct
from io import BytesIO

from .adaptive import AdaptiveBloom, AdaptiveParams
from .bits import BitVector, HashFamily
from .disjoint import DisjointBloom, DisjointParams
from .learned import LearnedBloom, SandwichedBloom
from .scores import ScorePartition
from .standard import StandardBloom

__all__ = ["save_filter", "load_filter", "dump_filter", "loads_filter", "FormatError"]

MAGIC = b"ADBF"
VERSION = 1


class FormatError(ValueError):
    """The byte stream is not a valid filter container."""


class _Codec(BytesIO):
    """A container's byte stream: each step writes the values it is given, or reads them."""

    max_bits: int | None = None  # the most bits that a read's arrays may hold in all; None: any
    bits_read = 0

    def fields(self, fmt: str, values: tuple | None = None) -> tuple:
        """Pack ``values`` as the struct ``fmt``, or with None unpack and return the next ones."""
        if values is not None:
            self.write(struct.pack("<" + fmt, *values))
            return values
        size = struct.calcsize("<" + fmt)
        data = self.read(size)
        if len(data) != size:
            raise FormatError("truncated filter container")
        return struct.unpack("<" + fmt, data)

    def bits(self, r: int, vector: BitVector | None = None) -> BitVector:
        """Write ``vector``, or with None read a frozen r-bit vector whose padding bits are 0."""
        if vector is not None:
            self.write(vector.to_bytes())
            return vector
        if self.max_bits is not None and self.bits_read + r > self.max_bits:
            raise FormatError(f"bit arrays of more than max_bits = {self.max_bits} bits")
        self.bits_read += r
        nbytes = (r + 7) // 8
        data = self.read(nbytes)
        if len(data) != nbytes:
            raise FormatError("truncated bit array")
        try:  # a length below 1 or a set padding bit
            return BitVector.from_bytes(data, r)
        except ValueError as exc:
            raise FormatError(str(exc)) from None


def _opt_float(x: float | None) -> float:
    return float("nan") if x is None else float(x)


def _from_opt(x: float) -> float | None:
    return None if x != x else x


# Every layout takes the codec and the filter to write, or None to read one.
# A filter or partition is always truthy, so ``f and ...`` is None when reading.

def _standard(io: _Codec, seed: int, bloom: StandardBloom | None = None) -> StandardBloom:
    """Standard sub-block: r u64 | k u32 | n u64 | lane u32 | bits."""
    r, k, n, lane = io.fields("QIQI", bloom and (bloom.size_bits, bloom.k, bloom.n_inserted,
                                                 bloom.family.lane))
    bits = io.bits(r, bloom and bloom.bits)
    return bloom or StandardBloom(bits, k, HashFamily(seed, lane), n)


def _partition(io: _Codec, p: ScorePartition | None = None) -> ScorePartition:
    """g u32 | thresholds (g + 1) f64 | keys per group g u64 | non-keys per group g u64."""
    (g,) = io.fields("I", p and (p.g,))
    thresholds = io.fields(f"{g + 1}d", p and p.thresholds)
    n_per_group = io.fields(f"{g}Q", p and p.n_per_group)
    m_per_group = io.fields(f"{g}Q", p and p.m_per_group)
    return p or ScorePartition(thresholds, n_per_group, m_per_group)


def _plain(io: _Codec, f: StandardBloom | None = None) -> StandardBloom:
    """seed u64 | standard sub-block."""
    (seed,) = io.fields("Q", f and (f.seed,))
    return _standard(io, seed, f)


def _lbf(io: _Codec, f: LearnedBloom | None = None) -> LearnedBloom:
    """seed u64 | model bits u64 | bitmap bits u64 | tau f64 | f_p f64 | backup sub-block."""
    seed, model_bits, bitmap_bits, tau, fp = io.fields("QQQdd", f and (
        f.seed, f.model_bits, f.bitmap_bits, f.tau, _opt_float(f.fp_above)))
    backup = _standard(io, seed, f and f.backup)
    return f or LearnedBloom(tau, backup, bitmap_bits, model_bits, _from_opt(fp))


def _sandwich(io: _Codec, f: SandwichedBloom | None = None) -> SandwichedBloom:
    """seed, model bits, bitmap bits u64 | tau f64 | b1, b2 u64 | f_p, f_n f64 |
    has initial u8 | initial sub-block if it has one | backup sub-block."""
    seed, model_bits, bitmap_bits, tau, b1, b2, fp, fn, has_initial = io.fields(
        "QQQdQQddB", f and (f.seed, f.model_bits, f.bitmap_bits, f.tau, f.b1_bits, f.b2_bits,
                            _opt_float(f.fp_above), _opt_float(f.fn_below),
                            f.initial is not None))
    if has_initial > 1:
        raise FormatError(f"has-initial byte must be 0 or 1, got {has_initial}")
    initial = _standard(io, seed, f and f.initial) if has_initial else None
    backup = _standard(io, seed, f and f.backup)
    return f or SandwichedBloom(tau, initial, backup, bitmap_bits, b1, b2, model_bits,
                                _from_opt(fp), _from_opt(fn))


def _ada(io: _Codec, f: AdaptiveBloom | None = None) -> AdaptiveBloom:
    """seed, model bits, r u64 | c f64 | partition | k per group g u32 | bits."""
    seed, model_bits, r, c = io.fields("QQQd", f and (f.seed, f.model_bits, f.bitmap_bits,
                                                      _opt_float(f.params.c)))
    partition = _partition(io, f and f.params.partition)
    k_per_group = io.fields(f"{partition.g}I", f and f.params.k_per_group)
    bits = io.bits(r, f and f.bits)
    return f or AdaptiveBloom(bits, AdaptiveParams(partition, k_per_group, _from_opt(c)),
                              HashFamily(seed), model_bits)


def _disjoint(io: _Codec, f: DisjointBloom | None = None) -> DisjointBloom:
    """seed, model bits u64 | c f64 | partition | r per group g u64 | k per group g u32 |
    then per group with r > 0: n u64 | bits (lane j + 1 for group j)."""
    seed, model_bits, c = io.fields("QQd", f and (f.seed, f.model_bits, f.params.c))
    partition = _partition(io, f and f.params.partition)
    r_per_group = io.fields(f"{partition.g}Q", f and f.params.r_per_group)
    k_per_group = io.fields(f"{partition.g}I", f and f.params.k_per_group)
    filters = []
    for j, (r, k) in enumerate(zip(r_per_group, k_per_group)):
        sub = f and f.filters[j]
        if r:
            (n,) = io.fields("Q", sub and (sub.n_inserted,))
            bits = io.bits(r, sub and sub.bits)
            sub = sub or StandardBloom(bits, k, HashFamily(seed, lane=j + 1), n)
        filters.append(sub)
    return f or DisjointBloom(tuple(filters), DisjointParams(partition, c, r_per_group,
                                                             k_per_group), seed, model_bits)


# class -> (kind byte, layout); dump_filter takes the first class in a filter's MRO
_LAYOUTS = {StandardBloom: (0x01, _plain), LearnedBloom: (0x02, _lbf),
            SandwichedBloom: (0x03, _sandwich), AdaptiveBloom: (0x04, _ada),
            DisjointBloom: (0x05, _disjoint)}
_BY_KIND = dict(_LAYOUTS.values())


def dump_filter(filt) -> bytes:
    """Serialize any built filter variant to bytes."""
    cls = next((c for c in type(filt).__mro__ if c in _LAYOUTS), None)
    if cls is None:
        raise TypeError(f"cannot serialize {type(filt).__name__}")
    kind, layout = _LAYOUTS[cls]
    io = _Codec()
    io.fields("4sHB", (MAGIC, VERSION, kind))
    layout(io, filt)
    return io.getvalue()


def loads_filter(data: bytes, max_bits: int | None = None):
    """Reconstruct a filter from ``dump_filter`` output.

    Raises :class:`FormatError` unless ``data`` is exactly one container.
    A loaded array holds one byte per bit, 8 times its container bytes, so
    a caller can bound the memory an untrusted container asks for:
    with ``max_bits``, a container whose bit arrays hold more bits than
    that in all (every ``disjoint`` group's array counts) is refused before
    the array that passes the bound is read. None sets no bound.
    """
    io = _Codec(data)
    io.max_bits = max_bits
    if io.read(4) != MAGIC:
        raise FormatError("bad magic; not a filter container")
    version, kind = io.fields("HB")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    if kind not in _BY_KIND:
        raise FormatError(f"unknown filter kind 0x{kind:02x}")
    try:
        filt = _BY_KIND[kind](io)
    except FormatError:
        raise
    except ValueError as exc:  # the parameters fail a constructor's checks
        raise FormatError(f"invalid filter parameters: {exc}") from exc
    if io.read(1):
        raise FormatError("trailing bytes after the last block")
    return filt


def save_filter(filt, path) -> None:
    """Write ``dump_filter(filt)`` to ``path``; a filter it refuses opens no file."""
    data = dump_filter(filt)
    with open(path, "wb") as fh:
        fh.write(data)


def load_filter(path, max_bits: int | None = None):
    """``loads_filter`` of the bytes of the file at ``path``."""
    with open(path, "rb") as fh:
        return loads_filter(fh.read(), max_bits)
