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

Standard sub-block (reused by the learned kinds):

    r u64 | k u32 | n u64 | lane u32 | bits ceil(r/8) bytes

The learned kinds store their thresholds, allocations and realized
group counts so a loaded filter answers queries and reports the same
analytics as the one that was saved.
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

KIND_STANDARD = 0x01
KIND_LBF = 0x02
KIND_SANDWICH = 0x03
KIND_ADA = 0x04
KIND_DISJOINT = 0x05


class FormatError(ValueError):
    """The byte stream is not a valid filter container."""


def _pack(fmt: str, *values) -> bytes:
    return struct.pack("<" + fmt, *values)


def _read(fh: BytesIO, fmt: str):
    size = struct.calcsize("<" + fmt)
    data = fh.read(size)
    if len(data) != size:
        raise FormatError("truncated filter container")
    return struct.unpack("<" + fmt, data)


def _opt_float(x: float | None) -> float:
    return float("nan") if x is None else float(x)


def _from_opt(x: float) -> float | None:
    return None if x != x else x


def _read_bits(fh: BytesIO, r: int) -> BitVector:
    """A frozen r-bit vector from the next ceil(r/8) bytes; padding bits must be 0."""
    if r < 1:
        raise FormatError(f"bit array length must be >= 1, got {r}")
    nbytes = (r + 7) // 8
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise FormatError("truncated bit array")
    if data[-1] >> (r % 8 or 8):
        raise FormatError(f"bits set past the end of a {r}-bit array")
    return BitVector.from_bytes(data, r)


def _write_standard_block(fh: BytesIO, bloom: StandardBloom) -> None:
    fh.write(_pack("QIQI", bloom.size_bits, bloom.k, bloom.n_inserted, bloom.family.lane))
    fh.write(bloom.bits.to_bytes())


def _read_standard_block(fh: BytesIO, seed: int) -> StandardBloom:
    r, k, n, lane = _read(fh, "QIQI")
    return StandardBloom(_read_bits(fh, r), k, HashFamily(seed, lane), n)


def _write_partition(fh: BytesIO, partition: ScorePartition) -> None:
    g = partition.g
    fh.write(_pack("I", g))
    fh.write(_pack(f"{g + 1}d", *partition.thresholds))
    fh.write(_pack(f"{g}Q", *partition.n_per_group))
    fh.write(_pack(f"{g}Q", *partition.m_per_group))


def _read_partition(fh: BytesIO) -> ScorePartition:
    (g,) = _read(fh, "I")
    thresholds = _read(fh, f"{g + 1}d")
    n_per_group = _read(fh, f"{g}Q")
    m_per_group = _read(fh, f"{g}Q")
    return ScorePartition(tuple(thresholds), tuple(n_per_group), tuple(m_per_group))


def dump_filter(filt) -> bytes:
    """Serialize any built filter variant to bytes."""
    fh = BytesIO()
    fh.write(MAGIC)
    if isinstance(filt, StandardBloom):
        fh.write(_pack("HB", VERSION, KIND_STANDARD))
        fh.write(_pack("Q", filt.family.seed))
        _write_standard_block(fh, filt)
    elif isinstance(filt, LearnedBloom):
        fh.write(_pack("HB", VERSION, KIND_LBF))
        fh.write(_pack("QQQdd", filt.backup.family.seed, filt.model_bits,
                       filt.bitmap_bits, filt.tau, _opt_float(filt.fp_above)))
        _write_standard_block(fh, filt.backup)
    elif isinstance(filt, SandwichedBloom):
        fh.write(_pack("HB", VERSION, KIND_SANDWICH))
        fh.write(_pack("QQQdQQddB", filt.backup.family.seed, filt.model_bits,
                       filt.bitmap_bits, filt.tau, filt.b1_bits, filt.b2_bits,
                       _opt_float(filt.fp_above), _opt_float(filt.fn_below),
                       1 if filt.initial is not None else 0))
        if filt.initial is not None:
            _write_standard_block(fh, filt.initial)
        _write_standard_block(fh, filt.backup)
    elif isinstance(filt, AdaptiveBloom):
        params = filt.params
        fh.write(_pack("HB", VERSION, KIND_ADA))
        fh.write(_pack("QQQd", filt.family.seed, filt.model_bits, filt.bitmap_bits,
                       _opt_float(params.c)))
        _write_partition(fh, params.partition)
        fh.write(_pack(f"{params.g}I", *params.k_per_group))
        fh.write(filt.bits.to_bytes())
    elif isinstance(filt, DisjointBloom):
        params = filt.params
        fh.write(_pack("HB", VERSION, KIND_DISJOINT))
        fh.write(_pack("QQd", filt.seed, filt.model_bits, params.c))
        _write_partition(fh, params.partition)
        fh.write(_pack(f"{params.g}Q", *params.r_per_group))
        fh.write(_pack(f"{params.g}I", *params.k_per_group))
        for sub in filt.filters:
            if sub is not None:
                fh.write(_pack("Q", sub.n_inserted))
                fh.write(sub.bits.to_bytes())
    else:
        raise TypeError(f"cannot serialize {type(filt).__name__}")
    return fh.getvalue()


def loads_filter(data: bytes):
    """Reconstruct a filter from ``dump_filter`` output.

    Raises :class:`FormatError` unless ``data`` is exactly one container.
    """
    fh = BytesIO(data)
    filt = _read_filter(fh)
    if fh.read(1):
        raise FormatError("trailing bytes after the last block")
    return filt


def _read_filter(fh: BytesIO):
    if fh.read(4) != MAGIC:
        raise FormatError("bad magic; not a filter container")
    version, kind = _read(fh, "HB")
    if version != VERSION:
        raise FormatError(f"unsupported container version {version}")
    try:
        return _read_kind(fh, kind)
    except FormatError:
        raise
    except ValueError as exc:  # the parameters fail a constructor's checks
        raise FormatError(f"invalid filter parameters: {exc}") from exc


def _read_kind(fh: BytesIO, kind: int):
    if kind == KIND_STANDARD:
        (seed,) = _read(fh, "Q")
        return _read_standard_block(fh, seed)
    if kind == KIND_LBF:
        seed, model_bits, bitmap_bits, tau, fp_above = _read(fh, "QQQdd")
        backup = _read_standard_block(fh, seed)
        return LearnedBloom(tau, backup, bitmap_bits, model_bits, _from_opt(fp_above))
    if kind == KIND_SANDWICH:
        seed, model_bits, bitmap_bits, tau, b1, b2, fp, fn, has_initial = _read(fh, "QQQdQQddB")
        initial = _read_standard_block(fh, seed) if has_initial else None
        backup = _read_standard_block(fh, seed)
        return SandwichedBloom(tau, initial, backup, bitmap_bits, b1, b2, model_bits,
                               _from_opt(fp), _from_opt(fn))
    if kind == KIND_ADA:
        seed, model_bits, r, c = _read(fh, "QQQd")
        partition = _read_partition(fh)
        k_per_group = _read(fh, f"{partition.g}I")
        params = AdaptiveParams(partition, tuple(k_per_group), _from_opt(c))
        return AdaptiveBloom(_read_bits(fh, r), params, HashFamily(seed), model_bits)
    if kind == KIND_DISJOINT:
        seed, model_bits, c = _read(fh, "QQd")
        partition = _read_partition(fh)
        g = partition.g
        r_per_group = _read(fh, f"{g}Q")
        k_per_group = _read(fh, f"{g}I")
        filters = []
        for i, r_i in enumerate(r_per_group):
            if r_i == 0:
                filters.append(None)
                continue
            (n_inserted,) = _read(fh, "Q")
            filters.append(StandardBloom(_read_bits(fh, r_i), k_per_group[i],
                                         HashFamily(seed, lane=i + 1), n_inserted))
        params = DisjointParams(partition, c, tuple(r_per_group), tuple(k_per_group))
        return DisjointBloom(tuple(filters), params, seed, model_bits)
    raise FormatError(f"unknown filter kind 0x{kind:02x}")


def save_filter(filt, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_filter(filt))


def load_filter(path):
    with open(path, "rb") as fh:
        return loads_filter(fh.read())
