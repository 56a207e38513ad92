import struct

import numpy as np
import pytest

from adabloom.adaptive import AdaptiveParams, build_ada
from adabloom.disjoint import build_disjoint
from adabloom.learned import build_lbf, build_sandwiched
from adabloom.scores import gen_synthetic, partition_by_ratio
from adabloom.serialize import FormatError, dump_filter, load_filter, loads_filter, save_filter
from adabloom.standard import build_standard


def probe_set(dataset, count=3000):
    rng = np.random.default_rng(99)
    probes = [(f"probe-{i}", float(s)) for i, s in enumerate(rng.uniform(0, 1, count))]
    probes += [(it.id, it.score) for it in dataset.items[::17]]
    return probes


def decisions(filt, probes, scored):
    if scored:
        return [filt.contains(item, score) for item, score in probes]
    return [filt.contains(item) for item, _ in probes]


@pytest.fixture(scope="module")
def built(synth_small):
    part = partition_by_ratio(synth_small, 5, 2.0)
    return {
        "standard": build_standard([it.id for it in synth_small.keys], 60_000, 5, seed=41),
        "lbf": build_lbf(synth_small, 60_000, 0.7, seed=42),
        "sandwich": build_sandwiched(synth_small, 120_000, 0.6, seed=43),
        "ada": build_ada(synth_small, 60_000,
                         AdaptiveParams.from_ratio(part, 4, 0, c=2.0), seed=44),
        "disjoint": build_disjoint(synth_small, 60_000, 5, 2.0, seed=45),
    }


@pytest.mark.parametrize("kind", ["standard", "lbf", "sandwich", "ada", "disjoint"])
def test_roundtrip_preserves_decisions(kind, built, synth_small):
    original = built[kind]
    restored = loads_filter(dump_filter(original))
    probes = probe_set(synth_small)
    scored = kind != "standard"
    assert decisions(restored, probes, scored) == decisions(original, probes, scored)


def test_roundtrip_preserves_analytics(built):
    for kind in ("ada", "disjoint", "lbf", "sandwich", "standard"):
        original = built[kind]
        restored = loads_filter(dump_filter(original))
        assert restored.expected_fpr() == pytest.approx(original.expected_fpr())


def test_file_roundtrip(tmp_path, built):
    path = tmp_path / "filter.adbf"
    save_filter(built["ada"], path)
    restored = load_filter(path)
    assert restored.params.k_per_group == built["ada"].params.k_per_group
    assert restored.bits.to_bytes() == built["ada"].bits.to_bytes()


def test_sandwich_roundtrip_keeps_allocation(built):
    restored = loads_filter(dump_filter(built["sandwich"]))
    assert restored.b1_bits == built["sandwich"].b1_bits
    assert restored.b2_bits == built["sandwich"].b2_bits
    assert (restored.initial is None) == (built["sandwich"].initial is None)


def test_header_layout(built):
    blob = dump_filter(built["standard"])
    assert blob[:4] == b"ADBF"
    assert blob[4:6] == (1).to_bytes(2, "little")
    assert blob[6] == 0x01


def test_kind_tags(built):
    tags = {kind: dump_filter(f)[6] for kind, f in built.items()}
    assert tags == {"standard": 0x01, "lbf": 0x02, "sandwich": 0x03,
                    "ada": 0x04, "disjoint": 0x05}


def test_bad_magic_rejected():
    with pytest.raises(FormatError, match="magic"):
        loads_filter(b"NOPE" + bytes(20))


def test_bad_version_rejected(built):
    blob = bytearray(dump_filter(built["standard"]))
    blob[4] = 9
    with pytest.raises(FormatError, match="version"):
        loads_filter(bytes(blob))


def test_truncated_rejected(built):
    blob = dump_filter(built["ada"])
    with pytest.raises(FormatError, match="truncated"):
        loads_filter(blob[: len(blob) // 2])


def test_unknown_kind_rejected(built):
    blob = bytearray(dump_filter(built["standard"]))
    blob[6] = 0x7F
    with pytest.raises(FormatError, match="kind"):
        loads_filter(bytes(blob))


KINDS = ["standard", "lbf", "sandwich", "ada", "disjoint"]


@pytest.fixture(scope="module")
def odd_built():
    """One filter per kind whose last bit array has r % 8 != 0 (padding bits)."""
    ds = gen_synthetic(2000, 2000, seed=11)
    part = partition_by_ratio(ds, 5, 2.0)
    return {
        "standard": build_standard([it.id for it in ds.keys], 12_001, 5, seed=41),
        "lbf": build_lbf(ds, 12_001, 0.7, seed=42),
        "sandwich": build_sandwiched(ds, 24_003, 0.6, seed=43),
        "ada": build_ada(ds, 12_001, AdaptiveParams.from_ratio(part, 4, 0, c=2.0), seed=44),
        "disjoint": build_disjoint(ds, 12_001, 5, 2.0, seed=45),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_trailing_bytes_rejected(kind, odd_built):
    blob = dump_filter(odd_built[kind])
    loads_filter(blob)
    with pytest.raises(FormatError, match="trailing"):
        loads_filter(blob + b"\x00")


@pytest.mark.parametrize("kind", KINDS)
def test_padding_bits_rejected(kind, odd_built):
    blob = bytearray(dump_filter(odd_built[kind]))
    blob[-1] |= 0x80  # past r in the last bit array
    with pytest.raises(FormatError, match="past the end"):
        loads_filter(bytes(blob))


def test_padding_bits_rejected_in_first_array(odd_built):
    filt = odd_built["sandwich"]
    r = filt.initial.size_bits
    assert r % 8
    # header, sandwich parameters, then the initial filter's block
    end = 4 + struct.calcsize("<HB") + struct.calcsize("<QQQdQQddB") + struct.calcsize("<QIQI")
    blob = bytearray(dump_filter(filt))
    blob[end + (r + 7) // 8 - 1] |= 0x80
    with pytest.raises(FormatError, match="past the end"):
        loads_filter(bytes(blob))


def test_empty_bit_array_rejected(built):
    blob = bytearray(dump_filter(built["standard"]))
    blob[15:23] = bytes(8)  # r = 0
    with pytest.raises(FormatError, match="length"):
        loads_filter(bytes(blob))
