import struct
import time
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from adabloom.adaptive import AdaptiveParams, build_ada
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import build_disjoint
from adabloom.learned import build_lbf, build_sandwiched
from adabloom.scores import gen_synthetic, partition_by_ratio
from adabloom.serialize import FormatError, dump_filter, load_filter, loads_filter, save_filter
from adabloom.standard import MAX_K, build_standard


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


@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
@pytest.mark.parametrize("kind", ["standard", "lbf", "sandwich", "ada", "disjoint"])
def test_a_seed_outside_u64_is_kept_mod_2_64(kind, seed, synth_small):
    """Every kind stores the seed as its hash family holds it, so its container
    round-trips and the loaded filter answers like the built one."""
    ds = synth_small
    filt = {
        "standard": lambda: build_standard([it.id for it in ds.keys], 6000, 4, seed),
        "lbf": lambda: build_lbf(ds, 6000, 0.7, seed),
        "sandwich": lambda: build_sandwiched(ds, 12_000, 0.6, seed),
        "ada": lambda: build_ada(ds, 6000, AdaptiveParams.from_ratio(
            partition_by_ratio(ds, 3, 2.0), 2, 0, c=2.0), seed),
        "disjoint": lambda: build_disjoint(ds, 2000, 3, 2.0, seed),
    }[kind]()
    assert filt.seed == HashFamily(seed).seed
    data = dump_filter(filt)
    restored = loads_filter(data)
    assert restored.seed == filt.seed and dump_filter(restored) == data
    probes = probe_set(ds)
    scored = kind != "standard"
    assert decisions(restored, probes, scored) == decisions(filt, probes, scored)


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


def array_bits(filt):
    """The lengths of a filter's bit arrays, in container order."""
    stages = getattr(filt, "stages", ((0.0, 0.0, filt),))
    return list({id(stage.bits): stage.bits.length_bits for _, _, stage in stages}.values())


@pytest.mark.parametrize("kind", KINDS)
def test_max_bits_refuses_a_container_one_bit_over_it(kind, odd_built, monkeypatch, tmp_path):
    # the bound counts every array; the one that passes it is neither read nor unpacked
    filt = odd_built[kind]
    sizes = array_bits(filt)
    assert len(sizes) == {"sandwich": 2, "disjoint": 4}.get(kind, 1)  # a disjoint group has 0 bits
    blob = dump_filter(filt)
    path = tmp_path / "f.adbf"
    path.write_bytes(blob)
    assert dump_filter(loads_filter(blob, max_bits=sum(sizes))) == blob
    assert dump_filter(load_filter(path, max_bits=sum(sizes))) == blob
    unpacked = []
    original = BitVector.from_bytes
    monkeypatch.setattr(BitVector, "from_bytes",
                        lambda data, r: unpacked.append(r) or original(data, r))
    for load, source in ((loads_filter, blob), (load_filter, path)):
        unpacked.clear()
        with pytest.raises(FormatError, match=f"^bit arrays of more than max_bits = "
                                              f"{sum(sizes) - 1} bits$"):
            load(source, max_bits=sum(sizes) - 1)
        assert unpacked == sizes[:-1]


def test_empty_bit_array_rejected(built):
    blob = bytearray(dump_filter(built["standard"]))
    blob[15:23] = bytes(8)  # r = 0
    with pytest.raises(FormatError, match="length"):
        loads_filter(bytes(blob))


@pytest.fixture(scope="module")
def small_built():
    ds = gen_synthetic(300, 300, seed=1)
    return ds, {
        "lbf": build_lbf(ds, 3000, 0.7, seed=2),
        "sandwich": build_sandwiched(ds, 3000, 0.6, seed=4),
        "ada": build_ada(ds, 3000, AdaptiveParams.from_ratio(partition_by_ratio(ds, 3, 2.0),
                                                             2, 0, c=2.0), seed=3),
        "disjoint": build_disjoint(ds, 3000, 3, 2.0, seed=2),
    }


ADA_THRESHOLDS = 4 + struct.calcsize("<HB") + struct.calcsize("<QQQd") + struct.calcsize("<I")
LBF_TAU = 4 + struct.calcsize("<HB") + struct.calcsize("<QQQ")
# the offset of each v1 lbf / sandwich field past the seed and model bits
BITMAP_BITS = 4 + struct.calcsize("<HB") + struct.calcsize("<QQ")
B1_BITS, B2_BITS, HAS_INITIAL = (BITMAP_BITS + struct.calcsize(f) for f in ("<Qd", "<QdQ",
                                                                             "<QdQQdd"))
# group 0's key count in a v1 disjoint partition of 3 groups: past the seed, model bits,
# c, g and the 4 thresholds
DISJOINT_N0 = BITMAP_BITS + struct.calcsize("<dI4d")


@pytest.mark.parametrize("index, value, message", [
    (0, 0.5, "thresholds must run from 0.0 to 1.0"),
    (1, float("nan"), "thresholds must be strictly increasing"),
])
def test_bad_ada_thresholds_raise_format_error(small_built, index, value, message):
    filt = small_built[1]["ada"]
    blob = bytearray(dump_filter(filt))
    at = ADA_THRESHOLDS + 8 * index
    assert struct.unpack_from("<d", blob, at) == (filt.params.partition.thresholds[index],)
    struct.pack_into("<d", blob, at, value)
    with pytest.raises(FormatError, match=message):
        loads_filter(bytes(blob))


def test_bad_ada_hash_counts_raise_format_error(small_built):
    filt = small_built[1]["ada"]
    g = filt.params.partition.g
    at = ADA_THRESHOLDS + struct.calcsize(f"<{g + 1}d{g}Q{g}Q")
    blob = bytearray(dump_filter(filt))
    assert struct.unpack_from(f"<{g}I", blob, at) == (2, 1, 0)
    struct.pack_into(f"<{g}I", blob, at, 0, 1, 0)
    with pytest.raises(FormatError, match="hash counts must be non-increasing"):
        loads_filter(bytes(blob))


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.5, 1.5])
def test_bad_tau_raises_format_error(small_built, tau):
    filt = small_built[1]["lbf"]
    blob = bytearray(dump_filter(filt))
    assert struct.unpack_from("<d", blob, LBF_TAU) == (filt.tau,)
    struct.pack_into("<d", blob, LBF_TAU, tau)
    with pytest.raises(FormatError, match="tau must be in"):
        loads_filter(bytes(blob))


@pytest.mark.parametrize("kind, edits, message", [
    # the bitmap field is the sum of the two filters' fields
    ("sandwich", [(BITMAP_BITS, "Q", 3000, 3001)], r"bitmap_bits 3001 is not b1_bits 2389 \+ "),
    # the initial filter holds b1 bits, with the sum kept
    ("sandwich", [(B1_BITS, "Q", 2389, 2390), (B2_BITS, "Q", 611, 610)],
     r"initial filter of 2389 bits \(0: none\), need b1_bits = 2390$"),
    # an lbf whose bitmap field claims 10**9 bits over a 3000-bit backup
    ("lbf", [(BITMAP_BITS, "Q", 3000, 10**9)],
     r"backup of 3000 bits, need max\(1, b2_bits\) = 1000000000$"),
    ("sandwich", [(HAS_INITIAL, "B", 1, 2)], "has-initial byte must be 0 or 1, got 2$"),
    # the partition's key count of a group with bits is the count its filter holds
    ("disjoint", [(DISJOINT_N0, "Q", 6, 10**9)],
     "group 0 holds 6 keys, its partition 1000000000$"),
])
def test_fields_that_disagree_with_the_arrays_raise_format_error(kind, edits, message,
                                                                  small_built):
    blob = bytearray(dump_filter(small_built[1][kind]))
    for at, fmt, was, value in edits:
        assert struct.unpack_from("<" + fmt, blob, at) == (was,)
        struct.pack_into("<" + fmt, blob, at, value)
    with pytest.raises(FormatError, match=message):
        loads_filter(bytes(blob))


def _full_container(kind, k):
    """A 64-bit container with every bit set and hash count k: 47 bytes for the
    standard kind; ada's is one group over [0, 1]."""
    if kind == "standard":
        body = struct.pack("<BQ", 0x01, 7) + struct.pack("<QIQI", 64, k, 1, 0)
    else:
        body = (struct.pack("<BQQQd", 0x04, 7, 0, 64, float("nan"))
                + struct.pack("<I2dQQI", 1, 0.0, 1.0, 1, 1, k))
    return b"ADBF" + struct.pack("<H", 1) + body + b"\xff" * 8


@pytest.mark.parametrize("kind", ["standard", "ada"])
def test_hash_count_past_the_bound_is_refused_at_once(kind):
    # a full filter probes k bits per query: k = 2**31 would run for minutes
    blob = _full_container(kind, MAX_K)
    assert len(_full_container("standard", 1)) == 47
    filt = loads_filter(blob)
    a, b = HashFamily(7).base_pairs(["x", "y"])
    answers = filt.contains_batch(a, b) if kind == "standard" else filt.contains_batch(
        a, b, np.array([0.2, 0.9]))
    assert answers.all()
    for k in (MAX_K + 1, 2**31):
        t0 = time.perf_counter()
        with pytest.raises(FormatError, match=f"hash count k must be <= {MAX_K}, got {k}"):
            loads_filter(_full_container(kind, k))
        assert time.perf_counter() - t0 < 1.0


_FUZZ = {}


def _fuzz_case():
    """Dumps of the five kinds and a fixed probe set of ids and scores (built once)."""
    if not _FUZZ:
        ds = gen_synthetic(300, 300, seed=1)
        part = partition_by_ratio(ds, 4, 2.0)
        filters = {
            "standard": build_standard([it.id for it in ds.keys], 3001, 5, seed=1),
            "lbf": build_lbf(ds, 3001, 0.7, seed=2),
            "sandwich": build_sandwiched(ds, 4003, 0.6, seed=3),
            "ada": build_ada(ds, 3001, AdaptiveParams.from_ratio(part, 3, 0, c=2.0), seed=4),
            "disjoint": build_disjoint(ds, 3001, 4, 2.0, seed=5),
        }
        _FUZZ["dumps"] = {kind: dump_filter(f) for kind, f in filters.items()}
        rng = np.random.default_rng(5)
        _FUZZ["probes"] = ([f"fuzz-{i}" for i in range(150)] + [it.id for it in ds.items[::6]],
                           np.concatenate([rng.uniform(0, 1, 150), [1.0, 0.0],
                                           [it.score for it in ds.items[::6]][2:]]))
    return _FUZZ


STANDARD_K = 4 + struct.calcsize("<HBQQ")  # k of the standard block


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(kind=st.sampled_from(KINDS),
       mutations=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)),
                          min_size=1, max_size=4))
# tau patched to NaN: the two query paths disagreed
@example(kind="lbf", mutations=[(LBF_TAU + 6, 0xF8), (LBF_TAU + 7, 0x7F)])
# k near 2**30: a scalar query listed every index before testing one
@example(kind="standard", mutations=[(STANDARD_K + 3, 0x40)])
def test_mutated_container_raises_or_answers_consistently(kind, mutations):
    """1-4 byte mutations of a dump: FormatError, or scalar and batch answers agree."""
    case = _fuzz_case()
    blob = bytearray(case["dumps"][kind])
    for where, value in mutations:
        blob[where % len(blob)] = value
    try:
        filt = loads_filter(bytes(blob))
    except FormatError:
        return
    ids, scores = case["probes"]
    batch = filt.contains_batch(*HashFamily(filt.seed).base_pairs(ids), scores)
    assert batch.tolist() == [filt.contains(i, s) for i, s in zip(ids, scores.tolist())]
