import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from adabloom import bits
from adabloom.bits import CACHED_COLUMNS, BitVector, HashFamily, ProbeCache, ProbeRows

items_strategy = st.binary(min_size=1, max_size=40)

# Known answers of HashFamily.base_pair, one row per item of KNOWN_ITEMS.
# Saved ADBF containers hold bits set from these values, so they must never
# change; they were recorded from the per-item FNV-1a loop.
KNOWN_ITEMS = ["", "a", "é", b"\x00\x00", bytes(i * 7 % 256 for i in range(300)),
               bytearray(b"key\x00bytearray"), memoryview(b"key-memoryview")]
KNOWN_PAIRS = {
    0: [
        (0xEA869F826E085252, 0x08D69A232FB72548),
        (0xA65C1D8F6FD6CCEA, 0xCF3CC8468BFA84E5),
        (0x02B4E14188664523, 0xBE5C791269B4A31D),
        (0x2C575E76F384B4FE, 0x2905785CFFA93366),
        (0x57B32BF136D259DA, 0x965B2C88A4AB2F10),
        (0xF153139B2A558FD3, 0x87AAB9CF177724C7),
        (0xCBEB026AC9947D07, 0xB74468E18B093BA9),
    ],
    7: [
        (0xA34A7E60CAAE2F35, 0x077B6A6ABB6ADB36),
        (0xACFDFD4AE0D2D98D, 0xF1D5019D0A62872B),
        (0xC3881083C1B9CC9B, 0xAD5C55AD6A8C3270),
        (0x8892132AAC62320D, 0x381C0E06212F0AD5),
        (0x573628055C16CDC6, 0xDD4651E30A09F9E1),
        (0xE69D054EED7AAE83, 0x0E31F0CE463734A3),
        (0xC8560AFD2EE6B980, 0xE9CEF761E6BCD6C7),
    ],
    2**64 - 1: [
        (0x59ECF0B7F45E5E31, 0xF28EF1E2F03FD913),
        (0x40E61B5EA8F58518, 0x9F03A84F0F74594E),
        (0x337FBC235EA5EC6B, 0xB302F093752474AE),
        (0x4D178DF5313560FD, 0xBA3B9CDEACEC7853),
        (0x51A13B650CA42707, 0x1956AE5BADC9CD68),
        (0x2F8697A3F721451E, 0x2C2781426F720EB9),
        (0x7C1570EFA22A3C1E, 0xB1D0809FD7719D07),
    ],
}

# Ids of 0-300 bytes as every accepted type, with NUL bytes and non-ASCII text.
mixed_item = st.one_of(
    st.text(max_size=75),
    st.binary(max_size=300),
    st.binary(max_size=300).map(bytearray),
    st.binary(max_size=300).map(memoryview),
)
ascii_text = st.text(st.characters(max_codepoint=127), max_size=40)
# a lone surrogate has no UTF-8 bytes; test_bad_item_raises checks its refusal
non_ascii_text = st.text(st.characters(min_codepoint=128, exclude_categories=("Cs",)),
                         min_size=1, max_size=10)


def with_one(items, item):
    """Lists from ``items`` with one ``item`` inserted at a drawn position."""
    return st.tuples(items, item, st.integers(0, 80)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])


# Id lists of base_pairs's two kinds of chunk: ASCII text is joined and encoded
# once, anything else is converted id by id.
ID_LISTS = {
    "ascii_str": st.lists(ascii_text, max_size=80),
    "non_ascii_str": with_one(st.lists(st.one_of(ascii_text, st.text(max_size=20)), max_size=80),
                              non_ascii_text),
    "str_and_bytes_likes": with_one(st.lists(st.one_of(ascii_text, mixed_item), max_size=80),
                                    st.one_of(st.binary(max_size=40),
                                              st.binary(max_size=40).map(bytearray),
                                              st.binary(max_size=40).map(memoryview))),
    "numpy_str": st.lists(st.one_of(ascii_text, st.text(max_size=20)).map(np.str_), max_size=80),
    "empty_ids": st.lists(st.one_of(st.sampled_from(["", b"", np.str_("")]), ascii_text),
                          max_size=80),
}


def scalar_pairs(fam, items):
    return [fam.base_pair(x) for x in items]


def batch_pairs(fam, items):
    a, b = fam.base_pairs(items)
    assert a.dtype == b.dtype == np.uint64
    return list(zip(a.tolist(), b.tolist()))


class TestBasePairs:
    @pytest.mark.parametrize("seed", sorted(KNOWN_PAIRS))
    def test_known_answers(self, seed):
        fam = HashFamily(seed)
        assert scalar_pairs(fam, KNOWN_ITEMS) == KNOWN_PAIRS[seed]
        assert batch_pairs(fam, KNOWN_ITEMS) == KNOWN_PAIRS[seed]

    def test_empty_batch(self):
        a, b = HashFamily(1).base_pairs([])
        assert a.dtype == b.dtype == np.uint64
        assert a.shape == b.shape == (0,)

    def test_bad_item_raises(self):
        for bad in (3, None, 1.5):
            for items in (["a", bad], ["a", "b", bad, "c"], [bad], ["é", bad]):
                with pytest.raises(TypeError, match=re.escape(
                        f"items must be bytes or str, got {type(bad).__name__}")):
                    HashFamily(1).base_pairs(items)
        # a lone surrogate cannot be encoded: both paths refuse it alike
        for items in (["\ud800"], ["a", "\ud800"], ["é", "\ud800"]):
            with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
                HashFamily(1).base_pairs(items)
            with pytest.raises(UnicodeEncodeError, match="surrogates not allowed"):
                scalar_pairs(HashFamily(1), items)

    def test_one_chunk_plus_one(self):
        fam = HashFamily(5)
        items = [f"c{i}".encode() * (i % 5) for i in range(bits._HASH_CHUNK + 1)]
        assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    def test_single_long_id(self):
        fam = HashFamily(6)
        items = [bytes(range(256)) * 400]
        assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    def test_long_id_among_short(self):
        fam = HashFamily(8)
        items = [f"s{i}" for i in range(1000)] + [b"\xff" * 100_000]
        assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    def test_accepts_generator(self):
        fam = HashFamily(9)
        items = [f"g{i}" for i in range(50)]
        assert batch_pairs(fam, (x for x in items)) == scalar_pairs(fam, items)

    # tail_rows 0 runs every byte column through numpy, however few rows
    @pytest.mark.parametrize("tail_rows", [0, bits._SCALAR_TAIL_ROWS])
    @settings(max_examples=150, deadline=None)
    @given(items=st.lists(mixed_item, max_size=80), seed=st.integers(0, 2**64 - 1))
    def test_batch_equals_scalar(self, tail_rows, items, seed):
        fam = HashFamily(seed)
        with mock.patch.object(bits, "_SCALAR_TAIL_ROWS", tail_rows):
            assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    @pytest.mark.parametrize("tail_rows", [0, bits._SCALAR_TAIL_ROWS])
    @pytest.mark.parametrize("kind", sorted(ID_LISTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**64 - 1))
    def test_id_kinds_equal_scalar(self, kind, tail_rows, data, seed):
        items = data.draw(ID_LISTS[kind], label=kind)
        fam = HashFamily(seed)
        with mock.patch.object(bits, "_SCALAR_TAIL_ROWS", tail_rows):
            assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    # chunks of a few ids, each all-ASCII text (joined) or anything else (per id)
    @pytest.mark.parametrize("tail_rows", [0, bits._SCALAR_TAIL_ROWS])
    @settings(max_examples=100, deadline=None)
    @given(chunk=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**64 - 1))
    def test_joined_and_fallback_chunks_equal_scalar(self, tail_rows, chunk, data, seed):
        groups = data.draw(st.lists(st.one_of(
            st.lists(ascii_text, min_size=chunk, max_size=chunk),
            st.lists(mixed_item, min_size=chunk, max_size=chunk)), max_size=6))
        items = [item for group in groups for item in group]
        items += data.draw(st.lists(mixed_item, max_size=chunk - 1))
        fam = HashFamily(seed)
        with mock.patch.object(bits, "_SCALAR_TAIL_ROWS", tail_rows), \
                mock.patch.object(bits, "_HASH_CHUNK", chunk):
            assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    def test_ascii_ids_holding_the_separator(self):
        fam = HashFamily(13)
        items = [f"n{i}" for i in range(50)] + ["a\x00b", "\x00", ""] + [f"m{i}" for i in range(50)]
        assert batch_pairs(fam, items) == scalar_pairs(fam, items)
        # the chunk is converted id by id, and its ids are joined without separators
        starts = bits._chunk_bytes(items)[1]
        assert starts.tolist() == np.cumsum([0] + [len(x) for x in items[:-1]]).tolist()

    def test_ascii_chunk_is_joined_and_the_next_falls_back(self):
        fam = HashFamily(12)
        joined = [f"id-{i}" for i in range(bits._HASH_CHUNK)]
        fallback = [f"clé-{i}" for i in range(100)] + [b"raw", memoryview(b"view")]
        items = joined + fallback
        with mock.patch.object(bits, "_item_bytes", wraps=bits._item_bytes) as per_id:
            got = batch_pairs(fam, items)
        # the ASCII chunk never converts an id on its own; the other converts every id
        assert per_id.call_count == len(fallback)
        assert got == scalar_pairs(fam, items)


# Chunks of ids of one byte length, hashed as the rows of a strided byte matrix.
ONE_LENGTH = {
    "ascii_str": [f"q{i:07d}" for i in range(300)],
    "bytes": [f"b{i:05d}".encode() for i in range(300)],
    "memoryview": [memoryview(f"m{i:05d}".encode()) for i in range(300)],
    "bytes_likes_and_str": [kind(f"{i:06d}".encode()) for i in range(300)
                            for kind in (bytes, bytearray, memoryview, bytes.decode)],
    # 3 bytes each in UTF-8, of 2 and 3 characters
    "non_ascii_str": [("é" if i % 2 else "ab") + str(i % 10) for i in range(300)],
    "empty": ["", b"", np.str_("")] * 100,
    "holding_nul": [f"a\x00{i % 10}" for i in range(150)] + [b"\x00\x00\x00", "\x00xy"] * 75,
}


class TestOneLengthChunks:
    """A chunk of more than ``_SCALAR_TAIL_ROWS`` ids of one byte length is hashed as an
    (n, L) byte matrix, in item order: the same pairs as ``base_pair``."""

    @pytest.mark.parametrize("kind", sorted(ONE_LENGTH))
    def test_equals_scalar(self, kind):
        items = ONE_LENGTH[kind]
        rows, starts, _ = bits._chunk_bytes(items)
        assert starts is None and rows.shape[0] == len(items)
        fam = HashFamily(21)
        assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    # tail_rows 0 takes the matrix for any number of ids
    @pytest.mark.parametrize("tail_rows", [0, bits._SCALAR_TAIL_ROWS])
    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(0, 24), data=st.data(), seed=st.integers(0, 2**64 - 1))
    def test_drawn_ids_of_one_length_equal_scalar(self, tail_rows, length, data, seed):
        one = st.one_of(
            st.text(st.characters(max_codepoint=127), min_size=length, max_size=length),
            st.tuples(st.sampled_from([bytes, bytearray, memoryview]),
                      st.binary(min_size=length, max_size=length)).map(lambda t: t[0](t[1])))
        items = data.draw(st.lists(one, min_size=1, max_size=60))
        fam = HashFamily(seed)
        with mock.patch.object(bits, "_SCALAR_TAIL_ROWS", tail_rows):
            assert (bits._chunk_bytes(items)[1] is None) == (len(items) > tail_rows)
            assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    def test_ids_of_one_length_in_text_of_that_size(self):
        # n * (L + 1) - 1 bytes of joined text with lengths 7 and 9 among the 8s:
        # the NULs are not every ninth byte, so the chunk is cut at its NULs
        items = [f"q{i:07d}" for i in range(40)]
        items[5], items[6] = "q123456", "q12345678"
        assert bits._chunk_bytes(items)[1] is not None
        fam = HashFamily(22)
        assert batch_pairs(fam, items) == scalar_pairs(fam, items)

    @pytest.mark.parametrize("first", ["one_length", "mixed"])
    def test_chunk_boundary_between_one_length_and_mixed(self, first):
        one_length = [f"k{i:07d}" for i in range(bits._HASH_CHUNK)]
        mixed = [f"s{i}" for i in range(bits._HASH_CHUNK - 2)] + [b"raw", "clé"]
        items = one_length + mixed if first == "one_length" else mixed + one_length
        fam = HashFamily(23)
        with mock.patch.object(bits, "_fnv1a_columns", wraps=bits._fnv1a_columns) as hasher:
            got = batch_pairs(fam, items)
        assert got == scalar_pairs(fam, items)
        # the chunk of one length is a matrix, only the other is cut and sorted
        assert hasher.call_count == 1 and "clé".encode() in hasher.call_args.args[1]

    def test_one_length_chunk_takes_no_sort_or_gather(self):
        items = [f"q{i:07d}" for i in range(bits._HASH_CHUNK + 100)]
        fam = HashFamily(24)
        shapes, chunk_bytes = [], bits._chunk_bytes

        def spy(chunk):
            got = chunk_bytes(chunk)
            shapes.append(got[0].shape)
            return got

        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort, \
                mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as cuts, \
                mock.patch.object(np, "frombuffer", wraps=np.frombuffer) as gather_source, \
                mock.patch.object(bits, "_chunk_bytes", spy):
            got = batch_pairs(fam, items)
        # no sort by length, no NUL scan, and no flat byte array to gather from
        assert argsort.call_count == cuts.call_count == gather_source.call_count == 0
        assert shapes == [(bits._HASH_CHUNK, 8), (100, 8)]
        assert got == scalar_pairs(fam, items)


class TestHashFamily:
    def test_deterministic_across_instances(self):
        f1 = HashFamily(42)
        f2 = HashFamily(42)
        assert f1.indices(b"url-17", 5, 1000) == f2.indices(b"url-17", 5, 1000)

    def test_zero_hashes_empty_sequence(self):
        assert HashFamily(1).indices(b"anything", 0, 100) == []

    def test_single_bucket_forces_zero(self):
        assert HashFamily(1).indices(b"a", 3, 1) == [0, 0, 0]

    def test_rejects_zero_range(self):
        with pytest.raises(ValueError):
            HashFamily(1).indices(b"a", 3, 0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            HashFamily(1).indices(b"a", -1, 10)

    def test_str_and_bytes_agree(self):
        fam = HashFamily(3)
        assert fam.pair("hello") == fam.pair(b"hello")

    def test_stride_is_odd(self):
        fam = HashFamily(5)
        for i in range(200):
            _, b = fam.pair(f"item-{i}")
            assert b % 2 == 1

    def test_distinct_seeds_differ(self):
        a = HashFamily(1).indices(b"x", 8, 10**6)
        b = HashFamily(2).indices(b"x", 8, 10**6)
        assert a != b

    def test_lanes_differ_from_base(self):
        base = HashFamily(9)
        lane = HashFamily(9, lane=2)
        assert base.pair(b"x") != lane.pair(b"x")

    @pytest.mark.parametrize("lanes", [[1, 2, 5], [0, 3], [0]])
    def test_remix_each_is_remix_pairs_per_item(self, lanes):
        families = [HashFamily(21, lane) for lane in lanes]
        a, b = families[0].base_pairs([f"r{i}" for i in range(300)])
        which = np.arange(300) % len(lanes)
        got = HashFamily.remix_each(HashFamily.lane_salts(families), which, a, b)
        for j, fam in enumerate(families):
            want = fam.remix_pairs(a[which == j], b[which == j])
            assert (got[0][which == j] == want[0]).all() and (got[1][which == j] == want[1]).all()

    def test_batch_matches_scalar(self):
        fam = HashFamily(123, lane=4)
        items = [f"q{i}".encode() for i in range(500)]
        a, b = fam.remix_pairs(*fam.base_pairs(items))
        for i in (0, 17, 250, 499):
            assert fam.pair(items[i]) == (int(a[i]), int(b[i]))

    @pytest.mark.parametrize("seed,lane", [(7, 0), (19, 0), (42, 3)])
    @pytest.mark.parametrize("r", [128, 101])
    def test_member_uniformity_chi_square(self, seed, lane, r):
        # uniformity of the family outputs h_0, h_1, h_2 (the stride hash
        # itself is intentionally odd, so only member outputs are uniform);
        # fixed inputs make each statistic deterministic; alpha = 0.01
        fam = HashFamily(seed, lane)
        n = 20_000
        a, b = fam.remix_pairs(*fam.base_pairs([f"item-{i}".encode() for i in range(n)]))
        for i in range(3):
            member = (a + b * np.uint64(i)) % np.uint64(r)
            counts = np.bincount(member.astype(int), minlength=r)
            chi2 = ((counts - n / r) ** 2 / (n / r)).sum()
            assert chi2 < stats.chi2.ppf(0.99, r - 1), (seed, lane, r, i)

    def test_member_pair_joint_uniformity(self):
        # (h_0, h_1) jointly uniform on an odd grid (an even grid is
        # unreachable in half its cells because the stride is odd)
        fam = HashFamily(42)
        grid = 17
        n = 40_000
        counts = np.zeros((grid, grid))
        for i in range(n):
            i0, i1 = fam.indices(f"joint-{i}", 2, grid)
            counts[i0, i1] += 1
        chi2 = ((counts - n / grid**2) ** 2 / (n / grid**2)).sum()
        assert chi2 < stats.chi2.ppf(0.99, grid**2 - 1)


class TestBitVector:
    def test_starts_all_zero(self):
        assert BitVector(64).popcount() == 0

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            BitVector(0)

    def test_set_and_test(self):
        bv = BitVector(8)
        bv.set_bits([3, 7])
        assert bv.popcount() == 2
        assert bv.test_bits([3, 7])
        assert not bv.test_bits([3, 5])

    def test_empty_test_is_true(self):
        assert BitVector(8).test_bits([])

    def test_out_of_range_raises(self):
        bv = BitVector(8)
        with pytest.raises(IndexError):
            bv.set_bits([8])
        with pytest.raises(IndexError):
            bv.test_bits([9])

    def test_lsb_first_layout(self):
        bv = BitVector(16)
        bv.set_bits([3, 7, 8])
        assert bv.to_bytes() == bytes([0b10001000, 0b00000001])

    def test_freeze_blocks_writes(self):
        bv = BitVector(8)
        bv.set_bits([1])
        bv.freeze()
        with pytest.raises(RuntimeError):
            bv.set_bits([2])
        assert bv.test_bits([1])

    def test_bytes_roundtrip(self):
        bv = BitVector(21)
        bv.set_bits([0, 13, 20])
        back = BitVector.from_bytes(bv.to_bytes(), 21)
        assert back.to_bytes() == bv.to_bytes()
        assert back.frozen

    def test_from_bytes_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVector.from_bytes(b"\x00", 21)

    @pytest.mark.parametrize("r", [1, 7, 21, 4999])
    def test_from_bytes_refuses_a_set_padding_bit(self, r):
        data = bytearray((r + 7) // 8)
        data[-1] = 0x80  # bit 8 * len(data) - 1, past r - 1
        with pytest.raises(ValueError, match="past the end"):
            BitVector.from_bytes(bytes(data), r)
        data[-1] = 1 << (r - 1) % 8  # the last bit is not padding
        assert BitVector.from_bytes(bytes(data), r).test_bits([r - 1])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), r=st.integers(1, 5000))
    def test_bytes_roundtrip_any_length(self, data, r):
        packed = bytearray(data.draw(st.binary(min_size=(r + 7) // 8, max_size=(r + 7) // 8)))
        packed[-1] &= (1 << (r % 8 or 8)) - 1  # the padding bits past r are 0
        bv = BitVector.from_bytes(bytes(packed), r)
        assert bv.to_bytes() == packed
        assert bv.popcount() == sum(bin(byte).count("1") for byte in packed)


class TestBatchPaths:
    @pytest.mark.parametrize("n_items,k,r", [(100, 7, 5003), (30, 300, 4096), (5, 9000, 2**14)])
    def test_set_hashed_matches_scalar(self, n_items, k, r):
        fam = HashFamily(31)
        items = [f"s{i}".encode() for i in range(n_items)]
        a, b = fam.remix_pairs(*fam.base_pairs(items))
        fast = BitVector(r)
        fast.set_hashed(a, b, k)
        slow = BitVector(r)
        for it in items:
            slow.set_bits(fam.indices(it, k, r))
        assert fast.to_bytes() == slow.to_bytes()

    @pytest.mark.parametrize("k", [0, 1, 7, 200])
    def test_test_hashed_matches_scalar(self, k):
        fam = HashFamily(8)
        members = [f"in{i}".encode() for i in range(64)]
        probes = members + [f"out{i}".encode() for i in range(400)]
        bv = BitVector(3001)
        ma, mb = fam.remix_pairs(*fam.base_pairs(members))
        bv.set_hashed(ma, mb, k)
        pa, pb = fam.remix_pairs(*fam.base_pairs(probes))
        got = bv.test_hashed(pa, pb, k)
        want = np.array([bv.test_bits(fam.indices(p, k, 3001)) for p in probes])
        assert (got == want).all()



def hashed(seed, items, lane=0):
    fam = HashFamily(seed, lane)
    return fam.remix_pairs(*fam.base_pairs(items))


# Bit i % 8 of a packed byte: the models below test in the container's packed
# layout, independently of the vector's own store.
BYTE_MASKS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


def per_probe_set(a, b, k, r):
    """Bytes of an r-bit vector after setting the k probes one column at a time."""
    buf = np.zeros((r + 7) // 8, dtype=np.uint8)
    for i in range(k):
        idx = ((a + b * np.uint64(i)) % np.uint64(r)).astype(np.intp)
        np.bitwise_or.at(buf, idx >> 3, BYTE_MASKS[idx & 7])
    return buf.tobytes()


def per_probe_test(bv, a, b, k):
    buf = np.frombuffer(bv.to_bytes(), dtype=np.uint8)
    out = np.ones(len(a), dtype=bool)
    for i in range(k):
        idx = ((a + b * np.uint64(i)) % np.uint64(bv.length_bits)).astype(np.intp)
        out &= (buf[idx >> 3] & BYTE_MASKS[idx & 7]) != 0
    return out


def random_bits(r, load, seed):
    marks = np.random.default_rng(seed).random(r) < load
    bv = BitVector(r)
    bv.set_bits(np.flatnonzero(marks).tolist())
    return bv


class TestSlabKernels:
    # a tiny slab makes the width caps bind on small batches
    @pytest.mark.parametrize("slab", [bits._SLAB, 7])
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(0, 300), k=st.integers(0, 400), r=st.integers(1, 5000),
           seed=st.integers(0, 2**64 - 1), lane=st.sampled_from([0, 3]))
    def test_equal_per_item(self, slab, n, k, r, seed, lane):
        fam = HashFamily(seed, lane)
        items = [f"h{i}" for i in range(n)]
        a, b = fam.remix_pairs(*fam.base_pairs(items))
        fast, slow = BitVector(r), BitVector(r)
        with mock.patch.object(bits, "_SLAB", slab):
            fast.set_hashed(a[: n // 2], b[: n // 2], k)
            for item in items[: n // 2]:
                slow.set_bits(fam.indices(item, k, r))
            assert fast.to_bytes() == slow.to_bytes()
            want = [fast.test_bits(fam.indices(item, k, r)) for item in items]
            assert fast.test_hashed(a, b, k).tolist() == want

    def test_just_over_one_slab(self):
        n = 1000
        k = bits._SLAB // n + 1  # one full slab of columns, then one more
        assert n * k > bits._SLAB
        a, b = hashed(3, [f"m{i}" for i in range(n)])
        bv = BitVector(2**19)
        bv.set_hashed(a, b, k)
        assert bv.to_bytes() == per_probe_set(a, b, k, 2**19)
        assert bv.test_hashed(a, b, k).all()
        oa, ob = hashed(3, [f"o{i}" for i in range(n)])
        assert (bv.test_hashed(oa, ob, k) == per_probe_test(bv, oa, ob, k)).all()

    # widths 1, 2, 4, ... and slab-capped widths that do not divide k
    @pytest.mark.parametrize("k", [2, 3, 6, 100, 257])
    def test_k_not_a_multiple_of_width(self, k):
        a, b = hashed(4, [f"w{i}" for i in range(10)])
        bv = BitVector(4001)
        with mock.patch.object(bits, "_SLAB", 64):
            bv.set_hashed(a, b, k)  # width 6
            assert bv.to_bytes() == per_probe_set(a, b, k, 4001)
            full = random_bits(4001, 0.97, k)
            assert (full.test_hashed(a, b, k) == per_probe_test(full, a, b, k)).all()

    @pytest.mark.parametrize("n", [2047, 2048, 2049, 4095, 4096, 4097])
    @pytest.mark.parametrize("k", [64, 65])
    def test_old_cutoffs(self, n, k):
        a, b = hashed(5, [f"c{i}" for i in range(n)])
        r = 60_011
        bv = BitVector(r)
        bv.set_hashed(a, b, k)
        assert bv.to_bytes() == per_probe_set(a, b, k, r)

    @pytest.mark.parametrize("members", [1500, 3000, 4500])
    def test_survivors_cross_old_cutoffs(self, members):
        # non-key survivors halve at each probe, from 9000 past 4096 and 2048
        a, b = hashed(6, [f"s{i}" for i in range(9000)])
        bv = random_bits(2**16, 0.5, members)
        bv.set_hashed(a[:members], b[:members], 300)
        got = bv.test_hashed(a, b, 300)
        assert (got == per_probe_test(bv, a, b, 300)).all()
        assert got[:members].all()

    def test_single_bit_range(self):
        a, b = hashed(7, ["x", "y", "z"])
        bv = BitVector(1)
        assert not bv.test_hashed(a, b, 5).any()
        bv.set_hashed(a, b, 5)
        assert bv.to_bytes() == b"\x01"
        assert bv.test_hashed(a, b, 5).all()

    def test_padding_bits_stay_clear(self):
        r = 3001  # r % 8 == 1: the last byte holds one bit of the vector
        a, b = hashed(8, [f"p{i}" for i in range(300)])
        bv = BitVector(r)
        bv.set_hashed(a, b, 200)
        assert bv.to_bytes() == per_probe_set(a, b, 200, r)
        assert bv.to_bytes()[-1] >> (r % 8) == 0
        assert bv.popcount() <= r

    def test_calls_accumulate(self):
        a, b = hashed(9, [f"g{i}" for i in range(400)])
        bv = BitVector(5000)
        bv.set_hashed(a[:200], b[:200], 3)
        first = bv.to_bytes()
        bv.set_hashed(a[200:], b[200:], 3)
        assert bv.to_bytes() == per_probe_set(a, b, 3, 5000)
        assert bv.to_bytes() != first
        assert not (np.frombuffer(first, np.uint8) & ~np.frombuffer(bv.to_bytes(), np.uint8)).any()

    def test_frozen_raises_and_keeps_bytes(self):
        a, b = hashed(10, ["f0", "f1"])
        bv = BitVector(100)
        bv.set_hashed(a[:1], b[:1], 4)
        before = bv.freeze().to_bytes()
        with pytest.raises(RuntimeError):
            bv.set_hashed(a, b, 4)
        assert bv.to_bytes() == before

    def test_zero_k_and_empty_batch(self):
        a, b = hashed(11, ["e0", "e1"])
        empty = np.zeros(0, dtype=np.uint64)
        bv = BitVector(64)
        bv.set_hashed(a, b, 0)
        bv.set_hashed(empty, empty, 5)
        assert bv.popcount() == 0
        assert bv.test_hashed(a, b, 0).tolist() == [True, True]
        got = bv.test_hashed(empty, empty, 5)
        assert got.dtype == bool and got.shape == (0,)


# ``_SMALL_BATCH`` values for the probe kernel tests: the rule's own; 0, which walks
# every batch to its end a column at a time; 2**30, which probes every batch here as
# one slab; and 64, at which a walk over a few hundred items finishes partway, in one
# slab, once its survivors' remaining probes fit
SMALL_BATCH_RULES = (bits._SMALL_BATCH, 0, 2**30, 64)


class TestProbeWalk:
    # at 0.97 load most items survive the walk and cross into the slabs; a
    # tiny slab makes the columns past the walk take several slabs. Load 0
    # drops every item at the first column, load 1 never drops one.
    @pytest.mark.parametrize("slab", [bits._SLAB, 7])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 200),
           k=st.sampled_from([0, 1, CACHED_COLUMNS - 1, CACHED_COLUMNS, CACHED_COLUMNS + 1, 300]),
           r=st.sampled_from([1, 7, 3001, 2**14 + 3]),
           load=st.sampled_from([0.0, 0.5, 0.97, 1.0]),
           seed=st.integers(0, 2**64 - 1), lane=st.sampled_from([0, 2]))
    def test_uncached_equals_per_item(self, slab, n, k, r, load, seed, lane):
        fam = HashFamily(seed, lane)
        items = [f"w{i}" for i in range(n)]
        a, b = fam.remix_pairs(*fam.base_pairs(items))
        bv = random_bits(r, load, seed % 1000)
        want = [bv.test_bits(fam.indices(item, k, r)) for item in items]
        for small in SMALL_BATCH_RULES:
            with mock.patch.object(bits, "_SLAB", slab), \
                    mock.patch.object(bits, "_SMALL_BATCH", small):
                assert bv.test_hashed(a, b, k).tolist() == want

    def test_a_walk_ends_in_one_slab_once_the_rest_fits(self, monkeypatch):
        # 4096 items at k = 10 on a half-full array: about 2048 survive column 0 with 9
        # columns left, more probes than a small batch; about 1024 survive column 1 with
        # 8 left, and one slab probes those
        n, k = 4096, 10
        a, b = hashed(16, [f"e{i}" for i in range(n)])
        bv = random_bits(3001, 0.5, 16)
        widths = []
        probes = bits._probes
        monkeypatch.setattr(bits, "_probes", lambda a, b, first, stop, *rest: (
            widths.append(stop - first) or probes(a, b, first, stop, *rest)))
        got = bv.test_hashed(a, b, k)
        assert widths == [1, 1, k - 2]
        want = per_item_test(bv, a, b, np.full(n, k), np.full(n, 3001, np.uint64),
                             np.zeros(n, np.uint64))
        assert got.tolist() == want.tolist() and 0 < want.sum() < n

    def test_huge_k_hands_over_to_slabs(self):
        # a walk of 10**6 single columns would take seconds
        a, b = hashed(12, ["x", "y", "z"])
        full = BitVector.from_bytes(b"\xff" * 125, 1000)
        t0 = time.perf_counter()
        assert full.test_hashed(a, b, 10**6).all()
        assert time.perf_counter() - t0 < 2.0

    def test_uncached_probe_makes_no_unpacked_copy(self):
        r = 2**24  # one byte per bit: a copy of the bits would be 16 MiB
        full = BitVector.from_bytes(b"\xff" * (r // 8), r)
        a, b = hashed(13, [f"t{i}" for i in range(16)])
        tracemalloc.start()
        try:
            assert full.test_hashed(a, b, CACHED_COLUMNS + 8).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def per_item_test(bv, a, b, counts, ranges, offsets):
    """Item j passes iff bit offsets[j] + (a_j + i*b_j) mod ranges[j] is set for every
    i below counts[j], probed one column at a time over every item."""
    buf = np.frombuffer(bv.to_bytes(), dtype=np.uint8)
    out = np.ones(len(a), dtype=bool)
    for i in range(int(counts.max(initial=0))):
        idx = (offsets + (a + b * np.uint64(i)) % ranges).astype(np.intp)
        out &= ((buf[idx >> 3] & BYTE_MASKS[idx & 7]) != 0) | (counts <= i)
    return out


def joined_arrays(sizes, load, seed):
    """Random arrays of these sizes laid end to end, each from a byte boundary, and
    the bit each starts at."""
    arrays = [random_bits(r, load, seed + i) for i, r in enumerate(sizes)]
    starts = np.cumsum([0] + [8 * len(x.to_bytes()) for x in arrays])
    joined = b"".join(x.to_bytes() for x in arrays)
    return BitVector.from_bytes(joined, 8 * len(joined)), starts[:-1].astype(np.uint64)


class TestPerItemGeometry:
    """``test_hashed`` with a count, range and offset per item, as ``GatedBloom`` walks
    its stages: the small-batch slab and the walk answer alike."""

    # k = 16 runs past CACHED_COLUMNS, so the walk hands over to slabs; at load 0.9
    # about 0.9 ** 12 of the items with a count above 12 get there
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("per_item", ["counts", "counts and arrays", "arrays"])
    def test_slab_and_walk_agree_at_the_rule(self, extra, per_item):
        k = 16
        n = bits._SMALL_BATCH // k + extra  # 2**14 probes, then one item more
        rng = np.random.default_rng(n)
        a, b = hashed(14, [f"s{i}" for i in range(n)])
        counts = ranges = offsets = None
        if "counts" in per_item:
            counts = rng.integers(0, k + 1, n)
            counts[:4] = (0, k, CACHED_COLUMNS, CACHED_COLUMNS + 1)
        if "arrays" in per_item:
            sizes = np.array([3001, 64, 811, 1], dtype=np.uint64)
            bv, starts = joined_arrays(sizes.tolist(), 0.9, n)
            which = rng.integers(0, len(sizes), n)
            ranges, offsets = sizes[which], starts[which]
        else:
            bv = random_bits(3001, 0.9, n)
        want = per_item_test(bv, a, b, np.full(n, k) if counts is None else counts,
                             np.full(n, bv.length_bits, np.uint64) if ranges is None else ranges,
                             np.zeros(n, np.uint64) if offsets is None else offsets)
        assert 0 < want.sum() < n
        assert (n * k <= bits._SMALL_BATCH) == (not extra)
        for small in SMALL_BATCH_RULES:
            with mock.patch.object(bits, "_SMALL_BATCH", small):
                got = bv.test_hashed(a, b, k, counts=counts, ranges=ranges, offsets=offsets)
            assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("small", SMALL_BATCH_RULES)
    @pytest.mark.parametrize("slab", [bits._SLAB, 7])
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 300),
           k=st.sampled_from([0, 1, CACHED_COLUMNS, CACHED_COLUMNS + 1, 40]),
           sizes=st.lists(st.sampled_from([1, 7, 64, 3001]), min_size=1, max_size=3),
           load=st.sampled_from([0.0, 0.5, 0.97, 1.0]), seed=st.integers(0, 2**32),
           data=st.data())
    def test_equals_per_item(self, small, slab, n, k, sizes, load, seed, data):
        a, b = hashed(seed, [f"p{i}" for i in range(n)])
        bv, starts = joined_arrays(sizes, load, seed)
        counts = np.array(data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n)),
                          dtype=np.intp)
        which = np.array(data.draw(st.lists(st.integers(0, len(sizes) - 1),
                                            min_size=n, max_size=n)), dtype=np.intp)
        ranges, offsets = np.array(sizes, dtype=np.uint64)[which], starts[which]
        with mock.patch.object(bits, "_SLAB", slab), mock.patch.object(bits, "_SMALL_BATCH", small):
            got = bv.test_hashed(a, b, k, counts=counts, ranges=ranges, offsets=offsets)
        assert got.tolist() == per_item_test(bv, a, b, counts, ranges, offsets).tolist()

    def test_cached_batches_take_no_per_item_geometry(self):
        fam = HashFamily(15)
        items = [f"c{i}" for i in range(40)]
        cache = warm_cache(fam, items, 500)
        a, b = hashed(15, items)
        with pytest.raises(ValueError, match="uncached"):
            BitVector(500).test_hashed(a, b, 3, counts=np.full(40, 3),
                                       cached=ProbeRows(cache, slice(0, 40)).cached(fam, 500))


def warm_cache(fam, items, r):
    """A ProbeCache over ``items`` holding the matrix of ``fam`` at range r."""
    pairs = fam.base_pairs(items)
    cache = ProbeCache(lambda seed: pairs)
    assert cache.columns(fam, r) is None  # asked once: nothing built
    assert cache.columns(fam, r).shape == (CACHED_COLUMNS, len(items))
    return cache


def as_rows(positions, contiguous):
    return slice(positions[0], positions[-1] + 1) if contiguous else np.asarray(positions)


class TestProbeCache:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 300),
           k=st.sampled_from([0, 1, CACHED_COLUMNS, CACHED_COLUMNS + 1, 300]),
           r=st.sampled_from([1, 7, 3001, 5000, 2**14 + 3]), seed=st.integers(0, 2**64 - 1),
           lane=st.sampled_from([0, 2]), data=st.data())
    def test_cached_kernels_equal_uncached(self, n, k, r, seed, lane, data):
        fam = HashFamily(seed, lane)
        items = [f"c{i}" for i in range(n)]
        cache = warm_cache(fam, items, r)
        a, b = fam.remix_pairs(*fam.base_pairs(items))
        fast, slow = BitVector(r), BitVector(r)
        # two inserts OR together: a contiguous range, then scattered rows
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        scattered = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        for positions, contiguous in ((range(lo, hi), True), (scattered, False)):
            rows = ProbeRows(cache, as_rows(list(positions), contiguous))
            cached = rows.cached(fam, r)
            fast.set_hashed(a[rows.rows], b[rows.rows], k, cached=cached)
            slow.set_hashed(a[rows.rows], b[rows.rows], k)
            assert fast.to_bytes() == slow.to_bytes()
        load = data.draw(st.sampled_from([0.0, 0.5, 0.97, 1.0]))
        for bv in (fast, random_bits(r, load, seed % 1000)):
            for positions, contiguous in ((range(n), True), (range(lo, hi), True),
                                          (scattered, False), (scattered[::-1], False)):
                rows = as_rows(list(positions), contiguous)
                want = bv.test_hashed(a[rows], b[rows], k)
                # walk the cached columns, then past them to the end or to a last slab
                for small in (0, 64):
                    with mock.patch.object(bits, "_SMALL_BATCH", small):
                        got = bv.test_hashed(a[rows], b[rows], k,
                                             cached=ProbeRows(cache, rows).cached(fam, r))
                    assert (got == want).all()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 400), data=st.data())
    def test_windows_remix_each_row_once_per_seed(self, n, data):
        items = [f"w{i}" for i in range(n)]
        base = {seed: HashFamily(seed).base_pairs(items) for seed in (1, 2**40 + 7)}
        cache = ProbeCache(base.__getitem__)
        remix = HashFamily.remix_pairs
        remixed = []  # the rows of each remix the cache makes
        bounds = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
        rows = (bounds.map(lambda lo_hi: slice(*lo_hi))
                | st.sets(st.integers(0, n - 1)).map(lambda s: np.array(sorted(s), dtype=np.intp)))
        steps = data.draw(st.lists(st.tuples(st.sampled_from(sorted(base)), st.integers(2, 12), rows),
                                   min_size=1, max_size=12))
        served = {}  # lane -> (seed, the rows asked for under it)
        with mock.patch.object(HashFamily, "remix_pairs",
                               lambda fam, a, b: remixed.append(len(a)) or remix(fam, a, b)):
            for seed, lane, at in steps:
                fam = HashFamily(seed, lane)
                remixed.clear()
                got_a, got_b = cache.pairs(fam, at)
                want_a, want_b = remix(fam, base[seed][0][at], base[seed][1][at])
                assert got_a.dtype == got_b.dtype == np.uint64
                assert got_a.tolist() == want_a.tolist() and got_b.tolist() == want_b.tolist()
                # a new seed starts the lane's window over; a row already served is not remixed
                if served.get(lane, (seed,))[0] != seed:
                    del served[lane]
                asked = set(np.arange(n)[at].tolist())
                known = served.setdefault(lane, (seed, set()))[1]
                assert sum(remixed) == len(asked - known)
                known |= asked
                # the window holds the rows served so far and no other
                assert np.flatnonzero(cache._lanes[lane][2]).tolist() == sorted(known)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), lane=st.sampled_from([0, 1, 4]),
           r=st.sampled_from([1, 7, 4099, 2**31 + 11]), data=st.data())
    def test_probe_is_the_scalar_probe(self, n, lane, r, data):
        """Probe i of a batch, asked for cold and then with the matrix held, at a
        slice of rows, an index array picked from it and the positions of a boolean mask."""
        fam = HashFamily(3, lane)
        items = [f"p{i}" for i in range(n)]
        pairs = fam.base_pairs(items)
        cache = ProbeCache(lambda seed: pairs)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        batch = ProbeRows(cache, slice(lo, hi))
        picked = np.array(sorted(data.draw(st.sets(st.integers(0, hi - lo - 1)))), dtype=np.intp)
        mask = np.zeros(hi - lo, dtype=bool)
        mask[picked] = True
        for i in (0, 1, CACHED_COLUMNS - 1, CACHED_COLUMNS, 40):
            for rows in (batch, batch.select(picked), batch.select(np.flatnonzero(mask))):
                at = np.arange(n)[rows.rows].tolist()
                assert at == list(range(lo, hi)) or at == (lo + picked).tolist()
                want = [fam.indices(items[j], i + 1, r)[i] for j in at]
                assert rows.probe(fam, i, r).tolist() == want  # the matrix is built on the 2nd ask
        assert (cache.columns(fam, r) is None) == (r >= 2**31)

    def test_matrix_is_the_probe_indices(self):
        fam = HashFamily(5, 3)
        items = [f"m{i}" for i in range(50)]
        columns = warm_cache(fam, items, 4099).columns(fam, 4099)
        assert columns.dtype == np.int32
        assert columns.T.tolist() == [fam.indices(it, CACHED_COLUMNS, 4099) for it in items]

    def test_at_most_one_matrix(self):
        calls = []
        pairs = HashFamily(1).base_pairs([f"o{i}" for i in range(20)])
        cache = ProbeCache(lambda seed: calls.append(seed) or pairs)
        g1, g2 = (HashFamily(1), 500), (HashFamily(1, 1), 500)
        # asked once, or with another geometry in between: nothing is built
        for fam, r in (g1, g2, g1, (HashFamily(1), 501), g1):
            assert cache.columns(fam, r) is None
        assert calls == []
        first = cache.columns(*g1)  # g1 twice in a row
        assert first is not None and cache.columns(*g1) is first and calls == [1]
        assert cache.columns(*g2) is None
        assert cache.columns(*g1) is first  # a built geometry stays until replaced
        assert cache.columns(*g2) is None
        second = cache.columns(*g2)
        assert second is not None and calls == [1, 1]
        assert cache.columns(*g1) is None  # replaced: one matrix at a time
        assert cache.columns(*g2) is second

    def test_no_cache_past_int32(self):
        pairs = HashFamily(1).base_pairs(["x"])
        cache = ProbeCache(lambda seed: pairs)
        for _ in range(3):
            assert cache.columns(HashFamily(1), 2**31) is None
        assert cache.columns(HashFamily(1), 2**31 - 1) is None
        assert cache.columns(HashFamily(1), 2**31 - 1) is not None

    def test_select_keeps_ranges_as_slices(self):
        rows = ProbeRows(None, slice(10, 20))
        assert rows.select(slice(3, 7)).rows == slice(13, 17)
        assert rows.select(slice(3, 7)).select(slice(1, 3)).rows == slice(14, 16)
        assert rows.select(slice(4, 4)).rows == slice(14, 14)
        mask = np.zeros(10, dtype=bool)
        mask[[3, 4, 5, 6, 8]] = True
        assert rows.select(np.flatnonzero(mask)).rows.tolist() == [13, 14, 15, 16, 18]
        assert rows.select(np.array([0, 9])).rows.tolist() == [10, 19]
        every_other = np.array([True, False, True, False, True])
        picked = rows.select(np.flatnonzero(mask))
        assert picked.select(np.flatnonzero(every_other)).rows.tolist() == [13, 15, 18]
        assert picked.select(slice(1, 3)).rows.tolist() == [14, 15]


@settings(max_examples=120, deadline=None)
@given(item=items_strategy, k=st.integers(0, 24), r=st.integers(1, 10_000),
       seed=st.integers(0, 2**64 - 1))
def test_inserted_items_always_test_positive(item, k, r, seed):
    fam = HashFamily(seed)
    bv = BitVector(r)
    idxs = fam.indices(item, k, r)
    assert len(idxs) == k
    assert all(0 <= i < r for i in idxs)
    bv.set_bits(idxs)
    assert bv.test_bits(fam.indices(item, k, r))


@settings(max_examples=60, deadline=None)
@given(item=items_strategy, k=st.integers(0, 16), r=st.integers(1, 1000),
       seed=st.integers(0, 2**32))
def test_hash_indices_pure(item, k, r, seed):
    fam = HashFamily(seed)
    assert fam.indices(item, k, r) == HashFamily(seed).indices(item, k, r)
