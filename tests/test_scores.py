import csv
import hashlib
import io
import math
import os
import re
import tempfile
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from adabloom.adaptive import AdaptiveParams, build_ada
from adabloom.bits import BitVector, HashFamily
from adabloom.disjoint import build_disjoint
from adabloom.learned import LearnedBloom, SandwichedBloom, build_lbf, build_sandwiched
from adabloom import scores, tuning
from adabloom.scores import (
    CSV_HEADER,
    DatasetError,
    InsufficientDataError,
    ScoredDataset,
    ScoredItem,
    ScorePartition,
    check_scores,
    gen_synthetic,
    load_scored_csv,
    min_sample_size,
    partition_below_threshold,
    partition_by_ratio,
    partition_from_thresholds,
    save_scored_csv,
    _ROW_BLOCK,
    _sample_bound,
)
from adabloom.standard import GatedBloom, StandardBloom, build_standard, insert_keys


def nonkey_items(ds):
    """The non-keys of ``ds`` as ``ScoredItem``s, from its non-key columns."""
    return tuple(ScoredItem(i, s, False) for i, s in zip(ds.nonkey_ids, ds.nonkey_scores.tolist()))


def write_csv(tmp_path, text):
    path = tmp_path / "ds.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestCsvLoading:
    def test_basic_rows(self, tmp_path):
        ds = load_scored_csv(write_csv(tmp_path, "id,score,label\na,0.9,key\nb,0.1,nonkey\n"))
        assert (ds.n, ds.m) == (1, 1)
        assert ds.items[0] == ScoredItem("a", 0.9, True)

    def test_header_only(self, tmp_path):
        ds = load_scored_csv(write_csv(tmp_path, "id,score,label\n"))
        assert (ds.n, ds.m) == (0, 0)

    def test_no_trailing_newline(self, tmp_path):
        ds = load_scored_csv(write_csv(tmp_path, "id,score,label\na,0.5,key"))
        assert ds.n == 1

    def test_out_of_range_score_names_line(self, tmp_path):
        path = write_csv(tmp_path, "id,score,label\na,0.9,key\nb,0.1,nonkey\nc,1.5,key\n")
        with pytest.raises(DatasetError, match="line 4"):
            load_scored_csv(path)

    def test_malformed_score_names_line(self, tmp_path):
        with pytest.raises(DatasetError, match="line 2"):
            load_scored_csv(write_csv(tmp_path, "id,score,label\na,zap,key\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(DatasetError, match="line 3"):
            load_scored_csv(write_csv(tmp_path, "id,score,label\na,0.9,key\nb,0.5\n"))

    def test_duplicate_id(self, tmp_path):
        with pytest.raises(DatasetError, match="duplicate"):
            load_scored_csv(write_csv(tmp_path, "id,score,label\na,0.9,key\na,0.1,nonkey\n"))

    def test_bad_label(self, tmp_path):
        with pytest.raises(DatasetError, match="label"):
            load_scored_csv(write_csv(tmp_path, "id,score,label\na,0.9,maybe\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(DatasetError, match="header"):
            load_scored_csv(write_csv(tmp_path, "id,value,label\na,0.9,key\n"))

    def test_row_the_csv_module_refuses(self, tmp_path):
        # a field over csv.field_size_limit() (131072 characters by default)
        text = "id,score,label\na,0.9,key\n" + "x" * 200_000 + ",0.1,nonkey\n"
        path = write_csv(tmp_path, text)
        with pytest.raises(DatasetError) as exc:
            load_scored_csv(path)
        assert str(exc.value).startswith(f"{path}: line 3: field larger than field limit")

    @pytest.mark.parametrize("rows, message", [
        (["x,zap,key"], "malformed score 'zap'"),
        (["x,1.5,key"], "score '1.5' outside [0, 1]"),
        (["x,nan,key"], "score 'nan' outside [0, 1]"),
        (["k0000005,0.5,nonkey"], "duplicate id 'k0000005'"),  # first copy in the first block
        (["x,0.5,key", "x,0.5,nonkey"], "duplicate id 'x'"),
        ([",0.5,key"], "id must be non-empty and comma-free"),
        (['"x,y",0.5,key'], "id must be non-empty and comma-free"),
        (["x,0.5,maybe"], "label must be key or nonkey, got 'maybe'"),
        (["x,0.5"], "expected 3 fields, got 2")])
    def test_a_bad_row_after_the_first_block_names_its_line(self, rows, message, tmp_path):
        # one blank row in the first block: blank rows are skipped but counted
        good = [f"k{i:07d},0.5,key" for i in range(_ROW_BLOCK + 37)]
        lines = ["id,score,label"] + good[:9] + [""] + good[9:] + rows + ["z,0.5,key"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as exc:
            load_scored_csv(path)
        assert str(exc.value) == f"{path}: line {len(lines) - 1}: {message}"

    @pytest.mark.parametrize("rows, message", [
        (["x,0.5,maybe", "y,0.5"], "label must be key or nonkey, got 'maybe'"),
        (["x,zap,key", "k0000005,0.5,nonkey"], "malformed score 'zap'")])
    def test_the_first_of_two_bad_rows_in_a_block_names_its_line(self, rows, message, tmp_path):
        # the block check meets the second row's rule (field count, duplicate id)
        # before the first row's (label, score); the message names the first row
        good = [f"k{i:07d},0.5,key" for i in range(_ROW_BLOCK + 37)]
        lines = ["id,score,label"] + good + rows + ["z,0.5,key"]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as exc:
            load_scored_csv(path)
        assert str(exc.value) == f"{path}: line {len(lines) - 2}: {message}"

    def test_rows_before_a_row_the_csv_module_refuses_are_checked_first(self, tmp_path):
        good = [f"k{i:07d},0.5,key" for i in range(_ROW_BLOCK + 5)]
        big = "x" * 200_000 + ",0.1,nonkey"
        path = write_csv(tmp_path, "\n".join(["id,score,label"] + good + ["y,0.5,no", big]))
        with pytest.raises(DatasetError) as exc:
            load_scored_csv(path)
        assert str(exc.value) == (
            f"{path}: line {_ROW_BLOCK + 7}: label must be key or nonkey, got 'no'")
        path = write_csv(tmp_path, "\n".join(["id,score,label"] + good + [big]))
        with pytest.raises(DatasetError) as exc:
            load_scored_csv(path)
        assert str(exc.value).startswith(f"{path}: line {_ROW_BLOCK + 7}: field larger than")

    def test_blocks_of_rows_load_as_one(self, tmp_path):
        ds = gen_synthetic(_ROW_BLOCK + 3, _ROW_BLOCK - 2, seed=8)
        path = tmp_path / "blocks.csv"
        save_scored_csv(ds, path)
        back = load_scored_csv(path)
        assert back.ids == ds.ids
        assert back.scores.tolist() == ds.scores.tolist()
        assert back.is_key.tolist() == ds.is_key.tolist()
        assert (back.n, back.m) == (ds.n, ds.m)

    def test_an_id_the_csv_module_quotes_round_trips(self, tmp_path):
        items = (ScoredItem('a"b', 0.5, True), ScoredItem("c\nd", 0.25, False),
                 ScoredItem("e", 1.0, True))
        path = tmp_path / "quoted.csv"
        save_scored_csv(ScoredDataset(items), path)
        assert path.read_text() == (
            'id,score,label\n"a""b",0.5,key\n"c\nd",0.25,nonkey\ne,1.0,key\n')
        assert load_scored_csv(path).items == items

    @pytest.mark.parametrize("bad", ["", "a,b", "e\rf"])
    def test_an_id_the_loader_cannot_read_is_refused_before_the_file(self, tmp_path, bad):
        items = (ScoredItem("x", 0.5, True), ScoredItem(bad, 0.25, False),
                 ScoredItem("y,z", 1.0, True))
        path = tmp_path / "refused.csv"
        with pytest.raises(DatasetError) as exc:
            save_scored_csv(ScoredDataset(items), path)
        assert str(exc.value) == f"{path}: id {bad!r} must be non-empty and hold no comma or CR"
        assert not path.exists()

    def test_roundtrip(self, tmp_path):
        ds = gen_synthetic(50, 70, seed=4)
        path = tmp_path / "round.csv"
        save_scored_csv(ds, path)
        back = load_scored_csv(path)
        assert back.fingerprint() == ds.fingerprint()

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; the writer adds none
        ds = gen_synthetic(5, 4, seed=4)
        path = tmp_path / "ds.csv"
        save_scored_csv(ds, path)
        assert not path.read_bytes().startswith(b"\xef\xbb\xbf")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_scored_csv(bom).fingerprint() == ds.fingerprint()
        bad = write_csv(tmp_path, "\ufeffid,score,label\na,1.5,key\n")
        with pytest.raises(DatasetError, match=r"line 2: score '1.5' outside"):
            load_scored_csv(bad)
        with pytest.raises(DatasetError, match="empty file"):
            load_scored_csv(write_csv(tmp_path, "\ufeff"))
        with pytest.raises(DatasetError, match=r"got \['\\ufeffid'"):  # only a leading one
            load_scored_csv(write_csv(tmp_path, "\ufeff\ufeffid,score,label\n"))


class TestColumns:
    def test_generated_columns(self):
        ds = gen_synthetic(3, 2, seed=1)
        assert ds.ids == ["k0000000", "k0000001", "k0000002", "n0000000", "n0000001"]
        assert ds.is_key.tolist() == [True, True, True, False, False]
        assert ds.scores.dtype == np.float64 and len(ds.scores) == len(ds) == 5
        assert ds.key_ids == ds.ids[:3] and ds.nonkey_ids == ds.ids[3:]
        assert (ds.key_scores == ds.scores[:3]).all() and (ds.nonkey_scores == ds.scores[3:]).all()
        assert "items" not in ds._cache
        items = ds.items
        assert ds.items is items
        assert items == tuple(map(ScoredItem, ds.ids, ds.scores.tolist(), ds.is_key.tolist()))
        assert ds.keys == items[:3] and nonkey_items(ds) == items[3:]

    def test_the_items_constructor_keeps_its_items(self):
        items = (ScoredItem("b", 0.2, False), ScoredItem("a", 0.9, True),
                 ScoredItem("c", 0.5, False))
        ds = ScoredDataset(items)
        assert ds.items is items
        assert (ds.n, ds.m, len(ds)) == (1, 2, 3)
        assert ds.key_ids == ["a"] and ds.nonkey_ids == ["b", "c"]  # read from the sides' items
        assert "ids" not in ds._cache and "scores" not in ds._cache
        assert ds.ids == ["b", "a", "c"] and ds.scores.tolist() == [0.2, 0.9, 0.5]
        assert ds.keys == items[1:2] and nonkey_items(ds) == (items[0], items[2])
        again = ScoredDataset(items)
        assert again.ids == ds.ids and again.key_ids == ["a"]  # picked from the ids column

    @settings(max_examples=150, deadline=None)
    @given(flags=st.lists(st.sampled_from([True, False, 0, 1, 2, 255, np.True_, np.False_]),
                          max_size=30),
           odd=st.sampled_from([None, 300, -1, 0.5, 0.0]), ids_first=st.booleans())
    def test_the_items_constructor_equals_the_per_row_reference(self, flags, odd, ids_first):
        # flags that ``bytes`` takes, and a list where one odd flag makes it refuse them all
        for labels in (flags, flags + [odd]):
            items = tuple(ScoredItem(f"i{j}", j / 64, flag) for j, flag in enumerate(labels))
            is_key = np.array(labels, dtype=bool)  # the label column as the parent read it
            key_rows, nonkey_rows = np.flatnonzero(is_key).tolist(), np.flatnonzero(~is_key).tolist()
            ds = ScoredDataset(items)
            if ids_first:  # the sides' ids are picked from the ids column
                assert ds.ids == [it.id for it in items]
            assert ds.is_key.dtype == bool and ds.is_key.tolist() == is_key.tolist()
            assert (ds.n, ds.m) == (len(key_rows), len(nonkey_rows))
            assert ds.key_ids == [items[i].id for i in key_rows]
            assert ds.nonkey_ids == [items[i].id for i in nonkey_rows]
            assert ds.keys == tuple(items[i] for i in key_rows)
            assert ds.nonkey_scores.tolist() == [items[i].score for i in nonkey_rows]
            assert all(got is items[i] for got, i in zip(ds.keys, key_rows))

    @staticmethod
    def _columnar(kind, tmp_path):
        ds = gen_synthetic(30, 40, seed=6)
        if kind == "loaded":  # with keys and non-keys interleaved
            order = np.random.default_rng(6).permutation(len(ds))
            path = tmp_path / "ds.csv"
            save_scored_csv(ScoredDataset.from_columns(
                [ds.ids[i] for i in order], ds.scores[order], ds.is_key[order]), path)
            ds = load_scored_csv(path)
        return ds.by_score() if kind == "view" else ds

    @pytest.mark.parametrize("kind", ["generated", "loaded", "view"])
    def test_the_keys_are_built_from_their_own_columns(self, kind, tmp_path):
        ds = self._columnar(kind, tmp_path)
        items = ds.keys
        assert "items" not in ds._cache
        assert ds.keys is items
        assert len(items) == ds.n

    @pytest.mark.parametrize("kind", ["generated", "loaded", "view"])
    def test_the_sides_are_the_side_rows_of_items(self, kind, tmp_path):
        ds = self._columnar(kind, tmp_path)
        keys, nonkeys = ds.keys, nonkey_items(ds)
        rows = ds.items
        assert keys + nonkeys == (tuple(it for it in rows if it.is_key)
                                  + tuple(it for it in rows if not it.is_key))
        assert all(it.is_key is True for it in keys) and not any(it.is_key for it in nonkeys)

    def test_the_sides_of_given_items_are_those_items(self):
        items = [ScoredItem(f"i{i}", i / 10, i % 3 == 0) for i in range(10)]
        ds = ScoredDataset(items)
        assert all(ds.keys[j] is it for j, it in enumerate(items[0::3]))

    def test_from_columns_equals_the_items_constructor(self):
        ds = gen_synthetic(20, 30, seed=2)
        again = ScoredDataset.from_columns(list(ds.ids), ds.scores.tolist(), ds.is_key.tolist())
        assert again.items == ScoredDataset(ds.items).items == ds.items
        assert again.fingerprint() == ScoredDataset(ds.items).fingerprint() == ds.fingerprint()

    def test_view_columns_are_the_parents_permuted(self):
        ds = gen_synthetic(30, 40, seed=5)
        view = ds.by_score()
        assert "ids" not in view._cache and "items" not in view._cache
        assert view.ids == ([ds.key_ids[i] for i in view.key_order]
                            + [ds.nonkey_ids[i] for i in view.nonkey_order])
        assert view.scores.tolist() == view.key_scores.tolist() + view.nonkey_scores.tolist()
        assert view.is_key.tolist() == [True] * 30 + [False] * 40
        assert sorted(view.items, key=lambda it: it.id) == sorted(ds.items, key=lambda it: it.id)

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(st.tuples(st.text(max_size=6), st.floats(0.0, 1.0), st.booleans()),
                         max_size=12),
           block=st.integers(1, 5))
    def test_text_equals_the_per_row_reference(self, rows, block):
        # the per-row loops that the block writers replaced, over any ids, in blocks of any size
        items = tuple(ScoredItem(*row) for row in rows)
        with mock.patch.object(scores, "_ROW_BLOCK", block), tempfile.TemporaryDirectory() as tmp:
            for ds in (ScoredDataset(items), ScoredDataset(items).by_score()):
                digest, text = hashlib.sha256(), io.StringIO()
                csv.writer(text, lineterminator="\n").writerow(CSV_HEADER)
                for it in ds.items:
                    label = "key" if it.is_key else "nonkey"
                    digest.update(f"{it.id},{it.score!r},{label}\n".encode("utf-8"))
                    csv.writer(text, lineterminator="\n").writerow((it.id, repr(it.score), label))
                assert ds.fingerprint() == digest.hexdigest()
                path = os.path.join(tmp, "ds.csv")
                ids = "".join(ds.ids)
                if not all(ds.ids) or set(ids) & set(",\r"):  # the loader cannot read them
                    with pytest.raises(DatasetError, match="must be non-empty and hold no comma"):
                        save_scored_csv(ds, path)
                    assert not os.path.exists(path)
                    continue
                save_scored_csv(ds, path)
                with open(path, newline="", encoding="utf-8") as fh:
                    assert fh.read() == text.getvalue()
                if len(set(ds.ids)) == len(ds) and "\n" not in ids:
                    assert load_scored_csv(path).items == ds.items

    def test_a_scored_item_has_slots_and_is_frozen(self):
        item = ScoredItem("a", 0.5, True)
        assert not hasattr(item, "__dict__")
        with pytest.raises(FrozenInstanceError):
            item.score = 0.1


class TestSynthetic:
    def test_empty(self):
        ds = gen_synthetic(0, 0)
        assert len(ds) == 0

    @pytest.mark.parametrize("n, m", [(0, 5), (5, 0)])
    def test_one_side_empty(self, n, m):
        ds = gen_synthetic(n, m, seed=2)
        assert (ds.n, ds.m, len(ds)) == (n, m, 5)
        assert ds.ids == [f"k{i:07d}" for i in range(n)] + [f"n{i:07d}" for i in range(m)]
        assert ds.keys == tuple(ds.items[:n]) and nonkey_items(ds) == tuple(ds.items[n:])

    @pytest.mark.parametrize("start, stop", [(9_999_990, 10_000_010), (0, 0), (0, 1),
                                             (95, 105), (99_999_999, 100_000_001)])
    def test_numbered_ids_equal_format(self, start, stop):
        # the width grows from 7 digits at 10**7, as "{:07d}" does
        assert scores._numbered_ids("k", start, stop) == list(
            map("k{:07d}".format, range(start, stop)))

    def test_integral_sizes_of_any_type_are_taken(self):
        assert gen_synthetic(np.int64(3), True, seed=1).ids == gen_synthetic(3, 1, seed=1).ids

    def test_key_scores_higher_on_average(self):
        ds = gen_synthetic(10_000, 10_000, seed=2)
        assert ds.key_scores.mean() > ds.nonkey_scores.mean()

    def test_deterministic_per_seed(self):
        a = gen_synthetic(500, 500, seed=9)
        b = gen_synthetic(500, 500, seed=9)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != gen_synthetic(500, 500, seed=10).fingerprint()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            gen_synthetic(10, 10, key_shape=(0.0, 1.0))


class TestScoreOrderedView:
    def test_scores_sorted_and_view_is_its_own_view(self):
        ds = gen_synthetic(300, 400, seed=2)
        view = ds.by_score()
        assert ds.by_score() is view
        assert view.by_score() is view
        assert (np.diff(view.key_scores) >= 0).all()
        assert (np.diff(view.nonkey_scores) >= 0).all()
        assert (view.sorted_nonkey_scores == ds.sorted_nonkey_scores).all()
        assert (view.n, view.m, len(view)) == (ds.n, ds.m, len(ds))

    def test_order_is_stable(self):
        items = [ScoredItem(f"k{i}", s, True) for i, s in enumerate([0.5, 0.2, 0.5, 0.2])]
        items += [ScoredItem(f"n{i}", s, False) for i, s in enumerate([0.3, 0.3, 0.1])]
        view = ScoredDataset(items).by_score()
        assert view.key_order.tolist() == [1, 3, 0, 2]
        assert view.nonkey_order.tolist() == [2, 0, 1]
        assert [it.id for it in view.keys] == ["k1", "k3", "k0", "k2"]
        assert view.nonkey_ids == ["n2", "n0", "n1"]
        assert view.items == view.keys + nonkey_items(view)

    @pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
    def test_pairs_are_the_parents_permuted(self, seed):
        ds = gen_synthetic(200, 300, seed=6)
        view = ds.by_score()
        for mine, parents, order, items, scores in (
                (view.key_pairs(seed), ds.key_pairs(seed), view.key_order,
                 view.keys, view.key_scores),
                (view.nonkey_pairs(seed), ds.nonkey_pairs(seed), view.nonkey_order,
                 nonkey_items(view), view.nonkey_scores)):
            assert (mine[0] == parents[0][order]).all()
            assert (mine[1] == parents[1][order]).all()
            # each pair still belongs to its item and that item's score
            family = HashFamily(seed)
            for i in (0, len(items) // 2, len(items) - 1):
                assert family.base_pair(items[i].id) == (int(mine[0][i]), int(mine[1][i]))
                assert items[i].score == scores[i]

    def test_nothing_is_rehashed(self, monkeypatch):
        ds = gen_synthetic(100, 100, seed=1)
        ds.key_pairs(4)
        ds.nonkey_pairs(4)
        calls = []
        original = HashFamily.base_pairs
        monkeypatch.setattr(HashFamily, "base_pairs",
                            lambda self, items: calls.append(1) or original(self, items))
        view = ds.by_score()
        view.key_pairs(4)
        view.nonkey_pairs(4)
        assert calls == []
        view.key_pairs(5)  # a new seed hashes the dataset once, not the view
        assert len(calls) == 1 and ("pairs", 5, True) in ds._cache

    @pytest.mark.parametrize("n, m", [(0, 40), (40, 0), (0, 0)])
    def test_empty_sides(self, n, m):
        ds = gen_synthetic(n, m, seed=3)
        view = ds.by_score()
        assert len(view.key_scores) == n and len(view.nonkey_scores) == m
        assert len(view.key_pairs(1)[0]) == n and len(view.nonkey_pairs(1)[0]) == m
        assert len(view.keys) == n and len(view.nonkey_ids) == m


# scores no dataset holds: NaN, past either end, and the least step below 0
BAD_SCORES = [math.nan, math.inf, -math.inf, 1.5, -1e-300]


class TestDatasetScoreRule:
    """A dataset refuses a NaN or out-of-range score where its score column is
    made, naming the first bad key, else the first bad non-key."""

    @staticmethod
    def _columns(key_score, nonkey_score):
        # item order puts the non-key first, so a keys-first name is not the first row
        return ["n0", "k0", "k1"], [nonkey_score, 0.5, key_score], [False, True, True]

    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_from_columns_refuses_a_bad_score(self, bad):
        for (key_score, nonkey_score), name in (((bad, bad), "key 'k1'"),
                                                ((0.5, bad), "nonkey 'n0'")):
            with pytest.raises(DatasetError, match=rf"^{name}: score {re.escape(repr(bad))} "
                                                   rf"outside \[0, 1\]$"):
                ScoredDataset.from_columns(*self._columns(key_score, nonkey_score))

    def test_from_columns_takes_the_ends_and_float32(self):
        ds = ScoredDataset.from_columns(["a", "b", "c", "d"], [-0.0, 0.0, 1.0, 0.5],
                                        [True, False, True, False])
        assert ds.scores.tolist() == [0.0, 0.0, 1.0, 0.5]
        f32 = np.array([0.25, 1.0, 0.1], dtype=np.float32)
        ds = ScoredDataset.from_columns(["a", "b", "c"], f32, [True, False, False])
        assert ds.scores.dtype == np.float64 and ds.scores.tolist() == f32.tolist()

    @pytest.mark.parametrize("read", ["scores", "key_scores", "nonkey_scores", "by_score"])
    @pytest.mark.parametrize("bad", BAD_SCORES)
    def test_a_dataset_of_items_refuses_on_its_first_score_read(self, bad, read):
        ids, scores, labels = self._columns(0.5, bad)
        ds = ScoredDataset(list(map(ScoredItem, ids, scores, labels)))  # constructs
        assert (ds.n, ds.m, ds.key_ids) == (2, 1, ["k0", "k1"])
        for _ in range(2):  # and again: nothing was cached
            with pytest.raises(DatasetError, match=r"^nonkey 'n0': score "):
                value = getattr(ds, read)
                value() if callable(value) else value

    @pytest.fixture(scope="class")
    def bad(self):
        """200 keys and 300 non-keys with the last non-key scored NaN, from items."""
        ds = gen_synthetic(200, 300, seed=4)
        scores = ds.scores.tolist()
        scores[-1] = math.nan
        return lambda: ScoredDataset(list(map(ScoredItem, ds.ids, scores, ds.is_key.tolist())))

    def test_every_build_refuses_before_an_insert(self, bad):
        params = AdaptiveParams.from_ratio(partition_by_ratio(gen_synthetic(200, 300, seed=4), 4,
                                                              2.0), 3, 0, 2.0)
        builds = [lambda ds, m=m, p=p: tuning.build(m, ds, 3000, 1, **p) for m, p in (
            ("standard", {}), ("lbf", {"tau": 0.6}), ("sandwich", {"tau": 0.6}),
            ("ada", {"k_max": 3, "c": 2.0}), ("disjoint", {"g": 4, "c": 2.0}))]
        builds += [lambda ds: build_lbf(ds, 3000, 0.6, 1),
                   lambda ds: build_sandwiched(ds, 3000, 0.6, 1),
                   lambda ds: build_ada(ds, 3000, params, 1),
                   lambda ds: build_disjoint(ds, 3000, 4, 2.0, 1)]
        with mock.patch.object(BitVector, "set_hashed") as inserted:
            for build in builds:
                with pytest.raises(DatasetError, match=r"^nonkey 'n0000299': score nan outside"):
                    build(bad())
        assert inserted.call_count == 0

    def test_a_save_or_fingerprint_refuses_before_any_output(self, bad, tmp_path):
        path = tmp_path / "ds.csv"
        for output in (lambda ds: save_scored_csv(ds, path), lambda ds: ds.fingerprint()):
            with pytest.raises(DatasetError, match=r"^nonkey 'n0000299': score nan outside"):
                output(bad())
        assert not path.exists()


class TestScorePolicy:
    """Batch queries reject exactly the scores that scalar queries reject."""

    def test_check_scores(self):
        scores = np.array([0.0, 0.5, 1.0])
        assert check_scores(scores) is scores
        assert check_scores([0.25]).tolist() == [0.25]
        assert len(check_scores(np.array([]))) == 0
        for bad in (float("nan"), 1.5, -0.1, float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="score must be in"):
                check_scores(np.array([0.3, bad, 0.4]))

    @pytest.fixture(scope="class")
    def filters(self):
        ds = gen_synthetic(300, 300, seed=5)
        params = AdaptiveParams.from_ratio(partition_by_ratio(ds, 4, 2.0), 3, 0, 2.0)
        return [build_lbf(ds, 2000, 0.6, 5), build_sandwiched(ds, 2500, 0.6, 5),
                build_ada(ds, 2000, params, 5), build_disjoint(ds, 2000, 4, 2.0, 5)]

    @settings(max_examples=60, deadline=None)
    @given(score=st.floats(allow_nan=True, allow_infinity=True),
           item=st.sampled_from(["k0000003", "n0000007", "q-absent"]))
    def test_scalar_and_batch_agree_on_any_float(self, filters, score, item):
        a, b = HashFamily(5).base_pairs([item])
        for filt in filters:
            try:
                scalar = filt.contains(item, score)
            except ValueError:
                with pytest.raises(ValueError):
                    filt.contains_batch(a, b, np.array([score]))
                continue
            assert filt.contains_batch(a, b, np.array([score])).tolist() == [scalar]

    @pytest.mark.parametrize("score", ["0.5", b"0.5", 0.5j, Decimal("0.5"), Fraction(1, 2),
                                       [0.5], None])
    def test_a_score_that_is_not_a_real_number_is_refused_either_way(self, filters, score):
        a, b = HashFamily(5).base_pairs(["k0000003"])
        for filt in filters:
            with pytest.raises(ValueError, match="score"):
                filt.contains("k0000003", score)
            with pytest.raises(ValueError, match="scores must be a 1-D array of real numbers"):
                filt.contains_batch(a, b, [score])

    @pytest.mark.parametrize("score", [True, 0, 1, np.int8(1), np.bool_(False), np.float32(0.5)])
    def test_bools_and_ints_are_real_numbers_either_way(self, filters, score):
        a, b = HashFamily(5).base_pairs(["k0000003"])
        for filt in filters:
            assert filt.contains_batch(a, b, [score]).tolist() == [filt.contains("k0000003", score)]

    def test_check_scores_gives_float64(self):
        scores = np.array([0.25, 0.30000002], dtype=np.float32)
        assert check_scores(scores).dtype == np.float64
        assert check_scores(scores).tolist() == [float(s) for s in scores]

    @pytest.mark.parametrize("shape", ["lbf", "sandwich"])
    def test_float32_score_meets_the_bound_in_float64(self, shape):
        # one stage over [0, 0.30000002) on empty bits: a score inside it is
        # rejected. np.float32(0.30000002) is below the bound in float64 but
        # equal to it in float32, where a float32 batch used to pass it.
        hi = 0.30000002
        backup = StandardBloom(BitVector(64), 3, HashFamily(1))
        backup.bits.freeze()
        if shape == "lbf":
            filt = LearnedBloom(hi, backup, 64)
        else:  # an initial stage with 0 hashes passes everything
            initial = StandardBloom(BitVector(8), 0, HashFamily(1, 1))
            initial.bits.freeze()
            filt = SandwichedBloom(hi, initial, backup, 72, 8, 64)
        a, b = HashFamily(1).base_pairs(["q", "r"])
        score = np.float32(hi)
        assert float(score) < hi and score == np.float32(hi)
        assert filt.contains("q", score) is False
        for dtype in (np.float32, np.float64):
            scores = np.array([score, 0.9], dtype=dtype)
            assert filt.contains_batch(a, b, scores).tolist() == [False, True]

    def test_float32_key_score_below_a_bound_is_found(self):
        # a key scored s just below the bound t between two stages, where
        # float32(t) == s: compared in float32 a scalar query would send it to
        # the upper stage, which does not hold it
        s = float(np.float32(0.3))
        t = float(np.nextafter(s, 1.0))
        assert np.float32(t) == np.float32(s)
        for item_score in (s, np.float32(s)):  # the dataset's scores are float64 either way
            ds = ScoredDataset([ScoredItem("key", item_score, True), ScoredItem("n", 0.9, False)])
            lower, upper = (StandardBloom(BitVector(64), 3, HashFamily(4, lane)) for lane in (1, 2))
            filt = GatedBloom(((0.0, t, lower), (t, math.inf, upper)), 4)
            insert_keys(ds, 4, filt.stages)
            assert lower.n_inserted == 1 and upper.n_inserted == 0
            a, b = ds.key_pairs(4)
            for score in (s, np.float32(s)):
                assert filt.contains("key", score)
                assert filt.contains_batch(a, b, np.array([score], dtype=type(score))).all()

    @pytest.mark.parametrize("bad", [float("nan"), 1.5, -1e-9, float("inf")])
    def test_batch_rejects_bad_score_among_good(self, filters, bad):
        a, b = HashFamily(5).base_pairs(["x", "y", "z"])
        for filt in filters:
            with pytest.raises(ValueError):
                filt.contains_batch(a, b, np.array([0.1, bad, 0.9]))

    @pytest.mark.parametrize("kind", range(4))
    def test_missing_score_raises_on_both_paths(self, filters, kind):
        filt = filters[kind]
        a, b = HashFamily(5).base_pairs(["k0000003", "q-absent"])
        with pytest.raises(ValueError, match="need a score"):
            filt.contains("k0000003")
        with pytest.raises(ValueError, match="need a score"):
            filt.contains("k0000003", None)
        with pytest.raises(ValueError, match="need a score"):
            filt.contains_batch(a, b)
        with pytest.raises(ValueError, match="need a score"):
            filt.contains_batch(a, b, None)

    def test_standard_answers_with_or_without_score(self):
        ds = gen_synthetic(300, 300, seed=5)
        filt = build_standard([it.id for it in ds.keys], 2000, 4, 5)
        ids = ["k0000003", "n0000007", "q-absent"]
        a, b = HashFamily(5).base_pairs(ids)
        plain = filt.contains_batch(a, b)
        assert plain.tolist() == [filt.contains(i) for i in ids]
        for scores in (None, np.array([0.2, 0.5, 0.9]), np.array([float("nan"), 2.0, -1.0])):
            assert filt.contains_batch(a, b, scores).tolist() == plain.tolist()
        for score in (None, 0.3, float("nan"), 7.0):
            assert [filt.contains(i, score) for i in ids] == plain.tolist()


class TestPartition:
    def test_geometric_targets(self):
        ds = gen_synthetic(100, 700, seed=3)
        part = partition_by_ratio(ds, 3, 2.0)
        assert part.m_per_group == (400, 200, 100)
        assert sum(part.n_per_group) == ds.n

    def test_single_group(self):
        ds = gen_synthetic(10, 10, seed=0)
        part = partition_by_ratio(ds, 1, 2.0)
        assert part.thresholds == (0.0, 1.0)
        assert part.m_per_group == (10,)

    def test_realized_ratios_near_c(self):
        ds = gen_synthetic(100, 7000, seed=5)
        part = partition_by_ratio(ds, 3, 2.0)
        m = part.m_per_group
        assert 1.8 <= m[0] / m[1] <= 2.2
        assert 1.8 <= m[1] / m[2] <= 2.2

    def test_insufficient_nonkeys(self):
        ds = gen_synthetic(10, 2, seed=0)
        with pytest.raises(InsufficientDataError):
            partition_by_ratio(ds, 3, 2.0)

    def test_rejects_c_at_most_one(self):
        ds = gen_synthetic(10, 100, seed=0)
        with pytest.raises(ValueError):
            partition_by_ratio(ds, 3, 1.0)

    def test_g_is_an_integer(self):
        # a numpy integer is one; a fractional g would cut the groups of the next integer
        ds = gen_synthetic(100, 700, seed=3)
        assert partition_by_ratio(ds, np.int64(3), 2.0) == partition_by_ratio(ds, 3, 2.0)
        assert partition_below_threshold(ds, 0.8, np.int32(3), 2.0).g == 3
        for g in (2.5, 3.0):
            with pytest.raises(ValueError, match=re.escape(f"group count g must be an integer, got {g}")):
                partition_by_ratio(ds, g, 2.0)

    def test_tie_block_absorbed_whole(self):
        # 6 copies of 0.2 straddle the 4/2 cut; the whole block stays low
        items = [ScoredItem(f"n{i}", s, False)
                 for i, s in enumerate([0.1, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.9])]
        ds = ScoredDataset(items)
        part = partition_by_ratio(ds, 2, 3.0)
        assert part.m_per_group == (7, 1)

    def test_duplicate_scores_exhausted(self):
        items = [ScoredItem(f"n{i}", 0.5, False) for i in range(50)]
        with pytest.raises(InsufficientDataError):
            partition_by_ratio(ScoredDataset(items), 3, 2.0)

    def test_counts_match_thresholds(self):
        ds = gen_synthetic(5000, 5000, seed=8)
        part = partition_by_ratio(ds, 6, 1.5)
        rebuilt = partition_from_thresholds(ds, part.thresholds)
        assert rebuilt.m_per_group == part.m_per_group
        assert rebuilt.n_per_group == part.n_per_group

    GRID = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]

    @settings(max_examples=80, deadline=None)
    @given(keys=st.lists(st.sampled_from(GRID) | st.floats(0, 1), max_size=40),
           nonkeys=st.lists(st.sampled_from(GRID) | st.floats(0, 1), max_size=40),
           inner=st.sets(st.sampled_from(GRID[1:-1]) | st.floats(0.001, 0.999), max_size=6))
    def test_view_counts_equal_dataset_counts(self, keys, nonkeys, inner):
        # scores tied exactly at a threshold stay above it
        items = [ScoredItem(f"k{i}", s, True) for i, s in enumerate(keys)]
        items += [ScoredItem(f"n{i}", s, False) for i, s in enumerate(nonkeys)]
        ds = ScoredDataset(items)
        thresholds = (0.0, *sorted(inner), 1.0)
        on_view = partition_from_thresholds(ds.by_score(), thresholds)
        on_dataset = partition_from_thresholds(ds, thresholds)
        assert on_view == on_dataset
        groups = on_dataset.group_indices(ds.key_scores)
        assert on_dataset.n_per_group == tuple(np.bincount(groups, minlength=len(inner) + 1))

    def test_below_threshold_pins_tau(self):
        ds = gen_synthetic(5000, 5000, seed=8)
        part = partition_below_threshold(ds, 0.8, 5, 2.0)
        assert part.g == 5
        assert part.thresholds[-2] == 0.8
        # groups under tau keep the geometric shape
        m = part.m_per_group[:-1]
        for hi, lo in zip(m, m[1:]):
            assert 1.7 <= hi / lo <= 2.3


class TestPartitionMemo:
    """A score-ordered view cuts each (g, c) once; a plain dataset keeps no partition."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5), m=st.integers(0, 60), tied=st.booleans(),
           asks=st.lists(st.tuples(st.integers(1, 12), st.sampled_from([1.2, 1.5, 2, 2.0, 3.0])),
                         min_size=1, max_size=8))
    def test_view_partitions_equal_fresh_ones(self, seed, m, tied, asks):
        ds = gen_synthetic(30, m, seed=seed)
        if tied:  # scores on a coarse grid: tie blocks cross the cuts
            ds = ScoredDataset.from_columns(ds.ids, np.round(ds.scores, 1), ds.is_key)
        view = ds.by_score()
        kept = {}
        for g, c in asks:
            try:
                want = partition_by_ratio(ds, g, c)
            except InsufficientDataError as exc:
                with pytest.raises(InsufficientDataError, match=re.escape(str(exc))):
                    partition_by_ratio(view, g, c)
                continue
            got = partition_by_ratio(view, g, c)
            assert got == want == partition_from_thresholds(view, got.thresholds)
            # the same object for a (g, c) asked before; c is unused at g = 1
            assert got is kept.setdefault((g, c if g > 1 else None), got)
            assert partition_by_ratio(ds, g, c) is not want
        assert not [tag for tag in ds._cache if "partition" in tag]


@st.composite
def bounds_and_scores(draw, open_ends: bool):
    """Ascending bounds, from none to past ``COMPARE_BOUNDS``, and scores among them:
    NaN, -0.0, 0.0, 1.0, every bound, and any float in [0, 1]. With ``open_ends``,
    -inf and inf may bound them, as they do a walk's."""
    count = draw(st.integers(0, scores.COMPARE_BOUNDS + 4))
    bounds = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                  min_size=count, max_size=count, unique=True)))
    if open_ends:
        bounds = [-math.inf] * draw(st.booleans()) + bounds + [math.inf] * draw(st.booleans())
    special = st.sampled_from([math.nan, -0.0, 0.0, 1.0] + bounds)
    values = draw(st.lists(special | st.floats(0.0, 1.0), max_size=120))
    return np.array(bounds, dtype=np.float64), np.array(values, dtype=np.float64)


def search_pieces(bounds, values):
    """The placement by binary search that the compares replace."""
    return np.searchsorted(bounds, values, side="right")


class TestPlacement:
    """Unordered scores are placed by comparing them with each bound, up to
    ``COMPARE_BOUNDS`` bounds, and by binary search past it: the same values either way."""

    @settings(max_examples=300, deadline=None)
    @given(case=bounds_and_scores(open_ends=True))
    def test_pieces_equal_the_search(self, case):
        bounds, values = case
        got = scores.score_pieces(bounds, values)
        assert got.dtype == np.intp
        assert got.tolist() == search_pieces(bounds, values).tolist()

    @settings(max_examples=300, deadline=None)
    @given(case=bounds_and_scores(open_ends=False))
    def test_group_indices_and_counts_equal_the_search(self, case):
        inner, values = case
        g = len(inner) + 1
        part = ScorePartition((0.0, *inner.tolist(), 1.0), (0,) * g, (0,) * g)
        want = search_pieces(inner, values)
        assert part.group_indices(values).tolist() == want.tolist()
        counts = ScoredDataset([])._group_counts(part.thresholds, values)
        assert counts == tuple(np.bincount(want, minlength=g).tolist())
        assert all(type(n) is int for n in counts)

    @pytest.mark.parametrize("count", [0, 1, 2, scores.COMPARE_BOUNDS, scores.COMPARE_BOUNDS + 1,
                                       4 * scores.COMPARE_BOUNDS])
    def test_either_side_of_the_limit(self, count):
        rng = np.random.default_rng(count)
        bounds = np.unique(rng.random(count))
        values = np.concatenate([rng.random(5000), bounds, [math.nan, -0.0, 0.0, 1.0]])
        rng.shuffle(values)
        assert (scores.score_pieces(bounds, values) == search_pieces(bounds, values)).all()
        # float32 scores meet the bounds in float64, as in the search
        single = np.concatenate([values, bounds]).astype(np.float32)
        assert (scores.score_pieces(bounds, single) == search_pieces(bounds, single)).all()
        thresholds = (0.0, *bounds.tolist(), 1.0)
        counts = ScoredDataset([])._group_counts(thresholds, values)
        assert counts == tuple(np.bincount(search_pieces(bounds, values),
                                           minlength=len(bounds) + 1).tolist())

    @pytest.mark.parametrize("thresholds", [(0.0, 1.0), (0.0, 0.5, 1.0)])
    def test_group_counts_are_python_ints(self, thresholds):
        # a container packs them as integers: at g = 1 there is no inner threshold
        values = np.array([0.0, 0.5, 0.7, 1.0, math.nan])
        counts = ScoredDataset([])._group_counts(thresholds, values)
        assert counts == ((5,) if len(thresholds) == 2 else (1, 4))
        assert all(type(n) is int for n in counts)
        ds = ScoredDataset.from_columns(["a", "b", "c"], [0.2, 0.6, 0.9], [True, False, True])
        part = partition_from_thresholds(ds, thresholds)
        assert all(type(n) is int for n in part.n_per_group + part.m_per_group)


class TestGroupLookup:
    def test_boundaries(self):
        ds = gen_synthetic(100, 700, seed=3)
        part = partition_by_ratio(ds, 3, 2.0)
        tau1 = part.thresholds[1]
        first, last, at_tau1 = part.group_indices(np.array([0.0, 1.0, tau1])).tolist()
        assert first == 0
        assert last == part.g - 1
        assert at_tau1 == 1  # [t_{j-1}, t_j): boundary goes up

    def test_vector_matches_intervals(self):
        ds = gen_synthetic(1000, 1000, seed=6)
        part = partition_by_ratio(ds, 5, 1.6)
        scores = np.linspace(0, 1, 257)
        vec = part.group_indices(scores)
        assert all(part.interval(j)[0] <= s < part.interval(j)[1] for s, j in zip(scores, vec))

    @settings(max_examples=200, deadline=None)
    @given(score=st.floats(0.0, 1.0, allow_nan=False))
    def test_every_score_has_exactly_one_group(self, score):
        ds = gen_synthetic(200, 700, seed=3)
        part = partition_by_ratio(ds, 4, 2.0)
        j = int(part.group_indices(np.array([score]))[0])
        assert 0 <= j < part.g
        holding = [i for i in range(part.g) if part.interval(i)[0] <= score < part.interval(i)[1]]
        assert holding == [j]


class TestGroupProbs:
    def test_geometric_example(self):
        ds = gen_synthetic(100, 700, seed=3)
        probs = partition_by_ratio(ds, 3, 2.0).p_hat
        assert probs == pytest.approx((4 / 7, 2 / 7, 1 / 7))

    def test_single_group(self):
        ds = gen_synthetic(10, 10, seed=0)
        assert partition_by_ratio(ds, 1, 2.0).p_hat == (1.0,)

    def test_sums_to_one(self):
        ds = gen_synthetic(100, 100_000, seed=12)
        probs = partition_by_ratio(ds, 8, 1.5).p_hat
        assert abs(sum(probs) - 1.0) < 1e-12

    def test_zero_nonkeys_give_none(self):
        ds = ScoredDataset([ScoredItem("a", 0.5, True)])
        part = partition_from_thresholds(ds, (0.0, 0.5, 1.0))
        assert part.p_hat is None and part.shares is None
        params = AdaptiveParams(part, (1, 0))
        assert build_ada(ds, 64, params, seed=1).expected_fpr() is None


class TestMinSampleSize:
    def test_degenerate_point(self):
        assert min_sample_size(2, 1.0, 1.0) == 3

    def test_reference_value(self):
        assert min_sample_size(5, 0.1, 0.05) == 8503

    def test_halving_epsilon_quadruples_bound(self):
        raw = _sample_bound(5, 0.2, 0.1)
        assert _sample_bound(5, 0.1, 0.1) == 4 * raw

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            min_sample_size(1, 0.1, 0.1)
        with pytest.raises(ValueError):
            min_sample_size(5, 0.0, 0.1)
        with pytest.raises(ValueError):
            min_sample_size(5, 0.1, 1.5)


class TestEstimationError:
    # fixed geometric p over 5 groups, ratio 2
    P = np.array([16, 8, 4, 2, 1], dtype=float) / 31.0

    def test_error_shrinks_with_sample_size(self):
        rng = np.random.default_rng(77)
        means = []
        for m in (100, 1_000, 10_000, 100_000):
            errors = [np.abs(rng.multinomial(m, self.P) / m - self.P).sum()
                      for _ in range(200)]
            means.append(np.mean(errors))
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_bound_holds_with_slack(self):
        # failure rate at the bound's sample size stays within 1.5 * delta
        k, eps, delta = 5, 0.1, 0.05
        m = min_sample_size(k, eps, delta)
        rng = np.random.default_rng(123)
        fails = sum(
            np.abs(rng.multinomial(m, self.P) / m - self.P).sum() > eps
            for _ in range(500))
        assert fails / 500 <= delta * 1.5
