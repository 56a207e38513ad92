"""The ``adabloom`` command line, called in-process through ``cli.main``."""

import argparse
import json
import math
import struct
import time
from unittest import mock

import pytest

from adabloom import cli, tuning
from adabloom.adaptive import fpr_upper_bound
from adabloom.bench import METHODS, rows_to_csv, run_sweep, write_csv
from adabloom.cli import main
from adabloom.disjoint import allocate_disjoint
from adabloom.learned import sandwich_allocate
from adabloom.scores import load_scored_csv, min_sample_size
from adabloom.serialize import dump_filter, load_filter, save_filter

BUILD_ARGS = {
    "standard": [],
    "lbf": ["--tau", "0.7"],
    "sandwich": ["--tau", "0.6"],
    "ada": ["--k-max", "4", "--c", "2.0"],
    "disjoint": ["--g", "4", "--c", "2.0"],
}
# the same parameters as ``tuning.build`` takes them
BUILD_PARAMS = {"standard": {}, "lbf": {"tau": 0.7}, "sandwich": {"tau": 0.6},
                "ada": {"k_max": 4, "c": 2.0}, "disjoint": {"g": 4, "c": 2.0}}


# grid flags for ``tune`` and ``bench``, and the same grids as library arguments
GRID_FLAGS = {
    "lbf": ["--tau-grid", "0.5,0.7,0.8"],
    "sandwich": ["--tau-grid", "0.5,0.7,0.8"],
    "ada": ["--kmax-grid", "3,5", "--c-grid", "1.5,2"],
    "disjoint": ["--g-grid", "3,4", "--c-grid", "1.5,2"],
}
GRID_ARGS = {"tau_grid": [0.5, 0.7, 0.8], "kmax_grid": [3, 5], "c_grid": [1.5, 2.0],
             "g_grid": [3, 4]}
TUNERS = {"lbf": "tune_lbf", "sandwich": "tune_sandwiched", "ada": "tune_ada",
          "disjoint": "tune_disjoint"}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A generated dataset CSV."""
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert main(["gen", "--keys", "1500", "--nonkeys", "1500", "--seed", "4",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def built(data):
    """The generated dataset and one saved filter per method."""
    paths = {}
    for method, extra in BUILD_ARGS.items():
        paths[method] = data.parent / f"{method}.adbf"
        assert main(["build", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
                     "--seed", "9", "--out", str(paths[method])] + extra) == 0
    return load_scored_csv(data), paths


@pytest.mark.parametrize("method", sorted(BUILD_ARGS))
def test_build_writes_the_dump_of_tuning_build(method, built):
    ds, paths = built
    want = tuning.build(method, ds, 12_000, 9, **BUILD_PARAMS[method])
    assert paths[method].read_bytes() == dump_filter(want)


@pytest.mark.parametrize("method, extra, flag", [
    ("lbf", ["--tau", "0.5", "--g", "3", "--k-max", "4"], "--k-max"),
    ("lbf", ["--tau", "0.5", "--g", "3"], "--g"),
    ("standard", ["--tau", "0.5"], "--tau"),
    ("sandwich", ["--tau", "0.5", "--k", "3"], "--k"),
    ("ada", ["--k-max", "4", "--c", "2", "--g", "5"], "--g"),
    ("disjoint", ["--g", "4", "--c", "2", "--k-min", "0"], "--k-min")])
def test_build_refuses_a_flag_the_method_does_not_take(method, extra, flag, data, tmp_path):
    with pytest.raises(SystemExit, match=f"^bad {flag}: method '{method}' takes no such parameter"):
        main(["build", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
              "--out", str(tmp_path / "f.adbf")] + extra)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("method, extra, flag", [("lbf", [], "--tau"),
                                                 ("ada", ["--k-max", "4"], "--c"),
                                                 ("ada", ["--c", "2"], "--k-max"),
                                                 ("disjoint", ["--c", "2"], "--g")])
def test_build_without_a_required_flag_exits_with_message(method, extra, flag, data, tmp_path):
    with pytest.raises(SystemExit, match=f"^{flag} is required for method '{method}'$"):
        main(["build", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
              "--out", str(tmp_path / "f.adbf")] + extra)


@pytest.mark.parametrize("method, extra, message", [
    ("lbf", ["--tau", "1.5"], "tau must be in [0, 1], got 1.5"),
    ("sandwich", ["--tau", "nan"], "tau must be in [0, 1], got nan"),
    ("ada", ["--k-max", "2", "--k-min", "3", "--c", "2"], "need k_max >= k_min >= 0, got (2, 3)"),
    ("ada", ["--k-max", "3", "--c", "1"], "c must be > 1"),
    ("disjoint", ["--g", "0", "--c", "2"], "g must be >= 1"),
    ("standard", ["--k", "-1"], "hash count k must be >= 0, got -1")])
def test_build_exits_with_one_line_when_a_builder_refuses(method, extra, message, data,
                                                          tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
              "--out", str(tmp_path / "f.adbf")] + extra)
    assert str(exc.value).startswith(f"cannot build {method}: ")
    assert message in str(exc.value) and "\n" not in str(exc.value)
    assert not any(tmp_path.iterdir())


def test_build_standard_refuses_model_bits(data, tmp_path):
    with mock.patch.object(cli, "load_scored_csv", side_effect=AssertionError):
        with pytest.raises(SystemExit, match="^bad --model-bits: method 'standard' has no score "
                                             "model, so model_bits must be 0, got 300$"):
            main(["build", "--method", "standard", "--data", str(data), "--bitmap-bits", "12kb",
                  "--model-bits", "300", "--out", str(tmp_path / "f.adbf")])
    assert not any(tmp_path.iterdir())


def test_disjoint_at_a_negative_seed_builds_and_queries(data, built, tmp_path, capsys):
    path = tmp_path / "d.adbf"
    assert main(["build", "--method", "disjoint", "--g", "3", "--c", "2", "--seed=-1",
                 "--data", str(data), "--bitmap-bits", "12kb", "--out", str(path)]) == 0
    assert load_filter(path).seed == 2**64 - 1
    key = built[0].keys[0]
    assert main(["query", "--filter", str(path), "--id", key.id, "--score", str(key.score)]) == 0
    assert capsys.readouterr().out.endswith("positive\n")


@pytest.mark.parametrize("method", sorted(BUILD_ARGS))
def test_query_of_a_key_exits_0(method, built, capsys):
    ds, paths = built
    for key in ds.keys[:20]:
        assert main(["query", "--filter", str(paths[method]), "--id", key.id,
                     "--score", repr(key.score)]) == 0
        assert capsys.readouterr().out.strip() == "positive"


@pytest.mark.parametrize("method", sorted(BUILD_ARGS))
def test_fresh_id_exit_code_matches_contains(method, built, capsys):
    _, paths = built
    filt = load_filter(paths[method])
    answers = set()
    for i in range(60):
        item, score = f"fresh-{i}", (i % 10) / 10
        expected = filt.contains(item, score)
        answers.add(expected)
        code = main(["query", "--filter", str(paths[method]), "--id", item,
                     "--score", str(score)])
        assert code == (0 if expected else 1)
        assert capsys.readouterr().out.strip() == ("positive" if expected else "negative")
    assert False in answers  # the probe set reaches the negative exit


def test_standard_query_needs_no_score(built):
    ds, paths = built
    assert main(["query", "--filter", str(paths["standard"]), "--id", ds.keys[0].id]) == 0


@pytest.mark.parametrize("method", ["lbf", "sandwich", "ada", "disjoint"])
def test_learned_query_without_score_exits_with_message(method, built):
    ds, paths = built
    with pytest.raises(SystemExit, match="--score is required"):
        main(["query", "--filter", str(paths[method]), "--id", ds.keys[0].id])


def test_query_with_out_of_range_score_exits(built):
    ds, paths = built
    with pytest.raises(SystemExit, match="score must be in"):
        main(["query", "--filter", str(paths["lbf"]), "--id", ds.keys[0].id, "--score", "1.5"])


# score 0 reaches a stage of every kind, so the id is hashed
@pytest.mark.parametrize("method, score", [("standard", [])] + [
    (method, ["--score", "0"]) for method in sorted(BUILD_ARGS)])
def test_query_of_an_id_that_is_not_utf8_exits_with_one_line(method, score, built):
    _, paths = built
    with pytest.raises(SystemExit) as exc:  # argv decodes byte 0xff as a lone surrogate
        main(["query", "--filter", str(paths[method]), "--id", "\udcff"] + score)
    assert str(exc.value).startswith("bad --id: ")
    assert "surrogates not allowed" in str(exc.value) and "\n" not in str(exc.value)


@pytest.mark.parametrize("method", sorted(TUNERS))
def test_tune_calls_the_tuner_it_names(method, data, tmp_path, wrapped_tuners):
    assert main(["tune", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
                 "--report", str(tmp_path / "r.json")] + GRID_FLAGS[method]) == 0
    calls = {name: m.call_count for name, m in wrapped_tuners.items()}
    assert calls == {name: int(name == TUNERS[method]) for name in TUNERS.values()}


@pytest.mark.parametrize("method", sorted(TUNERS))
def test_tune_report_equals_the_tuner(method, data, tmp_path):
    report = tmp_path / "r.json"
    assert main(["tune", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
                 "--seed", "2", "--model-bits", "300", "--report", str(report)]
                + GRID_FLAGS[method]) == 0
    body = json.loads(report.read_text())
    res = getattr(tuning, TUNERS[method])(
        load_scored_csv(data), 12_000, seed=2, model_bits=300,
        **{name: GRID_ARGS[name] for name in tuning.GRIDS[method]})
    for key, want in [("chosen", res.params), ("fpr", res.fpr),
                      ("candidates", res.candidates), ("grids", res.grids)]:
        assert json.dumps(body[key]) == json.dumps(want), key


def test_bench_csv_equals_run_sweep(data, tmp_path):
    out = tmp_path / "b.csv"
    assert main(["bench", "--data", str(data), "--budgets", "8kb,12kb", "--seeds", "1,2",
                 "--tau-grid", "0.5,0.7,0.8", "--kmax-grid", "3,5", "--c-grid", "1.5,2",
                 "--g-grid", "3,4", "--out", str(out)]) == 0
    rows = run_sweep(load_scored_csv(data), [8000, 12_000], METHODS, [1, 2], **GRID_ARGS)
    assert {row.method for row in rows} == set(METHODS)
    assert all(row.status.startswith("ok") for row in rows)
    assert out.read_text() == rows_to_csv(rows)


@pytest.mark.parametrize("command", ["bench", "tune"])
@pytest.mark.parametrize("flag, value", [("--tau-grid", "0.5,x"), ("--kmax-grid", "3,x"),
                                         ("--kmax-grid", "3.5"), ("--c-grid", ","),
                                         ("--g-grid", "")])
def test_malformed_grid_flag_exits_with_message(command, flag, value, data, tmp_path):
    args = {"bench": ["bench", "--budgets", "12kb", "--out", str(tmp_path / "b.csv")],
            "tune": ["tune", "--method", "ada", "--bitmap-bits", "12kb",
                     "--report", str(tmp_path / "r.json")]}[command]
    with pytest.raises(SystemExit, match=f"^bad {flag}: "):
        main(args + ["--data", str(data), flag, value])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("method, flag, value", [("lbf", "--kmax-grid", "3"),
                                                  ("sandwich", "--c-grid", "2"),
                                                  ("ada", "--g-grid", "3"),
                                                  ("disjoint", "--tau-grid", "0.5")])
def test_tune_rejects_a_grid_flag_the_method_does_not_take(method, flag, value, data, tmp_path):
    with pytest.raises(SystemExit, match=f"^bad {flag}: method '{method}' takes no such grid"):
        main(["tune", "--method", method, "--data", str(data), "--bitmap-bits", "12kb",
              "--report", str(tmp_path / "r.json"), flag, value])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["bench", "tune"])
@pytest.mark.parametrize("flag, value, method", [
    ("--tau-grid", "0.5,1.5", "lbf"), ("--tau-grid", "-0.1", "sandwich"),
    ("--tau-grid", "nan", "lbf"), ("--kmax-grid", "3,-1", "ada"), ("--c-grid", "2,1", "ada"),
    ("--c-grid", "0.5", "disjoint"), ("--c-grid", "nan", "disjoint"), ("--g-grid", "0,3", "disjoint")])
def test_out_of_range_grid_value_exits_with_message(command, flag, value, method, data, tmp_path):
    args = {"bench": ["bench", "--budgets", "12kb", "--out", str(tmp_path / "b.csv")],
            "tune": ["tune", "--method", method, "--bitmap-bits", "12kb",
                     "--report", str(tmp_path / "r.json")]}[command]
    with pytest.raises(SystemExit, match=f"^bad {flag}: .* must be "):
        main(args + ["--data", str(data), flag, value])
    assert not any(tmp_path.iterdir())


def test_bound_prints_each_function_value(capsys):
    main(["bound", "--op", "eq3", "--c", "2", "--alpha", "0.3", "--g", "3", "--k-max", "4"])
    assert capsys.readouterr().out.strip() == repr(fpr_upper_bound(2.0, 0.3, 3, 4))
    # c**g overflows a double here; the bound itself is about 3.8e-92
    main(["bound", "--op", "eq3", "--c", "2", "--alpha", "0.9", "--g", "2000", "--k-max", "1999"])
    assert math.isclose(float(capsys.readouterr().out), 3.8188e-92, rel_tol=1e-4)
    main(["bound", "--op", "lemma1", "--k-groups", "5", "--epsilon", "0.1", "--delta", "0.05"])
    assert capsys.readouterr().out.strip() == str(min_sample_size(5, 0.1, 0.05))
    main(["bound", "--op", "sandwich-alloc", "--fp", "0.01", "--fn", "0.5", "--budget", "8"])
    b1, b2 = sandwich_allocate(0.01, 0.5, 8.0)
    assert capsys.readouterr().out.strip() == f"b1={b1!r} b2={b2!r}"
    main(["bound", "--op", "disjoint-alloc", "--bitmap-bits", "2000",
          "--n-per-group", "100,100,50", "--c", "2", "--g", "3"])
    shares = allocate_disjoint(2000, [100, 100, 50], 2.0, 3)
    assert capsys.readouterr().out.strip() == ",".join(map(str, shares))


# one full, valid flag set per ``bound`` op
BOUND_ARGS = {
    "eq3": ["--c", "2", "--alpha", "0.3", "--g", "3", "--k-max", "4"],
    "lemma1": ["--k-groups", "5", "--epsilon", "0.1", "--delta", "0.05"],
    "sandwich-alloc": ["--fp", "0.01", "--fn", "0.5", "--budget", "8"],
    "disjoint-alloc": ["--bitmap-bits", "2000", "--n-per-group", "100,100,50", "--c", "2",
                       "--g", "3"],
}


@pytest.mark.parametrize("op, argv, message", [
    ("eq3", ["--c", "2"], "--alpha is required for op 'eq3'"),
    ("lemma1", BOUND_ARGS["lemma1"][:4], "--delta is required for op 'lemma1'"),
    ("sandwich-alloc", ["--fp", "0.01", "--budget", "8"],
     "--fn is required for op 'sandwich-alloc'"),
    ("disjoint-alloc", BOUND_ARGS["disjoint-alloc"][:2] + BOUND_ARGS["disjoint-alloc"][4:],
     "--n-per-group is required for op 'disjoint-alloc'"),
    ("eq3", BOUND_ARGS["eq3"] + ["--fp", "0.1"], "bad --fp: op 'eq3' takes no such parameter"),
    ("lemma1", BOUND_ARGS["lemma1"] + ["--c", "2"], "bad --c: op 'lemma1' takes no such parameter"),
    ("sandwich-alloc", BOUND_ARGS["sandwich-alloc"] + ["--g", "3"],
     "bad --g: op 'sandwich-alloc' takes no such parameter"),
    ("disjoint-alloc", BOUND_ARGS["disjoint-alloc"] + ["--alpha", "0.3"],
     "bad --alpha: op 'disjoint-alloc' takes no such parameter"),
    ("eq3", ["--c", "0.5"] + BOUND_ARGS["eq3"][2:],
     "cannot evaluate eq3: ratio c must be > 1, got 0.5"),
    ("lemma1", ["--k-groups", "1"] + BOUND_ARGS["lemma1"][2:],
     "cannot evaluate lemma1: bound needs k_groups >= 2, got 1"),
    ("sandwich-alloc", ["--fp", "0"] + BOUND_ARGS["sandwich-alloc"][2:],
     "cannot evaluate sandwich-alloc: f_p must be in (0, 1), got 0.0"),
    ("disjoint-alloc", BOUND_ARGS["disjoint-alloc"][:2] + ["--n-per-group", "100,100"]
     + BOUND_ARGS["disjoint-alloc"][4:],
     "cannot evaluate disjoint-alloc: need 3 key counts, got 2"),
    ("disjoint-alloc", BOUND_ARGS["disjoint-alloc"][:2] + ["--n-per-group", ","]
     + BOUND_ARGS["disjoint-alloc"][4:], "bad --n-per-group: no values"),
    ("eq3", BOUND_ARGS["eq3"][:4] + ["--g", "2000", "--k-max", "4"],
     "cannot evaluate eq3: k_max=4 < g - 1 = 1999: hash counts would go negative")])
def test_bound_refuses_with_one_line(op, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--op", op] + argv)
    assert str(exc.value) == message
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["--keys", "-5", "--nonkeys", "10"], "cannot generate: n and m must be >= 0"),
    (["--keys", "10", "--nonkeys", "10", "--key-beta", "0,1"],
     "cannot generate: key_shape parameters must be finite and > 0, got (0.0, 1.0)"),
    (["--keys", "10", "--nonkeys", "10", "--nonkey-beta", "nan,2"],
     "cannot generate: nonkey_shape parameters must be finite and > 0, got (nan, 2.0)")])
def test_gen_refuses_with_one_line(argv, message, tmp_path, capsys):
    out = tmp_path / "ds.csv"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--out", str(out)] + argv)
    assert str(exc.value) == message
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["query", "--filter", "{lbf}", "--id", "x", "--score", "abc"],
     "bad --score: could not convert string to float: 'abc'"),
    (["gen", "--keys", "abc", "--nonkeys", "10", "--out", "{out}"],
     "bad --keys: invalid literal for int() with base 10: 'abc'"),
    (["gen", "--keys", "10", "--nonkeys", "10", "--key-beta", "1", "--out", "{out}"],
     "bad --key-beta: expected two comma-separated shapes, got '1'"),
    (["gen", "--keys", "10", "--nonkeys", "10", "--key-beta", ",", "--out", "{out}"],
     "bad --key-beta: no values")])
def test_a_value_a_typed_flag_cannot_parse_exits_with_one_line(argv, message, built, tmp_path,
                                                                capsys):
    out = tmp_path / "ds.csv"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(lbf=built[1]["lbf"], out=out) for arg in argv])
    assert str(exc.value) == message
    assert capsys.readouterr() == ("", "")
    assert not out.exists()


def test_every_typed_flag_refuses_junk_in_one_line():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    typed = [(command, action) for command, parser in sub.choices.items()
             for action in parser._actions if action.type is not None]
    assert len(typed) > 20
    for command, action in typed:
        flag = action.option_strings[0]
        with pytest.raises(SystemExit, match=f"^bad {flag}: "):
            action.type("junk")


def _flag_names(command):
    """The ``--`` flags of ``adabloom <command>`` as argument names, ``--help`` aside."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt[2:].replace("-", "_") for action in sub.choices[command]._actions
            for opt in action.option_strings if opt.startswith("--") and opt != "--help"}


def test_build_and_bound_flags_are_the_tables_names():
    fixed = {"method", "data", "bitmap_bits", "model_bits", "seed", "out"}
    assert _flag_names("build") - fixed == {n for names in tuning.PARAMS.values() for n in names}
    assert _flag_names("bound") - {"op"} == {n for _, flags, _ in cli._BOUNDS.values()
                                             for n in flags}


def test_tune_exits_with_one_line_when_the_tuner_refuses(data, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--method", "ada", "--data", str(data), "--bitmap-bits", "0",
              "--report", str(tmp_path / "r.json")])
    assert str(exc.value) == "cannot tune ada: bitmap_bits must be >= 1, got 0"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("content", [None, b"not a filter container", b""])
def test_query_of_a_missing_or_junk_file_exits_with_one_line(content, tmp_path):
    path = tmp_path / "f.adbf"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["query", "--filter", str(path), "--id", "x", "--score", "0.5"])
    assert str(exc.value).startswith(f"cannot load {path}: ")
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("flag, value, message", [
    ("--methods", "lbf,bogus", "unknown methods ['bogus']"),
    ("--methods", ",", "no values"),
    ("--budgets", ",", "no values"),
    ("--budgets", "3x", "invalid literal"),
    ("--seeds", "a", "invalid literal")])
def test_bench_refuses_a_bad_list_before_loading_data(flag, value, message, data, tmp_path):
    with mock.patch.object(cli, "load_scored_csv", side_effect=AssertionError("loaded")):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(data), "--budgets", "12kb", "--out",
                  str(tmp_path / "b.csv"), flag, value])
    assert str(exc.value).startswith(f"bad {flag}: ") and message in str(exc.value)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["build", "tune", "bench"])
@pytest.mark.parametrize("content, message", [
    (None, "No such file"), ("id,score\n", "expected header"),
    ("id,score,label\nk1,0.5,key\nk1,0.6,key\n", "line 3: duplicate id"),
    ('id,score,label\nk1,"2\n",key\n', "line 2: score '2\\n' outside [0, 1]"),
    pytest.param("id,score,label\n" + "k" * 200_000 + ",0.5,key\n",
                 "line 2: field larger than field limit", id="200k-char-id")])
def test_a_missing_or_malformed_data_file_exits_with_one_line(command, content, message,
                                                               tmp_path):
    path = tmp_path / "in" / "data.csv"
    path.parent.mkdir()
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out"
    out.mkdir()
    args = {"build": ["--method", "lbf", "--tau", "0.5", "--bitmap-bits", "12kb",
                      "--out", str(out / "f.adbf")],
            "tune": ["--method", "lbf", "--bitmap-bits", "12kb", "--report", str(out / "r.json")],
            "bench": ["--budgets", "12kb", "--out", str(out / "b.csv")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", str(path)] + args)
    assert str(exc.value).startswith(f"cannot load {path}: ") and message in str(exc.value)
    assert "\n" not in str(exc.value)
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, args", [
    ("gen", ["--keys", "30", "--nonkeys", "30", "--out"]),
    ("build", ["--method", "lbf", "--tau", "0.5", "--bitmap-bits", "2kb", "--out"]),
    ("tune", ["--method", "lbf", "--tau-grid", "0.5", "--bitmap-bits", "2kb", "--report"]),
    ("bench", ["--methods", "lbf", "--tau-grid", "0.5", "--budgets", "2kb", "--out"])])
def test_an_unwritable_output_path_exits_with_one_line(command, args, data, tmp_path, capsys):
    path = tmp_path / "missing" / "out"
    data_args = [] if command == "gen" else ["--data", str(data)]
    with pytest.raises(SystemExit) as exc:
        main([command] + data_args + args + [str(path)])
    assert str(exc.value).startswith(f"cannot write {path}: ") and "No such file" in str(exc.value)
    assert "\n" not in str(exc.value)
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("where", ["missing", "file", "directory"])
@pytest.mark.parametrize("command, args", [
    ("gen", ["--keys", "30", "--nonkeys", "30", "--out"]),
    ("build", ["--method", "lbf", "--tau", "0.5", "--bitmap-bits", "2kb", "--out"]),
    ("tune", ["--method", "lbf", "--tau-grid", "0.5", "--bitmap-bits", "2kb", "--report"]),
    ("bench", ["--methods", "lbf", "--tau-grid", "0.5", "--budgets", "2kb", "--out"])])
def test_an_unwritable_output_path_is_refused_before_any_work(command, args, where, data,
                                                              tmp_path, capsys):
    path = tmp_path / where / "out"
    if where == "file":
        path.parent.write_bytes(b"kept")
    elif where == "directory":  # the output path is itself a directory
        path.mkdir(parents=True)
    named = path if where == "directory" else path.parent  # the path the message names
    data_args = [] if command == "gen" else ["--data", str(data)]
    work = ("gen_synthetic", "load_scored_csv", "run_sweep", "tune", "build")
    with mock.patch.multiple(cli, **{name: mock.DEFAULT for name in work}) as patched, \
            pytest.raises(SystemExit) as exc:
        for stub in patched.values():
            stub.side_effect = AssertionError("work before the output path was checked")
        main([command] + data_args + args + [str(path)])
    reason = {"missing": "No such file or directory", "file": "Not a directory",
              "directory": "Is a directory"}[where]
    assert str(exc.value).startswith(f"cannot write {path}: ")
    assert str(exc.value).endswith(f"{reason}: {str(named)!r}")
    assert capsys.readouterr().out == ""
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == {
        "missing": [], "file": ["file"], "directory": ["directory", "directory/out"]}[where]
    assert where != "file" or path.parent.read_bytes() == b"kept"


@pytest.mark.parametrize("writer, value, error", [
    (save_filter, object(), TypeError),
    (write_csv, [object()], AttributeError),
    (cli._write_json, {"x": object()}, TypeError)], ids=["filter", "csv", "json"])
def test_a_failed_write_leaves_no_file_and_keeps_an_old_one(writer, value, error, tmp_path):
    old = tmp_path / "old"
    old.write_bytes(b"ADBF\x01 kept")
    for path in (old, tmp_path / "new"):
        with pytest.raises(error):
            writer(value, path)
    assert old.read_bytes() == b"ADBF\x01 kept"
    assert [p.name for p in tmp_path.iterdir()] == ["old"]


@pytest.mark.parametrize("command, argv, message", [
    ("build", ["--method", "lbf", "--tau", "0.5", "--model-bits=-500"],
     "bad --model-bits: budget must be >= 0, got '-500'"),
    ("tune", ["--method", "lbf", "--model-bits=-500"],
     "bad --model-bits: budget must be >= 0, got '-500'"),
    ("bench", ["--methods", "lbf", "--model-bits=-500"],
     "bad --model-bits: budget must be >= 0, got '-500'"),
    ("bench", ["--budgets=-5kb,0"], "bad --budgets: budget must be >= 0, got '-5kb'"),
    ("bench", ["--budgets", "0,2kb"], "bad --budgets: budgets must be >= 1 bit, got [0]"),
    ("build", ["--method", "lbf", "--tau", "0.5", "--bitmap-bits=-1"],
     "bad --bitmap-bits: budget must be >= 0, got '-1'")])
def test_a_negative_count_exits_with_one_line(command, argv, message, data, tmp_path, capsys):
    defaults = {"build": ["--bitmap-bits", "2kb", "--out", str(tmp_path / "f.adbf")],
                "tune": ["--bitmap-bits", "2kb", "--report", str(tmp_path / "r.json")],
                "bench": ["--budgets", "2kb", "--out", str(tmp_path / "b.csv")]}[command]
    with mock.patch.object(cli, "load_scored_csv", side_effect=AssertionError), \
            pytest.raises(SystemExit) as exc:  # a later flag overrides the default
        main([command, "--data", str(data)] + defaults + argv)
    assert str(exc.value) == message
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, argv, message", [
    ("bound", ["--op", "eq3", "--c", "{v}", "--alpha", "0.3", "--g", "3", "--k-max", "4"],
     "cannot evaluate eq3: ratio c must be finite, got {v}"),
    ("bound", ["--op", "sandwich-alloc", "--fp", "0.1", "--fn", "0.2", "--budget", "{v}"],
     "cannot evaluate sandwich-alloc: budget must be finite and >= 0, got {v}"),
    ("bound", ["--op", "disjoint-alloc", "--bitmap-bits", "1000", "--n-per-group", "10,10,10",
               "--c", "{v}", "--g", "3"],
     "cannot evaluate disjoint-alloc: ratio c must be finite, got {v}"),
    ("bound", ["--op", "disjoint-alloc", "--bitmap-bits", "{v}kb", "--n-per-group", "10,10",
               "--c", "2", "--g", "2"], "bad --bitmap-bits: budget must be finite, got '{v}kb'"),
    ("build", ["--method", "ada", "--k-max", "4", "--c", "{v}"],
     "cannot build ada: ratio c must be finite, got {v}"),
    ("build", ["--method", "disjoint", "--g", "4", "--c", "{v}"],
     "cannot build disjoint: ratio c must be finite, got {v}"),
    ("build", ["--method", "disjoint", "--g", "1", "--c", "{v}"],
     "cannot build disjoint: ratio c must be finite, got {v}"),
    ("build", ["--method", "lbf", "--tau", "0.5", "--bitmap-bits", "{v}kb"],
     "bad --bitmap-bits: budget must be finite, got '{v}kb'"),
    ("build", ["--method", "lbf", "--tau", "0.5", "--model-bits", "{v}kb"],
     "bad --model-bits: budget must be finite, got '{v}kb'"),
    ("tune", ["--method", "ada", "--c-grid", "{v}"],
     "bad --c-grid: c must be finite and > 1, got {v}"),
    ("tune", ["--method", "lbf", "--bitmap-bits", "{v}kb"],
     "bad --bitmap-bits: budget must be finite, got '{v}kb'"),
    ("bench", ["--c-grid", "2,{v}"], "bad --c-grid: c must be finite and > 1, got {v}"),
    ("bench", ["--budgets", "8kb,{v}kb"], "bad --budgets: budget must be finite, got '{v}kb'")])
def test_a_non_finite_value_exits_with_one_line(command, argv, message, value, data, tmp_path,
                                                 capsys):
    defaults = {"build": ["--data", str(data), "--bitmap-bits", "12kb",
                          "--out", str(tmp_path / "f.adbf")],
                "tune": ["--data", str(data), "--bitmap-bits", "12kb",
                         "--report", str(tmp_path / "r.json")],
                "bench": ["--data", str(data), "--budgets", "8kb",
                          "--out", str(tmp_path / "b.csv")],
                "bound": []}[command]
    with pytest.raises(SystemExit) as exc:  # a later flag overrides the default
        main([command] + defaults + [arg.format(v=value) for arg in argv])
    assert str(exc.value) == message.format(v=value)
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())


def test_query_of_a_container_with_a_huge_hash_count_exits_at_once(tmp_path):
    # 47 bytes: 64 bits, all set, k = 2**31; each hit would probe 2**31 bits
    path = tmp_path / "huge-k.adbf"
    path.write_bytes(b"ADBF" + struct.pack("<HBQQIQI", 1, 1, 7, 64, 2**31, 1, 0) + b"\xff" * 8)
    assert path.stat().st_size == 47
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["query", "--filter", str(path), "--id", "x"])
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value) == (f"cannot load {path}: invalid filter parameters: "
                              f"hash count k must be <= 1048576, got {2**31}")


def test_build_refuses_a_hash_count_past_the_bound(data, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--method", "standard", "--data", str(data), "--bitmap-bits", "12kb",
              "--k", str(2**20 + 1), "--out", str(tmp_path / "f.adbf")])
    assert str(exc.value) == "cannot build standard: hash count k must be <= 1048576, got 1048577"
    assert not any(tmp_path.iterdir())
