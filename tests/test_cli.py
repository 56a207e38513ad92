"""The ``adabloom`` command line, called in-process through ``cli.main``."""

import json

import pytest

from adabloom import tuning
from adabloom.adaptive import fpr_upper_bound
from adabloom.bench import METHODS, rows_to_csv, run_sweep
from adabloom.cli import main
from adabloom.disjoint import allocate_disjoint
from adabloom.learned import sandwich_allocate
from adabloom.scores import load_scored_csv, min_sample_size
from adabloom.serialize import load_filter

BUILD_ARGS = {
    "standard": [],
    "lbf": ["--tau", "0.7"],
    "sandwich": ["--tau", "0.6"],
    "ada": ["--k-max", "4", "--c", "2.0"],
    "disjoint": ["--g", "4", "--c", "2.0"],
}


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


def test_bound_prints_each_function_value(capsys):
    main(["bound", "--op", "eq3", "--c", "2", "--alpha", "0.3", "--g", "3", "--k-max", "4"])
    assert capsys.readouterr().out.strip() == repr(fpr_upper_bound(2.0, 0.3, 3, 4))
    main(["bound", "--op", "lemma1", "--k-groups", "5", "--epsilon", "0.1", "--delta", "0.05"])
    assert capsys.readouterr().out.strip() == str(min_sample_size(5, 0.1, 0.05))
    main(["bound", "--op", "sandwich-alloc", "--fp", "0.01", "--fn", "0.5", "--budget", "8"])
    b1, b2 = sandwich_allocate(0.01, 0.5, 8.0)
    assert capsys.readouterr().out.strip() == f"b1={b1!r} b2={b2!r}"
    main(["bound", "--op", "disjoint-alloc", "--bitmap-bits", "2000",
          "--n-per-group", "100,100,50", "--c", "2", "--g", "3"])
    shares = allocate_disjoint(2000, [100, 100, 50], 2.0, 3)
    assert capsys.readouterr().out.strip() == ",".join(map(str, shares))
