"""The ``adabloom`` command line, called in-process through ``cli.main``."""

import pytest

from adabloom.adaptive import fpr_upper_bound
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


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """The generated dataset and one saved filter per method."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    assert main(["gen", "--keys", "1500", "--nonkeys", "1500", "--seed", "4",
                 "--out", str(data)]) == 0
    paths = {}
    for method, extra in BUILD_ARGS.items():
        paths[method] = root / f"{method}.adbf"
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
