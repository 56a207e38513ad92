"""scripts/reproduce_tradeoff.py: its flags, checked before any work."""

import importlib.util
import pathlib
from unittest import mock

import pytest

from adabloom.bench import CSV_HEADER

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tradeoff.py"


@pytest.fixture
def run(monkeypatch):
    """``run(*argv)`` runs the script's ``main`` on ``argv``; ``run.module`` is the script."""
    spec = importlib.util.spec_from_file_location("reproduce_tradeoff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run(*argv):
        monkeypatch.setattr("sys.argv", [str(SCRIPT), *argv])
        return module.main()
    run.module = module
    return run


@pytest.mark.parametrize("value, message", [
    ("-5", "budget must be >= 0, got '-5kb'"),
    ("0", "budgets must be >= 1 bit, got [0]"),
    ("nan", "budget must be finite, got 'nankb'"),
    ("abc", "could not convert string to float: 'abc'"),
    ("1e400", "budget must be finite, got '1e400kb'"),
    (",", "no values")])
def test_bad_budgets_exit_with_one_line_before_any_work(value, message, run, tmp_path, capsys):
    out = tmp_path / "q.csv"
    with mock.patch.object(run.module, "gen_synthetic", side_effect=AssertionError("ran")), \
            pytest.raises(SystemExit) as exc:
        run("--budgets-kb", value, "--out", str(out))
    assert str(exc.value) == f"bad --budgets-kb: {message}"
    assert capsys.readouterr() == ("", "")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--keys", "-5", "count must be >= 0, got -5"),
    ("--nonkeys", "-1", "count must be >= 0, got -1"),
    ("--keys", "abc", "invalid literal for int() with base 10: 'abc'"),
    ("--nonkeys", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ("--seed", "x", "invalid literal for int() with base 10: 'x'")])
def test_bad_sizes_and_seed_exit_with_one_line_before_any_work(flag, value, message, run,
                                                               tmp_path, capsys):
    out = tmp_path / "q.csv"
    with mock.patch.object(run.module, "gen_synthetic", side_effect=AssertionError("ran")), \
            pytest.raises(SystemExit) as exc:
        run(flag, value, "--out", str(out))
    assert str(exc.value) == f"bad {flag}: {message}"
    assert capsys.readouterr() == ("", "")
    assert not out.exists()


def test_sizes_and_seed_reach_the_dataset(run, tmp_path):
    with mock.patch.object(run.module, "gen_synthetic") as gen, \
            mock.patch.object(run.module, "run_sweep", return_value=[]):
        run("--keys", "0", "--nonkeys", "30", "--seed=-2", "--out", str(tmp_path / "q.csv"))
    gen.assert_called_once_with(0, 30, seed=-2)


def test_out_under_a_missing_directory_exits_before_the_sweep(run, tmp_path, capsys):
    out = tmp_path / "missing" / "q.csv"
    with mock.patch.object(run.module, "gen_synthetic", side_effect=AssertionError("ran")), \
            pytest.raises(SystemExit) as exc:
        run("--quick", "--out", str(out))
    assert str(exc.value).startswith(f"cannot write {out}: ")
    assert "\n" not in str(exc.value)
    assert capsys.readouterr() == ("", "")
    assert not out.parent.exists()


def test_quick_runs_the_four_budgets_its_help_names(run, tmp_path, capsys):
    with pytest.raises(SystemExit):
        run("--help")
    assert "50, 200, 350 and 500 Kb" in " ".join(capsys.readouterr().out.split())
    out = tmp_path / "q.csv"
    with mock.patch.object(run.module, "gen_synthetic") as gen, \
            mock.patch.object(run.module, "run_sweep", return_value=[]) as sweep:
        assert run("--quick", "--out", str(out)) == 0
    (dataset, budgets, _), _ = sweep.call_args
    assert dataset is gen.return_value
    assert budgets == [50_000, 200_000, 350_000, 500_000]
    assert out.read_text() == CSV_HEADER + "\n"
