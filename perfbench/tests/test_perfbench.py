"""Tests of the benchmark itself, on its smoke-size inputs.

Run from the repository root: ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import adabloom as ab  # noqa: E402
import workloads  # noqa: E402
from clock import Clock  # noqa: E402

SEED = 5
WORKLOADS = ("sweep", "build", "query")


def _run(workload, trace, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170,
                          check=False)


def _record(proc):
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("record: "))
    with open(os.path.join(ROOT, line.split(" ", 1)[1]), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs():
    """One smoke run per (workload, trace): (process, final JSON line, record)."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = (proc, json.loads(proc.stdout.splitlines()[-1]),
                                    _record(proc))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_errors(runs, spec, workload, trace):
    _, result, record = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workload_metrics_and_machine_record(runs):
    named = {w: runs[w, 0][2]["named"] for w in WORKLOADS}
    assert set(named["sweep"]) == {"sweep_s"}
    assert set(named["build"]) == {"build_keys_per_s"}
    assert {"query_batch_items_per_s", "query_scalar_us_p50", "query_scalar_us_p99"} <= set(
        named["query"])
    # at least ten samples beyond p99
    assert named["query"]["query_scalar_samples"]["value"] >= 1000
    machine = runs["sweep", 0][2]["machine"]
    assert machine["usable_cores"] >= 1 and machine["seed"] == SEED
    assert {"cpu_model", "l2_cache", "l3_cache", "python", "numpy"} <= set(machine)


def test_fingerprint_repeats(runs):
    for workload in WORKLOADS:
        again = _record(_run(workload, 0))
        assert again["fingerprint"] == runs[workload, 0][2]["fingerprint"]
        assert again["fingerprint"] is not None


def test_sweep_equals_direct_run_sweep(runs):
    sizes = workloads.SIZES["smoke"]["sweep"]
    dataset = ab.gen_synthetic(sizes["keys"], sizes["nonkeys"], seed=SEED)
    rows = ab.run_sweep(dataset, sizes["budgets"], workloads.METHODS, [SEED])
    csv = ab.bench.rows_to_csv(rows).encode("utf-8")
    assert runs["sweep", 0][2]["fingerprint"] == hashlib.sha256(csv).hexdigest()
    metrics = runs["sweep", 0][1]["metrics"]
    for method in workloads.METHODS:
        fprs = [row.empirical_fpr for row in rows if row.method == method]
        expect = math.exp(sum(math.log(f) for f in fprs) / len(fprs))
        assert metrics[f"fpr_{method}"]["value"] == expect


def test_sweep_spans_carry_cell_ids(runs):
    with open(runs["sweep", 1][2]["spans_file"], encoding="utf-8") as fh:
        spans = json.load(fh)
    tags = {tag for name, tag in zip(spans["name"], spans["tag"]) if name.startswith("tuning.")}
    assert {f"cell:{m}@{b}" for m in ("lbf", "sandwich", "ada", "disjoint")
            for b in workloads.SIZES["smoke"]["sweep"]["budgets"]} == tags
    assert all(0 <= p < i for i, p in enumerate(spans["parent"]) if p != -1)


def test_checks_count_a_corrupted_filter(tmp_path):
    tally = workloads.Tally()
    wl = workloads.Query(workloads.SIZES["smoke"]["query"], SEED, tally, Clock(),
                         str(tmp_path))
    wl.setup()
    loaded = wl.filters["standard"]
    wl.filters["standard"] = ab.StandardBloom(ab.BitVector(loaded.size_bits), loaded.k,
                                              loaded.family, loaded.n_inserted)
    wl.prepare()
    assert tally.failed == 2  # a false negative and a loaded/saved disagreement
    assert any("false negative (loaded)" in m for m in tally.messages)


def test_fails_without_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
                          check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
