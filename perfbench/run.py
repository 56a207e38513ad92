#!/usr/bin/env python3
"""Benchmark for adabloom: sweep, build and query workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1              # all three, each in its own process
    python3 perfbench/run.py --workload query --seed 1 --trace 1 --smoke

Set-up is timed several times and the median reported; then passes of
the workload repeat until the next one would end after ``--seconds``
(at least one pass runs). Times are in reference seconds (see clock.py):
work is scaled by the speed of a calibration loop timed alongside it,
because a shared host's speed drifts between runs. Outputs are checked
after every pass. The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``. The full
record, and with ``--trace 1`` the spans, are written under
``perfbench/out/``. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("sweep", "build", "query")
SETUPS = 3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("fpr_standard", "fraction", "lower"),
    ("fpr_lbf", "fraction", "lower"),
    ("fpr_sandwich", "fraction", "lower"),
    ("fpr_ada", "fraction", "lower"),
    ("fpr_disjoint", "fraction", "lower"),
)

NO_WAITING = ("every call comes from one thread of one process, in a closed loop with one "
              "caller; there are no queues, so no layer has a time-waiting metric")


def machine_record(seed: int) -> dict:
    import numpy as np

    record = {"usable_cores": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
              "l2_cache": "unknown", "l3_cache": "unknown",
              "python": platform.python_version(), "numpy": np.__version__, "seed": seed}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                               env={**os.environ, "LC_ALL": "C"}, check=False).stdout
    except (OSError, subprocess.TimeoutExpired):
        lscpu = ""
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            record[key.strip().lower().replace(" ", "_")] = value.strip()
    return record


def _fresh(make):
    """A new workload object, after the previous one's data is collected.

    Every set-up then starts from the same heap, so garbage collection
    does not charge one set-up for the data of the one before.
    """
    gc.collect()
    return make()


def _run_pass(wl, clock, index: int) -> tuple[float, float, float]:
    """One pass, then its checks: (elapsed, unit wall, unit reference) seconds."""
    start = len(clock.samples)
    t0 = time.perf_counter()
    wl.run_pass(index)
    elapsed = time.perf_counter() - t0
    wall, ref = clock.totals(start)
    wl.check_pass(index)
    return elapsed, wall, ref


def measure(make, clock, seconds: float) -> tuple[object, dict]:
    """Untraced run: median of set-ups, then passes for ``seconds``."""
    for _ in range(SETUPS):
        wl = None
        wl = _fresh(make)
        with clock.unit("setup"):
            wl.setup()
    wl.prepare()
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + median(p[0] for p in passes) <= seconds):
        passes.append(_run_pass(wl, clock, len(passes)))
    wl.tail()
    setups = [s for s in clock.samples if s[0] == "setup"]
    return wl, {"setup_wall": [s[1] for s in setups], "setup_ref": [s[2] for s in setups],
                "pass_wall": [p[1] for p in passes], "pass_ref": [p[2] for p in passes]}


def measure_traced(make, clock, name: str, ab, tracing) -> tuple[object, dict, object]:
    """One untraced set-up and fixed pass count, then the same traced.

    The overhead is the traced minus the untraced reference seconds of
    the set-up, the passes and the tail. Checks and the reference answers
    run with tracing paused, so the spans cover only the timed work.
    """
    wl = _fresh(make)
    with clock.unit("setup"):
        wl.setup()
    wl.prepare()
    for index in range(wl.trace_passes):
        _run_pass(wl, clock, index)
    wl.tail()
    untraced = clock.totals()[1]

    wl = None
    wl = _fresh(make)
    traced_from = len(clock.samples)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, ab)
    try:
        with tracer.span(f"{name}.setup", "setup"), clock.unit("setup"):
            wl.setup()
        tracer.enabled = False
        wl.prepare()
        tracer.enabled = True
        pass_ref = []
        for index in range(wl.trace_passes):
            tag = f"batch:{index}" if name == "query" else f"pass:{index}"
            start = len(clock.samples)
            with tracer.span(f"{name}.pass", tag):
                wl.run_pass(index)
            pass_ref.append(clock.totals(start)[1])
            tracer.enabled = False
            wl.check_pass(index)
            tracer.enabled = True
        with tracer.span(f"{name}.tail", "tail"):
            wl.tail()
    finally:
        tracing.uninstall(patches)
    traced = clock.totals(traced_from)[1]
    return wl, {"untraced_ref_s": untraced, "traced_ref_s": traced, "pass_ref": pass_ref}, tracer


def _print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, direction in rows:
        print(f"  {name:<34} {value:>16.6g} {unit:<9} {direction}")


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "adabloom", "__init__.py")):
        print(f"no adabloom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import adabloom as ab
        import tracing
        import workloads
        from clock import Clock
    except ImportError as exc:
        print(f"cannot import adabloom from {SRC}: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    size = "smoke" if args.smoke else "full"
    tally = workloads.Tally()
    clock = Clock()

    def make():
        return workloads.WORKLOADS[args.workload](workloads.SIZES[size][args.workload],
                                                  args.seed, tally, clock, OUT)

    prefix = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": size, "machine": machine_record(args.seed),
              "waiting": NO_WAITING}

    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={size}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    print(f"note: {NO_WAITING}")

    if args.trace:
        wl, timing, tracer = measure_traced(make, clock, args.workload, ab, tracing)
        overhead = timing["traced_ref_s"] - timing["untraced_ref_s"]
        layers = tracing.layer_metrics(tracer, overhead)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        spans_path = os.path.join(OUT, f"trace-{prefix}.json")
        tracer.write(spans_path)
        record.update(timing=timing, spans=tracer.summary(), spans_file=spans_path)
        print(f"spans per layer (count, total s, self s), {wl.trace_passes} traced pass(es):")
        for name, row in sorted(record["spans"].items()):
            print(f"  {name:<30} {row['count']:>8} {row['total_s']:>12.6f} {row['self_s']:>12.6f}")
        print(f"tracing overhead: {overhead:.6f} reference s (traced "
              f"{timing['traced_ref_s']:.6f} - untraced {timing['untraced_ref_s']:.6f})")
        _print_table("per-layer metrics (wall time):",
                     [(n, v, u, "") for n, (v, u) in layers.items()])
        summary = wl.summary(timing["pass_ref"])
    else:
        wl, timing = measure(make, clock, args.seconds)
        summary = wl.summary(timing["pass_ref"])
        values = {
            "setup_s": median(timing["setup_ref"]),
            "pass_s": median(timing["pass_ref"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        values.update({f"fpr_{m}": v for m, v in summary["fpr"].items()})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        record["timing"] = dict(timing, units=clock.samples)
        _print_table(f"end-to-end metrics ({SETUPS} set-ups, {len(timing['pass_ref'])} "
                     f"passes; times in reference seconds; FPR {summary['fpr_kind']}):",
                     [(n, values[n], u, f"{d} is better") for n, u, d in END_TO_END])
        print(f"  (wall time: setup median {median(timing['setup_wall']):.6g} s, "
              f"pass median {median(timing['pass_wall']):.6g} s)")
        _print_table("workload metrics:",
                     [(n, v, u, d if d == "info" else f"{d} is better")
                      for n, (v, u, d) in summary["named"].items()])

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate: {error_rate:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    print(f"fingerprint: {summary['fingerprint']} ({summary['fingerprint_of']})")
    record.update(metrics=metrics, error_rate=error_rate, attempted=tally.attempted,
                  failed=tally.failed, failures=tally.messages,
                  fingerprint=summary["fingerprint"], fingerprint_of=summary["fingerprint_of"],
                  fpr_kind=summary["fpr_kind"],
                  named={n: {"value": v, "unit": u, "better": d}
                         for n, (v, u, d) in summary["named"].items()})
    record_path = os.path.join(OUT, f"{prefix}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {os.path.relpath(record_path, ROOT)}")

    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    results, codes = {}, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        codes[name] = proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        print()
    print("summary:")
    for name, result in results.items():
        if result is None:
            print(f"  {name}: no result (exit status {codes[name]})")
            continue
        values = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in result["metrics"].items())
        print(f"  {name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {values}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; without it all three run, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs of the same shape, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
