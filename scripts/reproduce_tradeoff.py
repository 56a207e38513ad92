#!/usr/bin/env python3
"""Reproduce the FPR-vs-memory trade-off across all five filter methods.

Generates a synthetic scored dataset (50k keys / 50k non-keys by
default), tunes and builds every method at each total memory budget,
and writes one CSV row per (method, budget, seed). Finishes with a
pivot of empirical FPR by method and budget on stdout.

    python3 scripts/reproduce_tradeoff.py --out results.csv
    python3 scripts/reproduce_tradeoff.py --quick --out quick.csv

Flags are checked as ``adabloom bench`` checks them, before any work: a
key or non-key count that is not an integer >= 0, a seed that is not an
integer, a budget that is not a finite number of Kb, or is below 1 bit,
and an ``--out`` whose directory is missing each end the run with one
line on stderr.
"""

import argparse
import sys
import time
from collections import defaultdict

from adabloom.bench import METHODS, check_budgets, parse_budget, run_sweep, write_csv
from adabloom.cli import _add_typed, _check_output, _list, _save
from adabloom.scores import gen_synthetic


def _count(text: str) -> int:
    """An item count: an integer >= 0, or ValueError."""
    n = int(text)
    if n < 0:
        raise ValueError(f"count must be >= 0, got {n}")
    return n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    _add_typed(parser, "--keys", _count, default=50_000)
    _add_typed(parser, "--nonkeys", _count, default=50_000)
    _add_typed(parser, "--seed", int, default=7)
    _add_typed(parser, "--budgets-kb", _list(lambda kb: parse_budget(kb + "kb"), check_budgets),
               default="50,100,150,200,250,300,350,400,450,500")
    parser.add_argument("--quick", action="store_true",
                        help="coarser grids and every (len // 3)-th budget, for a fast look; "
                             "of the ten default budgets that runs four: 50, 200, 350 and 500 Kb")
    parser.add_argument("--out", default="tradeoff.csv")
    args = parser.parse_args()
    _check_output(args.out)

    dataset = gen_synthetic(args.keys, args.nonkeys, seed=args.seed)
    budgets = args.budgets_kb
    grids = {}
    if args.quick:
        budgets = budgets[:: max(1, len(budgets) // 3)]
        grids = dict(tau_grid=(0.3, 0.5, 0.7, 0.8, 0.9),
                     kmax_grid=(4, 8, 12), c_grid=(1.6, 2.2, 2.8), g_grid=(4, 8, 12))

    t0 = time.perf_counter()
    rows = run_sweep(dataset, budgets, METHODS, seeds=[args.seed], timing=True, **grids)
    elapsed = time.perf_counter() - t0

    _save(write_csv, rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out} in {elapsed:.0f}s\n")

    by_budget = defaultdict(dict)
    for row in rows:
        by_budget[row.total_bits][row.method] = row.empirical_fpr
    header = "budget(kb) " + " ".join(f"{m:>10}" for m in METHODS)
    print(header)
    for budget in sorted(by_budget):
        cells = " ".join(f"{by_budget[budget].get(m, float('nan')):>10.2e}" for m in METHODS)
        print(f"{budget / 1000:>10.0f} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
