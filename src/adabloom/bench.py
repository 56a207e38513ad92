"""Benchmark harness: FPR-vs-memory sweeps over all five filter methods.

Budgets are total memory in bits. Learned methods spend part of the
budget on their score model (bitmap = budget - model_bits); the
standard baseline has no model, so for a fair comparison it receives
the full budget as bitmap, matching how the learned methods are charged.

Every (budget, method, seed) cell tunes its hyper-parameters, builds
the winning filter, and measures empirical FPR over all dataset
non-keys plus FNR over all keys (which must come out exactly zero).
Infeasible cells produce a diagnostic row, never a silent gap. With
timing disabled (the default) identical invocations produce
byte-identical CSV output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .bits import BitVector, HashFamily
from .scores import ScoredDataset
from .standard import StandardBloom, insert_keys, optimal_k
from .tuning import GRIDS, NoFeasibleCandidateError, tune

__all__ = ["SweepRow", "METHODS", "run_sweep", "measure_fpr", "rows_to_csv", "write_csv",
           "CSV_HEADER", "parse_budget"]

METHODS = ("standard", "lbf", "sandwich", "ada", "disjoint")

CSV_HEADER = ("method,total_bits,bitmap_bits,model_bits,empirical_fpr,analytical_fpr,"
              "fnr,build_ms,query_ns_p50,seed,status")


@dataclass
class SweepRow:
    method: str
    total_bits: int
    bitmap_bits: int
    model_bits: int
    empirical_fpr: float
    analytical_fpr: float | None
    fnr: float
    build_ms: float | None
    query_ns_p50: float | None
    seed: int
    status: str

    def csv_line(self) -> str:
        def num(x):
            if x is None or (isinstance(x, float) and math.isnan(x)):
                return ""
            return repr(float(x))

        return ",".join([
            self.method, str(self.total_bits), str(self.bitmap_bits), str(self.model_bits),
            num(self.empirical_fpr), num(self.analytical_fpr), num(self.fnr),
            num(self.build_ms), num(self.query_ns_p50), str(self.seed), self.status,
        ])


def parse_budget(text: str) -> int:
    """Budget in bits; a 'kb' suffix means kilobits (1 Kb = 1000 bits)."""
    text = text.strip().lower()
    if text.endswith("kb"):
        return int(round(float(text[:-2]) * 1000))
    return int(text)


def measure_fpr(filt, negatives) -> tuple[float, int]:
    """(empirical FPR, false positive count) over non-key items."""
    negatives = list(negatives)
    if not negatives:
        raise ValueError("cannot measure FPR over zero negatives")
    if any(it.is_key for it in negatives):
        raise ValueError("negatives must all be labeled nonkey")
    positives = sum(1 for it in negatives if filt.contains(it.id, it.score))
    return positives / len(negatives), positives


def _measure_cell(filt, dataset: ScoredDataset, timing: bool) -> tuple[float, float, float | None]:
    """(empirical fpr, fnr, query_ns) over the whole dataset, batch path."""
    na, nb = dataset.nonkey_pairs(filt.seed)
    fp = filt.contains_batch(na, nb, dataset.nonkey_scores)
    fpr = float(fp.mean()) if dataset.m else 0.0
    ka, kb = dataset.key_pairs(filt.seed)
    hits = filt.contains_batch(ka, kb, dataset.key_scores)
    fnr = 1.0 - (float(hits.mean()) if dataset.n else 1.0)
    query_ns = None
    if timing:
        reps = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            filt.contains_batch(na, nb, dataset.nonkey_scores)
            reps.append((time.perf_counter_ns() - t0) / max(1, dataset.m))
        reps.sort()
        query_ns = reps[1]
    return fpr, fnr, query_ns


def _tuned_filter(method: str, dataset: ScoredDataset, bitmap_bits: int, seed: int,
                  model_bits: int, grids: dict):
    if method == "standard":
        # inserted from the dataset's cached key pairs, not by hashing the ids again
        k = optimal_k(bitmap_bits, dataset.n)
        bloom = StandardBloom(BitVector(max(1, bitmap_bits)), k, HashFamily(seed))
        insert_keys(dataset, seed, ((0.0, math.inf, bloom),))
        return bloom, {"k": k}
    res = tune(method, dataset, bitmap_bits, seed, model_bits, **grids)
    return res.filter, res.params


def run_sweep(dataset: ScoredDataset, budgets, methods, seeds, model_bits: int = 0,
              timing: bool = False, **grids) -> list[SweepRow]:
    """One tuned row per (budget, method, seed), sorted by that triple.

    Grid overrides, named in ``tuning.GRIDS``, pass through to each
    method's tuner. An unknown or empty one raises before any cell runs.
    """
    budgets = [int(b) for b in budgets]
    methods = list(methods)
    seeds = [int(s) for s in seeds]
    if not budgets or not methods or not seeds:
        raise ValueError("budgets, methods and seeds must be non-empty")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    grid_names = {name for names in GRIDS.values() for name in names}
    bad_grids = set(grids) - grid_names
    if bad_grids:
        raise ValueError(f"unknown grid overrides {sorted(bad_grids)}")
    grids = {name: None if values is None else tuple(values) for name, values in grids.items()}
    empty = sorted(name for name, values in grids.items() if values == ())
    if empty:
        raise ValueError(f"empty grid overrides {empty}")

    rows = []
    for method in sorted(methods):
        for budget in sorted(budgets):
            # the standard baseline has no model: it gets the model's
            # share of the budget as extra bitmap instead
            row_model_bits = 0 if method == "standard" else model_bits
            bitmap_bits = budget - row_model_bits
            for seed in sorted(seeds):
                if bitmap_bits <= 0:
                    rows.append(SweepRow(method, budget, max(0, bitmap_bits), row_model_bits,
                                         float("nan"), None, float("nan"), None, None, seed,
                                         f"infeasible: model ({model_bits} bits) exceeds budget"))
                    continue
                t0 = time.perf_counter()
                try:
                    filt, _params = _tuned_filter(method, dataset, bitmap_bits, seed,
                                                  row_model_bits, grids)
                    build_ms = (time.perf_counter() - t0) * 1e3 if timing else None
                    # raises on a key score outside [0, 1], which tuning never queries
                    fpr, fnr, query_ns = _measure_cell(filt, dataset, timing)
                except (NoFeasibleCandidateError, ValueError) as exc:
                    rows.append(SweepRow(method, budget, bitmap_bits, row_model_bits,
                                         float("nan"), None, float("nan"), None, None, seed,
                                         f"infeasible: {exc}"))
                    continue
                status = "ok"
                if method == "sandwich" and filt.reduced_to_lbf:
                    status = "ok-reduced-to-lbf"
                rows.append(SweepRow(method, budget, bitmap_bits, row_model_bits, fpr,
                                     filt.expected_fpr(), fnr, build_ms, query_ns,
                                     seed, status))
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
