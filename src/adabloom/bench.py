"""Benchmark harness: FPR-vs-memory sweeps over all five filter methods.

Budgets are total memory in bits. Learned methods spend part of the
budget on their score model (bitmap = budget - model_bits); the
standard baseline has no model, so for a fair comparison it receives
the full budget as bitmap, matching how the learned methods are charged.

Every (budget, method, seed) cell is tuned on the score-ordered view
``dataset.by_score()``; its empirical FPR is the tuner's own count over
all the view's non-keys (one count at the optimal k for ``standard``),
its FNR one batch query of the view's keys, which must come out exactly
zero. Infeasible cells produce a diagnostic row, never a silent gap. With
timing disabled (the default) identical invocations produce
byte-identical CSV output.
"""

from __future__ import annotations

import math
import time
import timeit
from dataclasses import astuple, dataclass, fields

import numpy as np

from .bits import is_integer
from .scores import ScoredDataset
from .standard import check_model_count
from .tuning import PARAMS, NoFeasibleCandidateError, _measure, build, check_grids, tune

__all__ = ["SweepRow", "METHODS", "check_budgets", "check_methods", "run_sweep", "rows_to_csv",
           "write_csv", "CSV_HEADER", "parse_budget"]

METHODS = tuple(PARAMS)


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
        """The fields under ``CSV_HEADER``: a float one as ``repr(float(x))``, None or NaN empty."""
        return ",".join("" if x is None or x != x else repr(float(x)) if "float" in str(f.type)
                        else str(x) for f, x in zip(fields(self), astuple(self)))  # x != x: NaN


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def parse_budget(text: str) -> int:
    """Budget in bits; a 'kb' suffix means kilobits (1 Kb = 1000 bits).

    ValueError on a malformed, infinite, NaN or negative value.
    """
    text = text.strip().lower()
    if text.endswith("kb"):
        bits = float(text[:-2]) * 1000
        if not math.isfinite(bits):
            raise ValueError(f"budget must be finite, got {text!r}")
        bits = int(round(bits))
    else:
        bits = int(text)
    if bits < 0:
        raise ValueError(f"budget must be >= 0, got {text!r}")
    return bits


def _query_ns(filt, view: ScoredDataset, seed: int) -> float:
    """Median of three timings of one batch query of the view's non-keys, per item."""
    a, b, rows = *view.nonkey_pairs(seed), view.probe_rows(keys=False)
    reps = timeit.repeat(lambda: filt.contains_batch(a, b, view.nonkey_scores, rows=rows),
                         number=1, repeat=3)
    return sorted(reps)[1] * 1e9 / max(1, view.m)


def check_budgets(budgets) -> None:
    """ValueError naming the ``budgets`` that are not integers (Python or numpy
    ones), or else those below 1 bit, which no filter fits in."""
    fractional = [b for b in budgets if not is_integer(b)]
    if fractional:
        raise ValueError(f"budgets must be integers, got {fractional}")
    small = [b for b in budgets if b < 1]
    if small:
        raise ValueError(f"budgets must be >= 1 bit, got {small}")


def check_methods(methods) -> None:
    """ValueError naming the ``methods`` that ``METHODS`` does not list."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")


def run_sweep(dataset: ScoredDataset, budgets, methods, seeds, model_bits: int = 0,
              timing: bool = False, **grids) -> list[SweepRow]:
    """One tuned row per distinct (budget, method, seed), sorted by method, budget and seed.

    Grid overrides, named in ``tuning.GRIDS``, pass through to each
    method's tuner, which ignores the ones it does not take. A budget or
    seed that is not an integer, a budget below 1 bit, an unknown method, a
    negative ``model_bits`` and an override that ``tuning.check_grids``
    rejects (a keyword no grid names, such as ``holdout_fraction``: a cell
    is tuned and counted on every non-key) raise before any cell runs, as
    does the ``DatasetError`` of a dataset whose scores are first read here.
    """
    budgets, methods, seeds = list(budgets), list(methods), list(seeds)
    if not budgets or not methods or not seeds:
        raise ValueError("budgets, methods and seeds must be non-empty")
    check_budgets(budgets)
    check_methods(methods)
    fractional = [s for s in seeds if not is_integer(s)]
    if fractional:
        raise ValueError(f"seeds must be integers, got {fractional}")
    check_model_count(model_bits)
    grids = check_grids(grids)
    budgets, seeds = [int(b) for b in budgets], [int(s) for s in seeds]

    view = dataset.by_score()
    rows = []
    for method in sorted(set(methods)):
        for budget in sorted(set(budgets)):
            # the standard baseline has no model: it gets the model's
            # share of the budget as extra bitmap instead
            row_model_bits = 0 if method == "standard" else model_bits
            bitmap_bits = budget - row_model_bits
            for seed in sorted(set(seeds)):
                t0 = time.perf_counter()
                try:
                    if bitmap_bits <= 0:
                        raise ValueError(f"model ({model_bits} bits) exceeds budget")
                    if method == "standard":
                        filt = build(method, view, bitmap_bits, seed)
                        fpr = _measure(filt, view) if view.m else 0.0
                    else:
                        res = tune(method, dataset, bitmap_bits, seed, row_model_bits, **grids)
                        filt, fpr = res.filter, res.fpr  # holdout 0: over every non-key
                    build_ms = (time.perf_counter() - t0) * 1e3 if timing else None
                    hits = filt.contains_batch(*view.key_pairs(seed), view.key_scores,
                                               rows=view.probe_rows(keys=True))
                    fnr = 1.0 - (np.count_nonzero(hits) / view.n if view.n else 1.0)
                    query_ns = _query_ns(filt, view, seed) if timing else None
                    analytical = filt.expected_fpr()
                except (NoFeasibleCandidateError, ValueError) as exc:
                    rows.append(SweepRow(method, budget, max(0, bitmap_bits), row_model_bits,
                                         float("nan"), None, float("nan"), None, None, seed,
                                         f"infeasible: {exc}"))
                    continue
                status = "ok"
                if method == "sandwich" and filt.reduced_to_lbf:
                    status = "ok-reduced-to-lbf"
                rows.append(SweepRow(method, budget, bitmap_bits, row_model_bits, fpr,
                                     analytical, fnr, build_ms, query_ns, seed, status))
    return rows


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows, path) -> None:
    """Write ``rows_to_csv(rows)`` to ``path``; rows it refuses open no file."""
    text = rows_to_csv(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
