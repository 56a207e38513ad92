"""Command-line interface: dataset generation, builds, queries, sweeps.

Run ``adabloom <subcommand> --help`` (or ``python -m adabloom``) for
per-command flags. Budgets and bit sizes accept a ``kb`` suffix for
kilobits (1 Kb = 1000 bits).
"""

from __future__ import annotations

import argparse
import json
import sys

from .adaptive import fpr_upper_bound
from .bench import METHODS, parse_budget, run_sweep, write_csv
from .disjoint import allocate_disjoint
from .learned import sandwich_allocate
from .scores import gen_synthetic, load_scored_csv, min_sample_size, save_scored_csv
from .serialize import load_filter, save_filter
from .tuning import GRIDS, PARAMS, build, check_grid, check_model_bits, tune


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


# every grid override, with its element type
_GRID_KINDS = {name: kind for names in GRIDS.values() for name, kind in names.items()}


def _grids(args, taken=None) -> dict:
    """The grid overrides given on the command line, typed as ``GRIDS`` names them.

    Exits ``bad --<flag>: …`` on a flag outside ``taken`` (the names a
    method takes, None for any), a malformed or empty list, or a value
    ``check_grid`` rejects.
    """
    grids = {}
    for name, kind in _GRID_KINDS.items():
        text = getattr(args, name)
        if text is None:
            continue
        try:
            if taken is not None and name not in taken:
                raise ValueError(f"method {args.method!r} takes no such grid")
            grids[name] = [kind(x) for x in text.split(",") if x.strip()]
            if not grids[name]:
                raise ValueError("no values")
            check_grid(name, grids[name])
        except ValueError as exc:
            raise SystemExit(f"bad --{name.replace('_', '-')}: {exc}") from exc
    return grids


def _beta_pair(text: str) -> tuple[float, float]:
    parts = _floats(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated shapes, got {text!r}")
    return parts[0], parts[1]


def _cmd_gen(args) -> int:
    dataset = gen_synthetic(args.keys, args.nonkeys, args.key_beta, args.nonkey_beta, args.seed)
    save_scored_csv(dataset, args.out)
    print(f"wrote {len(dataset)} items ({dataset.n} keys, {dataset.m} nonkeys) to {args.out}")
    return 0


def _cmd_build(args) -> int:
    taken = PARAMS[args.method]
    params = {name: getattr(args, name) for name in taken if getattr(args, name) is not None}
    for name in (n for names in PARAMS.values() for n in names):
        flag = "--" + name.replace("_", "-")
        if getattr(args, name) is not None and name not in taken:
            raise SystemExit(f"bad {flag}: method {args.method!r} takes no such parameter")
        if name in taken and name not in params and name not in ("k", "k_min"):
            raise SystemExit(f"{flag} is required for method {args.method!r}")
    try:
        check_model_bits(args.method, args.model_bits)
    except ValueError as exc:
        raise SystemExit(f"bad --model-bits: {exc}") from exc
    dataset = load_scored_csv(args.data)
    try:
        filt = build(args.method, dataset, args.bitmap_bits, args.seed, args.model_bits, **params)
    except ValueError as exc:
        raise SystemExit(f"cannot build {args.method}: {exc}") from exc
    save_filter(filt, args.out)
    print(f"built {args.method} filter over {dataset.n} keys, saved to {args.out}")
    return 0


def _cmd_query(args) -> int:
    filt = load_filter(args.filter)
    try:
        positive = filt.contains(args.id, args.score)
    except ValueError as exc:
        if args.score is None:
            raise SystemExit("--score is required for learned filter kinds") from exc
        raise SystemExit(f"bad --score: {exc}") from exc
    print("positive" if positive else "negative")
    return 0 if positive else 1


def _cmd_bench(args) -> int:
    grids = _grids(args)
    dataset = load_scored_csv(args.data)
    rows = run_sweep(dataset, [parse_budget(b) for b in args.budgets.split(",")],
                     args.methods.split(","), _ints(args.seeds),
                     model_bits=args.model_bits, timing=args.timing, **grids)
    write_csv(rows, args.out)
    ok = sum(1 for row in rows if row.status.startswith("ok"))
    print(f"wrote {len(rows)} rows ({ok} ok) to {args.out}")
    return 0


def _cmd_tune(args) -> int:
    grids = _grids(args, GRIDS[args.method])
    dataset = load_scored_csv(args.data)
    res = tune(args.method, dataset, args.bitmap_bits, args.seed, args.model_bits, **grids)
    report = {
        "method": res.method,
        "chosen": res.params,
        "fpr": res.fpr,
        "bitmap_bits": res.bitmap_bits,
        "model_bits": res.model_bits,
        "total_bits": res.total_bits,
        "seed": args.seed,
        "dataset_fingerprint": dataset.fingerprint(),
        "grids": res.grids,
        "candidates": res.candidates,
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"best {args.method}: {res.params} fpr={res.fpr:.6g}; report at {args.report}")
    return 0


def _cmd_bound(args) -> int:
    if args.op == "eq3":
        value = fpr_upper_bound(args.c, args.alpha, args.g, args.k_max)
        print(f"{value!r}")
    elif args.op == "lemma1":
        print(min_sample_size(args.k_groups, args.epsilon, args.delta))
    elif args.op == "sandwich-alloc":
        b1, b2 = sandwich_allocate(args.fp, args.fn, args.budget)
        print(f"b1={b1!r} b2={b2!r}")
    else:  # disjoint-alloc
        shares = allocate_disjoint(args.bitmap_bits, _ints(args.n_per_group), args.c, args.g)
        print(",".join(str(x) for x in shares))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adabloom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scored dataset CSV")
    p.add_argument("--keys", type=int, required=True)
    p.add_argument("--nonkeys", type=int, required=True)
    p.add_argument("--key-beta", type=_beta_pair, default=(3.0, 1.0), metavar="A,B")
    p.add_argument("--nonkey-beta", type=_beta_pair, default=(1.0, 3.0), metavar="A,B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="build one filter and serialize it")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bitmap-bits", type=parse_budget, required=True)
    p.add_argument("--model-bits", type=parse_budget, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None, help="standard: hash count (default optimal)")
    p.add_argument("--tau", type=float, default=None, help="lbf/sandwich: score threshold")
    p.add_argument("--k-max", type=int, default=None, help="ada: largest hash count")
    p.add_argument("--k-min", type=int, default=None, help="ada: smallest hash count (default 0)")
    p.add_argument("--c", type=float, default=None, help="ada/disjoint: non-key count ratio")
    p.add_argument("--g", type=int, default=None, help="disjoint: group count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a serialized filter")
    p.add_argument("--filter", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--score", type=float, default=None)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="FPR-vs-memory sweep, output CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--budgets", required=True, help="comma list of total bits (kb suffix ok)")
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--seeds", default="0")
    p.add_argument("--model-bits", type=parse_budget, default=0)
    for name in _GRID_KINDS:
        p.add_argument("--" + name.replace("_", "-"), default=None)
    p.add_argument("--timing", action="store_true",
                   help="fill timing columns (off by default so output is reproducible)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tune", help="hyper-parameter search, output JSON report")
    p.add_argument("--method", choices=list(GRIDS), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--bitmap-bits", type=parse_budget, required=True)
    p.add_argument("--model-bits", type=parse_budget, default=0)
    p.add_argument("--seed", type=int, default=0)
    for name in _GRID_KINDS:
        p.add_argument("--" + name.replace("_", "-"), default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("bound", help="evaluate the analytical formulas standalone")
    p.add_argument("--op", choices=["eq3", "lemma1", "sandwich-alloc", "disjoint-alloc"],
                   required=True)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--k-groups", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--fp", type=float, default=None)
    p.add_argument("--fn", type=float, default=None)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--bitmap-bits", type=parse_budget, default=None)
    p.add_argument("--n-per-group", default=None)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
