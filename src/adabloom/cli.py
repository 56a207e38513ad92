"""Command-line interface: dataset generation, builds, queries, sweeps, bounds.

Run ``adabloom <subcommand> --help`` (or ``python -m adabloom``) for
per-command flags. Budgets and bit sizes accept a ``kb`` suffix for
kilobits (1 Kb = 1000 bits).

The flags that carry a choice's parameters come from the tables that
state them: ``build``'s from ``tuning.PARAMS``, the grid flags of
``tune`` and ``bench`` from ``tuning.GRIDS``, and ``bound``'s from
``_BOUNDS``, one entry per op. Bad input ends the command with one line
on stderr and a non-zero exit, with no file written, and flags are
checked before any file is read: ``bad --<flag>: ...`` for a flag the
method or op does not take or a value that cannot be parsed or used,
``--<flag> is required for ...`` for a missing one, ``cannot load
<path>: ...`` for a missing or malformed input file, ``cannot write
<path>: ...`` for an output path that cannot be written (at once, before
any work, if it is a directory or its directory is missing or is not
one), and ``cannot generate|build|tune|evaluate ...: ...`` when the
library refuses the request.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .adaptive import fpr_upper_bound
from .bench import METHODS, check_budgets, check_methods, parse_budget, run_sweep, write_csv
from .disjoint import allocate_disjoint
from .learned import sandwich_allocate
from .scores import gen_synthetic, load_scored_csv, min_sample_size, save_scored_csv
from .serialize import load_filter, save_filter
from .tuning import GRIDS, OPTIONAL, PARAMS, build, check_grids, check_model_bits, tune


# The most bits that ``query`` loads from a container, its arrays together: 2**30
# bits are a 128 MiB container and take 1 GiB once loaded, one byte per bit.
QUERY_MAX_BITS = 1 << 30


def _list(kind, check=lambda values: None):
    """A parser of comma-separated ``kind`` values that ``check`` accepts.

    Every list flag is parsed by one. It raises ValueError on a value
    ``kind`` or ``check`` refuses, or on a list with no values.
    """
    def parse(text: str) -> list:
        values = [kind(x.strip()) for x in text.split(",") if x.strip()]
        if not values:
            raise ValueError("no values")
        check(values)
        return values
    return parse


def _parsed(flag: str, parse, text: str):
    """``parse(text)``; its ValueError exits ``bad <flag>: …`` in one line."""
    try:
        return parse(text)
    except ValueError as exc:
        raise SystemExit(f"bad {flag}: {exc}") from exc


def _add_typed(parser, flag: str, parse, **kwargs) -> None:
    """``flag``, parsed by ``parse`` through ``_parsed``.

    Every typed flag is added so; argparse's own refusal takes two lines.
    """
    parser.add_argument(flag, type=lambda text: _parsed(flag, parse, text), **kwargs)


# every grid override, with its element type
_GRID_KINDS = {name: kind for names in GRIDS.values() for name, kind in names.items()}

# each ``bound`` op: its function, the flags it takes in call order with
# their types, and how its value prints
_BOUNDS = {
    "eq3": (fpr_upper_bound, {"c": float, "alpha": float, "g": int, "k_max": int}, repr),
    "lemma1": (min_sample_size, {"k_groups": int, "epsilon": float, "delta": float}, str),
    "sandwich-alloc": (sandwich_allocate, {"fp": float, "fn": float, "budget": float},
                       lambda bits: "b1={!r} b2={!r}".format(*bits)),
    "disjoint-alloc": (allocate_disjoint, {"bitmap_bits": parse_budget,
                                           "n_per_group": _list(int), "c": float, "g": int},
                       lambda shares: ",".join(str(x) for x in shares)),
}
_BOUND_FLAGS = {op: flags for op, (_, flags, _) in _BOUNDS.items()}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_flags(parser, tables: dict, optional=()) -> None:
    """One flag per name in ``tables`` (choice -> {name: type}); its help names the choices."""
    for name, kind in {n: k for names in tables.values() for n, k in names.items()}.items():
        takers = ", ".join(choice for choice, names in tables.items() if name in names)
        _add_typed(parser, _flag(name), kind,
                   help=takers + (" (optional)" if name in optional else ""))


def _chosen(args, what: str, tables: dict, optional=()) -> dict:
    """The flags that ``tables`` lists for the choice ``args.<what>``, by name.

    Exits ``bad --<flag>: <what> '<choice>' takes no such parameter`` on a
    flag only other choices take, or ``--<flag> is required for <what>
    '<choice>'`` on a missing one that ``optional`` does not name.
    """
    choice = getattr(args, what)
    for name in dict.fromkeys(name for names in tables.values() for name in names):
        given = getattr(args, name) is not None
        if given and name not in tables[choice]:
            raise SystemExit(f"bad {_flag(name)}: {what} {choice!r} takes no such parameter")
        if not given and name in tables[choice] and name not in optional:
            raise SystemExit(f"{_flag(name)} is required for {what} {choice!r}")
    return {name: getattr(args, name) for name in tables[choice] if getattr(args, name) is not None}


def _grids(args, method=None) -> dict:
    """The grid overrides given on the command line, typed as ``GRIDS`` names them.

    Exits ``bad --<flag>: …`` on a malformed list or one that ``check_grids``
    refuses for ``method`` (None: for any tuner).
    """
    grids = {}
    for name, kind in _GRID_KINDS.items():
        text = getattr(args, name)
        if text is not None:
            parse = _list(kind, lambda values, name=name: check_grids({name: values}, method))
            grids[name] = _parsed(_flag(name), parse, text)
    return grids


def _load(loader, path):
    """``loader(path)``; exits ``cannot load <path>: …`` on a missing or malformed file."""
    try:
        return loader(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load {path}: {exc}") from exc


def _check_output(path) -> None:
    """Exits ``cannot write <path>: …`` if ``path`` is a directory, or the
    directory it is in is missing or is not one; ``main`` asks before any work."""
    where = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code, where = errno.EISDIR, path
    elif not os.path.isdir(where):
        code = errno.ENOTDIR if os.path.exists(where) else errno.ENOENT
    else:
        return
    raise SystemExit(f"cannot write {path}: {OSError(code, os.strerror(code), where)}")


def _save(writer, value, path) -> None:
    """``writer(value, path)``; exits ``cannot write <path>: …`` on a path it cannot write."""
    try:
        writer(value, path)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}") from exc


def _write_json(report: dict, path) -> None:
    text = json.dumps(report, indent=2) + "\n"  # before the file opens: a failure writes none
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _beta_pair(text: str) -> tuple[float, float]:
    parts = _list(float)(text)
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated shapes, got {text!r}")
    return parts[0], parts[1]


def _cmd_gen(args) -> int:
    try:
        dataset = gen_synthetic(args.keys, args.nonkeys, args.key_beta, args.nonkey_beta, args.seed)
    except ValueError as exc:
        raise SystemExit(f"cannot generate: {exc}") from exc
    _save(save_scored_csv, dataset, args.out)
    print(f"wrote {len(dataset)} items ({dataset.n} keys, {dataset.m} nonkeys) to {args.out}")
    return 0


def _cmd_build(args) -> int:
    params = _chosen(args, "method", PARAMS, OPTIONAL)
    try:
        check_model_bits(args.method, args.model_bits)
    except ValueError as exc:
        raise SystemExit(f"bad --model-bits: {exc}") from exc
    dataset = _load(load_scored_csv, args.data)
    try:
        filt = build(args.method, dataset, args.bitmap_bits, args.seed, args.model_bits, **params)
    except ValueError as exc:
        raise SystemExit(f"cannot build {args.method}: {exc}") from exc
    _save(save_filter, filt, args.out)
    print(f"built {args.method} filter over {dataset.n} keys, saved to {args.out}")
    return 0


def _cmd_query(args) -> int:
    filt = _load(lambda path: load_filter(path, QUERY_MAX_BITS), args.filter)
    try:
        positive = filt.contains(args.id, args.score)
    except UnicodeError as exc:  # argv decodes bytes that are not UTF-8 as lone surrogates
        raise SystemExit(f"bad --id: {exc}") from exc
    except ValueError as exc:
        if args.score is None:
            raise SystemExit("--score is required for learned filter kinds") from exc
        raise SystemExit(f"bad --score: {exc}") from exc
    print("positive" if positive else "negative")
    return 0 if positive else 1


def _cmd_bench(args) -> int:
    grids = _grids(args)
    dataset = _load(load_scored_csv, args.data)
    rows = run_sweep(dataset, args.budgets, args.methods, args.seeds, model_bits=args.model_bits,
                     timing=args.timing, **grids)
    _save(write_csv, rows, args.out)
    ok = sum(1 for row in rows if row.status.startswith("ok"))
    print(f"wrote {len(rows)} rows ({ok} ok) to {args.out}")
    return 0


def _cmd_tune(args) -> int:
    grids = _grids(args, args.method)
    dataset = _load(load_scored_csv, args.data)
    try:
        res = tune(args.method, dataset, args.bitmap_bits, args.seed, args.model_bits, **grids)
    except ValueError as exc:
        raise SystemExit(f"cannot tune {args.method}: {exc}") from exc
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
    _save(_write_json, report, args.report)
    print(f"best {args.method}: {res.params} fpr={res.fpr:.6g}; report at {args.report}")
    return 0


def _cmd_bound(args) -> int:
    function, flags, show = _BOUNDS[args.op]
    params = _chosen(args, "op", _BOUND_FLAGS)
    try:
        value = function(*(params[name] for name in flags))
    except (ValueError, ArithmeticError) as exc:
        raise SystemExit(f"cannot evaluate {args.op}: {exc}") from exc
    print(show(value))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adabloom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scored dataset CSV")
    _add_typed(p, "--keys", int, required=True)
    _add_typed(p, "--nonkeys", int, required=True)
    _add_typed(p, "--key-beta", _beta_pair, default=(3.0, 1.0), metavar="A,B")
    _add_typed(p, "--nonkey-beta", _beta_pair, default=(1.0, 3.0), metavar="A,B")
    _add_typed(p, "--seed", int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="build one filter and serialize it")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--data", required=True)
    _add_typed(p, "--bitmap-bits", parse_budget, required=True)
    _add_typed(p, "--model-bits", parse_budget, default=0)
    _add_typed(p, "--seed", int, default=0)
    _add_flags(p, PARAMS, OPTIONAL)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a serialized filter")
    p.add_argument("--filter", required=True)
    p.add_argument("--id", required=True)
    _add_typed(p, "--score", float, default=None)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("bench", help="FPR-vs-memory sweep, output CSV")
    p.add_argument("--data", required=True)
    _add_typed(p, "--budgets", _list(parse_budget, check_budgets), required=True,
               help="comma list of total bits (kb suffix ok)")
    _add_typed(p, "--methods", _list(str, check_methods), default=",".join(METHODS))
    _add_typed(p, "--seeds", _list(int), default="0")
    _add_typed(p, "--model-bits", parse_budget, default=0)
    for name in _GRID_KINDS:
        p.add_argument(_flag(name), default=None)
    p.add_argument("--timing", action="store_true",
                   help="fill timing columns (off by default so output is reproducible)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("tune", help="hyper-parameter search, output JSON report")
    p.add_argument("--method", choices=list(GRIDS), required=True)
    p.add_argument("--data", required=True)
    _add_typed(p, "--bitmap-bits", parse_budget, required=True)
    _add_typed(p, "--model-bits", parse_budget, default=0)
    _add_typed(p, "--seed", int, default=0)
    for name in _GRID_KINDS:
        p.add_argument(_flag(name), default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("bound", help="evaluate the analytical formulas standalone")
    p.add_argument("--op", choices=list(_BOUNDS), required=True)
    _add_flags(p, _BOUND_FLAGS)
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name in vars(args).keys() & {"out", "report"}:
        _check_output(getattr(args, name))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
