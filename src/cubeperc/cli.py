"""Command-line front end.

`sweep` runs a parameter sweep and writes its CSV.  The cell commands
`distort`, `cycles`, `route` and `moments` run one cell of the sweep
kinds `distortion`, `cycle_census`, `route` and `moments` and print its
row as column=value lines.  Their `--seed` is the cell seed itself, so
`cubeperc <command> --seed S` with the sweep's -n, --alpha, --model and
kind flags reprints the sweep row whose `seed` column is S.  Every
sweep parameter flag is a SweepConfig field and takes its default
from there.

Exit codes: 0 on success, 1 when any cell errored or a golden check
failed, 2 on configuration errors (argparse uses 2 for bad flags too).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import fields

from .errors import ConfigError, CubePercError
from .harness import (
    KIND_FIELDS,
    KINDS,
    SweepConfig,
    _fmt,
    cell_model,
    check_cell_ranges,
    run_cell,
    run_sweep,
    verify_goldens,
)
from .hypercube import CubeShape
from .percolation import DEFAULT_DIMENSION_CAP, sample

# cell command -> sweep kind
_CELL_KINDS = {
    "distort": "distortion",
    "cycles": "cycle_census",
    "route": "route",
    "moments": "moments",
}

_DEFAULTS = {f.name: f.default for f in fields(SweepConfig)}


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep_config(args, **fixed) -> SweepConfig:
    """SweepConfig from the parsed flags whose dest is a field name; an
    omitted `sweep --alpha` parses as None and takes the field default."""
    given = {k: v for k, v in vars(args).items() if k in _DEFAULTS and v is not None}
    return SweepConfig(**given, **fixed)


def _cmd_sample(args) -> int:
    check_cell_ranges((args.n,), (args.alpha,))
    model = cell_model(args.model, args.n, args.alpha)
    sm = sample(CubeShape(args.n), model, args.seed, max_n=args.max_n)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(sm.serialize())
    p = model.p_bond if args.model == "bond" else model.p_site
    print(
        f"n={args.n} p={p:.6g} seed={args.seed}"
        f" open_edges={sm.open_edge_count()}"
        f" vertices_present={int(sm.present_array().sum())}"
    )
    return 0


def _cmd_sweep(args) -> int:
    text = run_sweep(_sweep_config(args, base_seed=args.seed), threads=args.threads)
    _emit(text, args.out)
    rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
    had_error = any(row[-1] for row in rows[1:])
    return 1 if had_error else 0


def _cmd_cell(args) -> int:
    config = _sweep_config(
        args, kind=_CELL_KINDS[args.command], n_list=(args.n,), alpha_list=(args.alpha,)
    )
    row = run_cell(config, args.n, args.alpha, args.seed)
    _emit("".join(f"{col}={_fmt(value)}\n" for col, value in row.items()), args.out)
    return 1 if row["error"] else 0


def _cmd_verify(args) -> int:
    report = verify_goldens(args.directory, threads=args.threads)
    print(report.summary())
    return 0 if report.passed else 1


def _threads(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"threads must be at least 1, got {threads}")
    return threads


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, help="cube dimension")
    p.add_argument("--alpha", type=float, default=_DEFAULTS["alpha_list"][0], help="p = n^-alpha")
    p.add_argument("--model", choices=["bond", "site"], default=_DEFAULTS["model"])


def _add_fields(p: argparse.ArgumentParser, names) -> None:
    # every per-kind field is an int; `-l` keeps its one-letter spelling
    for name in names:
        flag = f"-{name}" if len(name) == 1 else "--" + name.replace("_", "-")
        p.add_argument(flag, type=int, default=_DEFAULTS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cubeperc")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command but verify draws from a seed and can write a file
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=_DEFAULTS["base_seed"])
    seeded.add_argument("--out", help="write output to this file")

    p = sub.add_parser("sample", parents=[seeded], help="draw one sample, optionally save it")
    _add_common(p)
    p.add_argument("--max-n", type=int, default=DEFAULT_DIMENSION_CAP, help="runtime dimension cap")

    p = sub.add_parser("sweep", parents=[seeded], help="run a parameter sweep, emit CSV")
    p.add_argument("--kind", choices=list(KINDS), required=True)
    p.add_argument("-n", type=int, action="append", required=True, dest="n_list", metavar="N")
    p.add_argument("--alpha", type=float, action="append", dest="alpha_list", metavar="ALPHA")
    p.add_argument("--model", choices=["bond", "site"], default=_DEFAULTS["model"])
    p.add_argument("--seeds", type=int, default=_DEFAULTS["seed_count"], dest="seed_count",
                   help="seeds per cell")
    _add_fields(p, [name for names in KIND_FIELDS.values() for name in names])
    p.add_argument("--threads", type=_threads, default=1, help="worker processes")

    for command, kind in _CELL_KINDS.items():
        p = sub.add_parser(command, parents=[seeded],
                           help=f"run one {kind} sweep cell with cell seed --seed, print its row")
        _add_common(p)
        _add_fields(p, KIND_FIELDS[kind])

    p = sub.add_parser("verify", help="re-run and compare golden CSVs")
    p.add_argument("directory")
    p.add_argument("--threads", type=_threads, default=1, help="worker processes")

    return parser


_COMMANDS = {
    "sample": _cmd_sample,
    "sweep": _cmd_sweep,
    **dict.fromkeys(_CELL_KINDS, _cmd_cell),
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CubePercError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
