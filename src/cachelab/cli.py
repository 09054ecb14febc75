"""Command-line front end.

Subcommands: ``rate`` (one memory point), ``sweep`` (memory grid to
CSV/JSON/plot data), ``dichotomy`` (the two strategy-separation families),
``mixed`` (superposition rate), ``audit`` (randomized gap audit).

Exit codes: 0 success, 2 config/schema problem, an invalid argument value,
a value past the float range of a decimal rendering or a rejected argument
vector (``usage error:``), 3 regularity violation in strict mode, 4 unwritable
output path, 5 audit failure.  Every failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from .model import (ConfigSchemaError, RegularityError, Setup, describe,
                    load_config)
# rate_memory_sharing is unused here, but perfbench's tracer wraps it in every
# module that binds it and its self-test reads it from this module.
from .multi_user import rate_memory_sharing  # noqa: F401
from . import experiments

EXIT_SCHEMA = 2
EXIT_REGULARITY = 3
EXIT_UNWRITABLE = 4
EXIT_AUDIT = 5


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, default=str))


def _with_float(data: dict, key: str) -> str:
    """The exact value at `key`, then its float companion unless it overflowed."""
    approx = data[key + "_float"]
    return data[key] if approx is None else f"{data[key]} (~{approx:.6g})"


def cmd_rate(args) -> int:
    config = load_config(args.config)
    report, _ = experiments.evaluate(config, args.mem, strict=args.strict)
    data = report.to_json_dict()
    print(f"setup:      {data['setup']}")
    print(f"memory:     {data['memory']}")
    for label, key in (("achievable:", "achievable"), ("lower:", "lower"), ("gap:", "gap_ratio")):
        if key in data:
            print(f"{label:<11} {_with_float(data, key)}")
    _emit(data)
    return 0


def _parse_grid(args, config) -> list[Fraction]:
    total = Fraction(config.total_files)
    grid, start, stop, count = None, Fraction(0), total, args.points
    try:
        if args.mems:
            grid = sorted({Fraction(part) for part in args.mems.split(",")})
        elif args.grid:
            start, stop, count = args.grid.split(":")
            start, stop, count = Fraction(start), Fraction(stop), int(count)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigSchemaError(f"--mems wants M1,M2,... and --grid START:STOP:COUNT "
                                f"with rational memories ({exc})") from exc
    if grid is None:
        if count < 1:
            raise ValueError("--points and the --grid count must be at least 1")
        grid = experiments.linear_grid(start, stop, count)
    for M in grid:
        if M < 0 or M > total:
            raise ConfigSchemaError(f"grid point {M} outside [0, {total}]")
    return grid


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    grid = _parse_grid(args, config)
    rows = experiments.sweep(config, grid)
    json_path = args.out[:-4] + ".json" if args.out.endswith(".csv") else args.out + ".json"
    outputs = [(experiments.write_sweep_csv, args.out),
               (experiments.write_sweep_json, json_path)]
    if args.plot_out:
        outputs.append((experiments.write_plot_data, args.plot_out))
    written = []
    try:
        for write, path in outputs:
            write(rows, path)
            written.append(path)
    except OSError as exc:
        # A failed sweep leaves no output file: the files it already wrote go.
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    print(f"wrote {len(rows)} rows to {args.out} (exact values in {json_path})")
    return 0


def cmd_dichotomy(args) -> int:
    if args.kind == "mu":
        result = experiments.dichotomy_multi_user(args.r, args.mem)
    else:
        result = experiments.dichotomy_single_user(args.levels, args.files, args.mem)
    if not result.in_regime:
        print("warning: memory point is outside the all-levels-partial regime; "
              "the closed-form ratios are heuristic there", file=sys.stderr)
    _emit(describe(result))
    return 0


def cmd_mixed(args) -> int:
    config = load_config(args.config)
    report = experiments.mixed_rate(config, args.mem, gamma=args.gamma)
    data = report.to_json_dict()
    print(f"achievable: {_with_float(data, 'achievable')}")
    _emit(data)
    return 0


def cmd_audit(args) -> int:
    if args.count < 1 or args.grid_points < 1:
        raise ValueError("--count and --grid-points must be at least 1")
    setup = Setup.MULTI_USER if args.setup == "mu" else Setup.SINGLE_USER
    summary = experiments.audit(setup, args.count, args.seed,
                                grid_points=args.grid_points)
    _emit(summary.to_json_dict())
    if not summary.ok:
        print("audit failed; offending instances are serialized above", file=sys.stderr)
        return EXIT_AUDIT
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument vector on one ``usage error:`` line, exit 2.

    Subcommand parsers are made with the class of their parent, so they
    report the same way.
    """

    def error(self, message: str):
        self.exit(EXIT_SCHEMA, f"usage error: {self.prog}: {' '.join(message.splitlines())}\n")


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="cachelab",
        description="Rates, lower bounds, and gap audits for multi-level coded caching.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", help="achievable rate, lower bound, and gap at one memory")
    p.add_argument("config", help="JSON config path")
    p.add_argument("--mem", type=_fraction, required=True, help="cache memory (rational)")
    p.add_argument("--strict", action="store_true",
                   help="treat regularity violations as errors")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("sweep", help="rate/bound/gap table over a memory grid")
    p.add_argument("config")
    p.add_argument("--grid", help="START:STOP:COUNT (rationals allowed)")
    p.add_argument("--mems", help="comma-separated explicit memory list")
    p.add_argument("--points", type=int, default=33, help="default grid size")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--plot-out", help="optional whitespace-delimited plot data path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dichotomy", help="strategy-separation families")
    kind = p.add_subparsers(dest="kind", required=True)
    mu = kind.add_parser("mu", help="multi-user family (clustering loses)")
    mu.add_argument("--r", type=int, required=True)
    mu.add_argument("--mem", type=_fraction, default=None)
    mu.set_defaults(func=cmd_dichotomy, kind="mu")
    su = kind.add_parser("su", help="single-user family (splitting loses)")
    su.add_argument("--levels", type=int, required=True)
    su.add_argument("--files", type=int, default=16)
    su.add_argument("--mem", type=_fraction, default=None)
    su.set_defaults(func=cmd_dichotomy, kind="su")

    p = sub.add_parser("mixed", help="superposition rate for the mixed setup")
    p.add_argument("config")
    p.add_argument("--mem", type=_fraction, required=True)
    p.add_argument("--gamma", type=_fraction, default=None,
                   help="memory fraction for the replicated class (default: optimize)")
    p.set_defaults(func=cmd_mixed)

    p = sub.add_parser("audit", help="randomized gap audit")
    p.add_argument("--setup", choices=("mu", "su"), required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=20)
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigSchemaError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except RegularityError as exc:
        print(f"regularity violation: {exc}", file=sys.stderr)
        return EXIT_REGULARITY
    except (ValueError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
