"""Command-line interface.

Subcommands: table1, phase2d, spiral, radius, solve, fixed-points.
Output goes to stdout or to --output <path>.  Exit codes: 0 success,
2 input error (bad arguments, malformed model file, order too small, an
order above MAX_ORDER or a sample count above MAX_SAMPLES),
3 numerical failure (integration did not complete).  Set SERIESDYN_LOG
to a logging level name (DEBUG, INFO, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .errors import (
    InsufficientOrderError,
    IntegrationFailedError,
    ModelFileError,
    SeriesDynError,
)
from .integrate import IntegrationConfig
from .modelfile import MAX_ORDER, MAX_SAMPLES, ModelFile, load_model
from .report import (
    cmd_fixed_points,
    cmd_phase2d,
    cmd_radius,
    cmd_solve,
    cmd_spiral,
    cmd_table1,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _int_at_most(limit: int):
    """argparse type: an integer no larger than ``limit``."""
    def parse(text: str) -> int:
        value = int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be <= {limit}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error messages
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seriesdyn",
        description="Truncated time-power-series solutions of polynomial "
                    "ODE systems, with oracles that show where they fail.")
    sub = parser.add_subparsers(dest="command", required=True)
    order_type, samples_type = _int_at_most(MAX_ORDER), _int_at_most(MAX_SAMPLES)

    def add_output(p):
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    def add_tols(p):
        p.add_argument("--rel-tol", type=float, default=None,
                       help="integrator relative tolerance override")
        p.add_argument("--abs-tol", type=float, default=None,
                       help="integrator absolute tolerance override")

    p = sub.add_parser("table1", help="log-error table for the 4th-order "
                                      "logistic series at t = 0.1..1.0")
    p.add_argument("--full-precision", action="store_true",
                   help="print all values at full precision")
    add_output(p)

    p = sub.add_parser("phase2d", help="two-species CSV: integrator vs "
                                       "partial sums, fixed-point footer")
    p.add_argument("--order", "-k", type=order_type, action="append", default=None,
                   metavar="K", help="series order (repeatable; default 4 and 10)")
    p.add_argument("--t-end", type=float, default=300.0)
    p.add_argument("--samples", type=samples_type, default=121)
    add_tols(p)
    add_output(p)

    p = sub.add_parser("spiral", help="spiral CSV: integrator, closed form, "
                                      "series")
    p.add_argument("--order", "-k", type=order_type, default=5, metavar="K")
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--samples", type=samples_type, default=201)
    add_tols(p)
    add_output(p)

    p = sub.add_parser("radius", help="radius-of-convergence report for a "
                                      "model file")
    p.add_argument("model_file")
    p.add_argument("--order", "-k", type=order_type, default=None, metavar="K",
                   help="series order (default: model file's, needs >= 8)")
    add_output(p)

    p = sub.add_parser("solve", help="CSV of numerical and series solutions "
                                     "on the model file's grid")
    p.add_argument("model_file")
    add_tols(p)
    add_output(p)

    p = sub.add_parser("fixed-points", help="fixed-point table for a model "
                                            "file")
    p.add_argument("model_file")
    add_output(p)
    return parser


def _with_tolerances(mf: ModelFile, args) -> ModelFile:
    rel = getattr(args, "rel_tol", None)
    abs_ = getattr(args, "abs_tol", None)
    if rel is None and abs_ is None:
        return mf
    cfg = IntegrationConfig(rel_tol=rel if rel is not None else mf.rel_tol,
                            abs_tol=abs_ if abs_ is not None else mf.abs_tol)
    return dataclasses.replace(mf, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol)


def _dispatch(args) -> str:
    if args.command == "table1":
        return cmd_table1(full_precision=args.full_precision)
    if args.command == "phase2d":
        return cmd_phase2d(orders=args.order, t_end=args.t_end,
                           samples=args.samples)
    if args.command == "spiral":
        return cmd_spiral(order=args.order, t_end=args.t_end,
                          samples=args.samples)
    if args.command == "radius":
        return cmd_radius(load_model(args.model_file), order=args.order)
    if args.command == "solve":
        return cmd_solve(_with_tolerances(load_model(args.model_file), args))
    if args.command == "fixed-points":
        return cmd_fixed_points(load_model(args.model_file))
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SERIESDYN_LOG")
    if level:
        logging.basicConfig(level=level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        text = _dispatch(args)
    except (ModelFileError, InsufficientOrderError, ValueError) as exc:
        print(f"seriesdyn: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except IntegrationFailedError as exc:
        print(f"seriesdyn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SeriesDynError as exc:
        print(f"seriesdyn: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
