"""Command-line interface.

Subcommands: table1, phase2d, spiral, radius, solve, fixed-points.
Output goes to stdout or to --output <path>.  Exit codes: 0 success,
2 input error (bad arguments, malformed model file, order too small, an
order above MAX_ORDER or a sample count above MAX_SAMPLES, an --output
path that cannot be written),
3 numerical failure (integration did not complete).  Set SERIESDYN_LOG
to a logging level name (DEBUG, INFO, ...) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import TYPE_CHECKING

from .errors import IntegrationFailedError, SeriesDynError

# the library's layers are imported where they run, so that each command
# loads only its own (see main)
if TYPE_CHECKING:
    from .model import IntegrationConfig
    from .modelfile import ModelFile

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _int_at_most(cap: str):
    """argparse type: an integer no larger than the model-file module's
    constant ``cap``, which is read only when such an argument is given."""
    def parse(text: str) -> int:
        value = int(text)
        from . import modelfile
        limit = getattr(modelfile, cap)
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
    order_type, samples_type = _int_at_most("MAX_ORDER"), _int_at_most("MAX_SAMPLES")

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
    p.set_defaults(run=lambda report, args: report.cmd_table1(
        full_precision=args.full_precision))

    p = sub.add_parser("phase2d", help="two-species CSV: integrator vs "
                                       "partial sums, fixed-point footer")
    p.add_argument("--order", "-k", type=order_type, action="append", default=None,
                   metavar="K", help="series order (repeatable; default 4 and 10)")
    p.add_argument("--t-end", type=float, default=300.0)
    p.add_argument("--samples", type=samples_type, default=121)
    add_tols(p)
    add_output(p)
    p.set_defaults(run=lambda report, args: report.cmd_phase2d(
        orders=args.order, t_end=args.t_end, samples=args.samples, cfg=_tolerances(args)))

    p = sub.add_parser("spiral", help="spiral CSV: integrator, closed form, "
                                      "series")
    p.add_argument("--order", "-k", type=order_type, default=5, metavar="K")
    p.add_argument("--t-end", type=float, default=20.0)
    p.add_argument("--samples", type=samples_type, default=201)
    add_tols(p)
    add_output(p)
    p.set_defaults(run=lambda report, args: report.cmd_spiral(
        order=args.order, t_end=args.t_end, samples=args.samples, cfg=_tolerances(args)))

    p = sub.add_parser("radius", help="radius-of-convergence report for a "
                                      "model file")
    p.add_argument("model_file")
    p.add_argument("--order", "-k", type=order_type, default=None, metavar="K",
                   help="series order (default: model file's, needs >= 8)")
    add_output(p)
    p.set_defaults(run=lambda report, args: report.cmd_radius(_model(args), order=args.order))

    p = sub.add_parser("solve", help="CSV of numerical and series solutions "
                                     "on the model file's grid")
    p.add_argument("model_file")
    add_tols(p)
    add_output(p)
    p.set_defaults(run=_solve)

    p = sub.add_parser("fixed-points", help="fixed-point table for a model "
                                            "file")
    p.add_argument("model_file")
    add_output(p)
    p.set_defaults(run=lambda report, args: report.cmd_fixed_points(_model(args)))
    return parser


def _tolerances(args, cfg: IntegrationConfig | None = None) -> IntegrationConfig:
    """Integrator settings: ``cfg`` (the defaults when None) with
    --rel-tol/--abs-tol replaced where given.  The config rejects NaN, inf
    and values <= 0."""
    from .model import IntegrationConfig
    given = {name: getattr(args, name) for name in ("rel_tol", "abs_tol")
             if getattr(args, name) is not None}
    return dataclasses.replace(cfg or IntegrationConfig(), **given)


def _model(args) -> ModelFile:
    from .modelfile import load_model
    return load_model(args.model_file)


def _solve(report, args) -> str:
    mf = _model(args)
    return report.cmd_solve(dataclasses.replace(mf, cfg=_tolerances(args, mf.cfg)))


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SERIESDYN_LOG")
    if level:  # logging is imported only here, or by a WARNING line
        import logging
        logging.basicConfig(level=level.upper(),
                            format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    from . import report  # after logging is set up; it loads no layer the command skips
    try:
        text = args.run(report, args)
    except IntegrationFailedError as exc:
        print(f"seriesdyn: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SeriesDynError, ValueError) as exc:
        print(f"seriesdyn: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:  # a directory, a missing folder, no permission
            print(f"seriesdyn: error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
