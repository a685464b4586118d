"""Byte-for-byte regression of the stdout of the six subcommands and of
the five demos.

The subcommand files under ``golden/`` were written by the command-line
program before the polynomial fields were compiled, except the ``x_num``
and ``y_num`` columns of ``phase2d.out`` and ``spiral.out``: those were
rewritten when the integrator's stage sums became left-to-right float
sums in place of BLAS products (81 lines moved, by at most 3.3e-9
relative, and 7 lines, by at most 3.8e-12; the sampling error of those
columns is about 9e-8 and 9e-9).  Since then the output no longer
depends on the BLAS kernel the CPU selects.  ``spiral.out`` was
rewritten once more when every power x^e in f became the product
x^(e-1) * x of the series routes in place of the C library's ``pow``:
one of ``x_num``/``y_num`` moved in its last printed digit on the 10
lines t = 5.5, 8.9, 10.2, 10.4, 12.1, 13.7, 16.6, 17.8, 19.3 and 19.9,
by at most 3.8e-12 relative.  The ``demo-<name>.out`` files were
written by that same code; demo 05's integrator error at t = 0.2 read
9.122e-13 with ``pow`` and reads 9.120e-13.  Demos 01 and 03 print
rounding-level series digits; they were pinned once the Taylor loop's
Cauchy products became numpy's own left-to-right dot loop in place of
BLAS ``ddot`` calls whose last bits depend on the kernel the CPU
selects, and their files were written by that code.  A change that is
meant to be a pure speed-up must reproduce all the files exactly.  To
regenerate after an intended output change, run each command with
``PYTHONPATH=src python -m seriesdyn.cli <args> > tests/golden/<name>.out``
from the repository root, with the model paths below, and each pinned
demo with
``PYTHONPATH=src python demos/<name>.py > tests/golden/demo-<name>.out``.
"""

from pathlib import Path

import pytest

from seriesdyn.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parents[1] / "demos"

COMMANDS = {
    "table1": ["table1"],
    "phase2d": ["phase2d"],
    "spiral": ["spiral"],
    "radius": ["radius", str(GOLDEN / "spiral.json"), "-k", "30"],
    "solve": ["solve", str(GOLDEN / "logistic.json")],
    "fixed-points": ["fixed-points", str(GOLDEN / "two_species.json")],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


PINNED_DEMOS = ["01_collapse_check", "02_logistic_series_accuracy",
                "03_radius_of_convergence", "04_fixed_points_two_species",
                "05_spiral_breakdown"]
# each demo as a fresh process, where every warning is an error
COLD = {name: (["-W", "error", str(DEMOS / f"{name}.py")], {}) for name in PINNED_DEMOS}


@pytest.mark.parametrize("name", PINNED_DEMOS)
def test_demo_stdout_matches_golden(cold_run, name):
    child = cold_run(name)
    assert child.stdout == (GOLDEN / f"demo-{name}.out").read_bytes()
