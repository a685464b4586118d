"""Byte-for-byte regression of the six subcommands' stdout.

The files under ``golden/`` were written by the command-line program
before the polynomial fields were compiled, except the ``x_num`` and
``y_num`` columns of ``phase2d.out`` and ``spiral.out``: those were
rewritten when the integrator's stage sums became left-to-right float
sums in place of BLAS products (81 lines moved, by at most 3.3e-9
relative, and 7 lines, by at most 3.8e-12; the sampling error of those
columns is about 9e-8 and 9e-9).  Since then the output no longer
depends on the BLAS kernel the CPU selects.  A change that is meant to
be a pure speed-up must reproduce them exactly.  To regenerate after an
intended output change, run each command with
``PYTHONPATH=src python -m seriesdyn.cli <args> > tests/golden/<name>.out``
from the repository root, with the model paths below.
"""

from pathlib import Path

import pytest

from seriesdyn.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

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
