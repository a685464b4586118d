"""Shared pytest plumbing: collects acceptance-criterion verdicts and
prints one line per criterion at the end of the run, and runs code in a
child process under another OpenBLAS kernel."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import seriesdyn

_ACCEPTANCE: list[tuple[str, bool, str]] = []


@pytest.fixture
def acceptance_record():
    """Callable (criterion, passed, detail) -> None used by the
    acceptance tests to register their verdict before asserting."""
    def record(criterion, passed, detail):
        _ACCEPTANCE.append((str(criterion), bool(passed), detail))
    return record


@pytest.fixture
def here_and_under_prescott(capsys):
    """Callable code -> (stdout here, stdout of a child process): runs
    ``code`` in this process and in a child process forced onto
    OpenBLAS's Prescott kernel, which has neither AVX nor FMA (OpenBLAS
    picks its kernels by CPU)."""
    src = str(Path(seriesdyn.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(code):
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=60)
        exec(code, {})
        return capsys.readouterr().out, child.stdout
    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    def key(item):
        digits = "".join(ch for ch in item[0] if ch.isdigit())
        return (int(digits) if digits else 0, item[0])
    for crit, passed, detail in sorted(_ACCEPTANCE, key=key):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE criterion {crit}: {verdict} - {detail}")
