"""Shared pytest plumbing: collects acceptance-criterion verdicts and
prints one line per criterion at the end of the run, and starts every
fresh Python process of the suite, some under another OpenBLAS kernel."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import seriesdyn

_ACCEPTANCE: list[tuple[str, bool, str]] = []
SRC = str(Path(seriesdyn.__file__).resolve().parents[1])


def run_cold(args, **env):
    """The finished process ``python <args>``, started fresh with this
    checkout's package on the path, SERIESDYN_LOG unset and ``env`` added
    to its environment; it must exit 0 within 60 s."""
    base = {key: value for key, value in os.environ.items() if key != "SERIESDYN_LOG"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**base, **env}, capture_output=True,
                          check=True, timeout=60)


@pytest.fixture(scope="module", autouse=True)
def cold_run(request):
    """Callable key -> the finished process of ``COLD[key]``, the test
    module's table of python arguments and added environments, if it has
    one.  The table starts with the module's first test, beside its
    in-process tests, at most min(4, cores) processes at a time in table
    order, so each test waits only for its own; those no test asked for
    are cancelled at the end."""
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        runs = {key: pool.submit(run_cold, args, **env)
                for key, (args, env) in getattr(request.module, "COLD", {}).items()}
        yield lambda key: runs[key].result()
        for run in runs.values():
            run.cancel()


@pytest.fixture
def acceptance_record():
    """Callable (criterion, passed, detail) -> None used by the
    acceptance tests to register their verdict before asserting."""
    def record(criterion, passed, detail):
        _ACCEPTANCE.append((str(criterion), bool(passed), detail))
    return record


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
