"""Tests of the benchmark itself: every check rejects a wrong answer, and
every workload runs.  Not part of the project's test suite (pytest's
testpaths is tests/); run them with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles as orc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from seriesdyn import TaylorSolution, TruncatedSeries  # noqa: E402
from seriesdyn.modelfile import load_model  # noqa: E402
from seriesdyn.report import (  # noqa: E402
    cmd_fixed_points,
    cmd_phase2d,
    cmd_radius,
    cmd_solve,
    cmd_spiral,
    cmd_table1,
)

SCRATCH = HERE / "out" / "tests"


def _case(cases, name):
    return next(c for c in cases if c.name == name)


def _run(case):
    _, [(_, out, problems)] = workloads.run_pass([case], tracing.Recorder(False))
    return out, problems


def _with_coeffs(sol, rows):
    return TaylorSolution(tuple(TruncatedSeries(r) for r in rows), sol.ivp,
                          sol.overflow_order)


@pytest.fixture(scope="module")
def expand():
    wl = workloads.Expand(seed=3)
    wl.prepare()
    return wl


@pytest.fixture(scope="module")
def orbits():
    wl = workloads.Orbits(seed=3)
    wl.prepare()
    return wl


@pytest.fixture(scope="module")
def cli():
    wl = workloads.Cli(seed=3, workdir=SCRATCH / "cli")
    wl.prepare()
    return wl


# -- series --------------------------------------------------------------------

def test_exact_logistic_coefficients_match_fraction_recursion():
    from fractions import Fraction
    for b, a, x0 in ((1.0, -3.0, 1.0), (1.0, -3.0, 0.1), (0.7, -1.3, 0.2)):
        c = [Fraction(x0)]
        for j in range(25):
            s = sum(c[i] * c[j - i] for i in range(j + 1))
            c.append((Fraction(b) * c[j] + Fraction(a) * s) / (j + 1))
        assert orc.logistic_coeffs(b, a, x0, 25).tolist() == [float(v) for v in c]


@pytest.mark.parametrize("name", ["series:logistic-real", "series:logistic-pair",
                                  "series:spiral"])
def test_coefficient_moved_1e9_is_rejected(expand, name):
    case = _case(expand.cases(), name)
    out, problems = _run(case)
    assert problems == [] and case.check(out) == []
    sol, est, vals = out
    rows = [s.coeffs for s in sol.series]
    for j in range(1, sol.order + 1, 13):
        moved = [r.copy() for r in rows]
        moved[0][j] *= 1 + 1e-9
        assert case.check((_with_coeffs(sol, moved), est, vals)), f"order {j}"


def test_exact_check_alone_rejects_1e9(expand):
    exact = expand.exact[0.1]
    for j in range(0, 301, 7):
        moved = exact.copy()
        moved[j] *= 1 + 1e-9
        assert orc.coeff_problems(moved, exact)


def test_residual_check_rejects_a_wrong_initial_value():
    c = orc.own_taylor(orc.spiral_field(-0.5), [2.0, 2.0], 12)
    assert orc.ode_residual_problems(orc.spiral_field(-0.5), [2.0, 2.0], c) == []
    assert orc.ode_residual_problems(orc.spiral_field(-0.5), [2.0, 2.0 + 1e-9], c)


def test_radius_off_by_a_quarter_is_rejected(expand):
    case = _case(expand.cases(), "series:spiral")
    sol, est, vals = _run(case)[0]
    wrong = [(i, m, v * 1.25) for i, m, v in est]
    assert any("radius" in p for p in case.check((sol, wrong, vals)))


def test_series_eval_moved_is_rejected(expand):
    case = _case(expand.cases(), "series:two-species")
    sol, est, vals = _run(case)[0]
    moved = [v.copy() for v in vals]
    moved[1][50] *= 1 + 1e-9
    assert case.check((sol, est, moved))


def test_hpm_term_moved_or_added_is_rejected(expand):
    case = _case(expand.cases(), "hpm:spiral")
    (h, sol, verdict), problems = _run(case)
    assert problems == [] and case.check((h, sol, verdict)) == []
    raw = [[s.coeffs.copy() for s in per_var] for per_var in h.corrections]
    taylor = np.array([s.coeffs for s in sol.series])
    assert orc.hpm_problems(raw, taylor) == []
    raw[7][0][7] *= 1 + 1e-9          # |x_7| > 1, so relative = normalised
    assert orc.hpm_problems(raw, taylor)
    raw[7][0][7] = taylor[0][7]
    raw[5][1][9] = 2e-10 * max(1.0, abs(taylor[1][5]))
    assert orc.hpm_problems(raw, taylor)
    assert case.check((h, sol, (False, 0.0)))


def test_overflow_case_needs_overflow_order_and_finite_head():
    check = workloads.Expand._overflow().check
    head = np.ones(340)
    good = SimpleNamespace(overflow_order=340,
                           series=[SimpleNamespace(coeffs=np.r_[head, [np.inf] * 21])])
    assert check(good) == []
    assert check(SimpleNamespace(overflow_order=None, series=good.series))
    bad = np.r_[head, [np.inf] * 21]
    bad[10] = np.nan
    assert check(SimpleNamespace(overflow_order=340,
                                 series=[SimpleNamespace(coeffs=bad)]))


def test_escaped_runtime_warning_fails_the_case():
    def leaky(rec):
        with np.errstate(over="warn"):
            return np.float64(1e308) * 10.0

    quiet = workloads.Case("quiet", lambda rec: 1.0, lambda out: [])
    loud = workloads.Case("loud", leaky, lambda out: [])
    _, results = workloads.run_pass([quiet, loud], tracing.Recorder(False))
    judged = dict(workloads.check_pass(results))
    assert judged["quiet"] == []
    assert any("RuntimeWarning escaped" in p for p in judged["loud"])


def test_raising_operation_fails_the_case():
    case = workloads.Case("boom", lambda rec: 1 / 0, lambda out: [])
    _, results = workloads.run_pass([case], tracing.Recorder(False))
    assert "raised ZeroDivisionError" in workloads.check_pass(results)[0][1][0]


# -- orbits --------------------------------------------------------------------

@pytest.mark.parametrize("name,index", [("orbit:logistic", 500),
                                        ("orbit:spiral-decay", 2000),
                                        ("orbit:spiral-blowup", 300)])
def test_sampled_state_moved_1e6_is_rejected(orbits, name, index):
    case = _case(orbits.cases(), name)
    (traj, grid, states, fvals), problems = _run(case)
    assert problems == [] and case.check((traj, grid, states, fvals)) == []
    moved = states.copy()
    moved[index, 0] += 1e-6
    assert case.check((traj, grid, moved, fvals))


def test_two_species_approach_checks(orbits):
    case = _case(orbits.cases(), "orbit:two-species-ref")
    (first, traj, grid, states, fvals), _ = _run(case)
    assert case.check((first, traj, grid, states, fvals)) == []
    away = states.copy()
    away[1500] += 1e-3                 # the distance grows for one sample
    assert case.check((first, traj, grid, away, fvals))
    wrong_f = fvals.copy()
    wrong_f[3, 1] *= 1 + 1e-9
    assert case.check((first, traj, grid, states, wrong_f))
    early = SimpleNamespace(status="completed", t_end=300.0,
                            states=traj.states[: len(traj.states) // 3])
    assert case.check((first, early, grid, states, fvals))


def test_blowup_must_be_reported(orbits):
    case = _case(orbits.cases(), "orbit:spiral-blowup")
    (traj, grid, states, fvals), _ = _run(case)
    done = SimpleNamespace(status="completed", t_end=traj.t_end)
    assert case.check((done, grid, states, fvals))
    late = SimpleNamespace(status="blew-up", t_end=traj.t_end * (1 + 2e-6))
    assert case.check((late, grid, states, fvals))


def test_classification_checks(orbits):
    case = _case(orbits.cases(), "classify:two-species")
    cps, _ = _run(case)
    assert case.check(cps) == []
    relabel = [SimpleNamespace(location=c.location, eigenvalues=c.eigenvalues,
                               classification="saddle") for c in cps]
    assert case.check(relabel)
    shifted = [SimpleNamespace(location=c.location,
                               eigenvalues=tuple(z * (1 + 1e-8) for z in c.eigenvalues),
                               classification=c.classification) for c in cps]
    assert case.check(shifted)
    assert case.check(cps[:3])


def test_horizon_matches_criterion_6a():
    # 38% off at t = 300 gives the t = 2000 horizon of the acceptance test
    assert workloads.horizon(0.38) == 2000.0


# -- cli -----------------------------------------------------------------------

def _outputs(cli):
    return {
        "table1": cmd_table1(),
        "phase2d": cmd_phase2d(),
        "spiral": cmd_spiral(),
        "radius": cmd_radius(load_model(str(cli.files["spiral"])), order=30),
        "solve": cmd_solve(load_model(str(cli.files["logistic"]))),
        "fixed-points": cmd_fixed_points(load_model(str(cli.files["two-species"]))),
    }


@pytest.fixture(scope="module")
def outputs(cli):
    return _outputs(cli)


def _content(cli, cmd, text):
    """The oracle check of one command's output; a check that cannot parse
    the output raises, which check_pass counts as a failure."""
    try:
        return getattr(cli, "_check_" + cmd.replace("-", "_"))(text)
    except ValueError as exc:
        return [str(exc)]


def test_cli_outputs_pass_their_oracles(cli, outputs):
    for cmd, text in outputs.items():
        assert _content(cli, cmd, text) == [], cmd


def test_one_changed_digit_is_rejected(outputs):
    wl = workloads.Cli(seed=3, workdir=SCRATCH / "cli-digit")
    wl.prepare()
    for cmd, text in outputs.items():
        assert wl._stdout_problems(cmd, text.encode()) == []
        k = max(i for i, ch in enumerate(text) if ch in "123456789")
        changed = text[:k] + ("1" if text[k] != "1" else "2") + text[k + 1:]
        assert wl._stdout_problems(cmd, changed.encode()), cmd


@pytest.mark.parametrize("cmd,old,new", [
    ("table1", "0.733924219", "0.733924229"),
    ("spiral", "\n1.00000000000e-01,", "\n1.00000000001e-01,"),
    ("solve", "x_s10", "x_s9"),
    ("radius", "1.25000000000e-01 (branch", "1.25000000100e-01 (branch"),
    ("fixed-points", "stable-node", "unstable-node"),
])
def test_wrong_cli_content_is_rejected(cli, outputs, cmd, old, new):
    assert old in outputs[cmd]
    assert _content(cli, cmd, outputs[cmd].replace(old, new, 1))


def test_missing_or_extra_fixed_point_is_rejected(cli, outputs):
    lines = outputs["fixed-points"].splitlines(keepends=True)
    missing = "fixed points found: 3\n" + "".join(lines[1:5])
    extra = "fixed points found: 5\n" + "".join(lines[1:]) + lines[-1]
    assert _content(cli, "fixed-points", missing)
    assert _content(cli, "fixed-points", extra)
    phase = outputs["phase2d"].splitlines(keepends=True)
    assert _content(cli, "phase2d", "".join(phase[:-1]))
    assert _content(cli, "phase2d", "".join(phase + phase[-1:]))


def test_spiral_numerical_column_moved_is_rejected(cli, outputs):
    rows = outputs["spiral"].splitlines()
    cells = rows[150].split(",")
    cells[1] = "{:.11e}".format(float(cells[1]) + 1e-5)
    rows[150] = ",".join(cells)
    assert _content(cli, "spiral", "\n".join(rows) + "\n")


# -- tracing -------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        {"name": "pass", "start": 0, "end": 100, "parent": None, "counts": {}, "case": ""},
        {"name": "series.taylor_solve", "start": 10, "end": 50, "parent": 0,
         "counts": {"coeffs": 20, "order": 200}, "case": "x"},
        {"name": "series.radius_estimate", "start": 20, "end": 30, "parent": 1,
         "counts": {}, "case": "x"},
    ]
    assert tracing.self_times(spans) == [60, 30, 10]
    m = tracing.layer_metrics(spans, passes=2)
    assert m["series.busy_ms"]["value"] == pytest.approx(40e-6 / 2)
    assert m["series.coeffs"]["value"] == 10
    assert m["series.taylor_us_per_coeff"]["value"] == pytest.approx(40e-3 / 20)


# -- smoke: every workload once ------------------------------------------------

@pytest.mark.parametrize("name", ["expand", "orbits", "cli"])
def test_every_workload_runs_once(name):
    wl = workloads.WORKLOADS[name](5, SCRATCH / f"smoke-{name}")
    wl.prepare()
    for traced in (False, True):
        rec = tracing.Recorder(traced)
        _, results = workloads.run_pass(wl.cases(traced=traced), rec)
        failed = {n for n, p in workloads.check_pass(results) if p}
        assert failed <= workloads.KNOWN_FAULTS, failed


def _bench(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_the_result_line():
    out = _bench(["--workload", "orbits", "--seed", "1", "--seconds", "0.01",
                  "--trace", "1"], HERE.parent)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m[0] for m in tracing.PER_LAYER} | {
        tracing.OVERHEAD[0]}


def test_run_fails_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    out = _bench(["--workload", "expand", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
    shutil.rmtree(bare)

