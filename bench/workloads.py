"""The three workloads: seeded inputs, the program calls of one pass, and
the check that judges each case.

A pass runs every case of a workload once; each case is one operation.
``run`` holds only the calls into seriesdyn (made through a Recorder, so
the traced run can put a span around each) and returns what they gave
back; ``check`` compares that with the values in ``oracles`` and returns
the problems found.  Checks run after the pass, outside its timing.

Building a workload object is the set-up that ``setup_s`` measures: it
builds the program's inputs from the seed (model files, random systems).
``prepare`` then computes the reference values; that is the benchmark's
own work and stays out of ``setup_s``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as orc
from seriesdyn import (
    InitialValueProblem,
    Logistic,
    Polynomial,
    PolyVectorField,
    Spiral,
    TwoSpecies,
    classify,
    eval_field,
    fixed_points,
    hpm_collapse_check,
    hpm_solve,
    integrate,
    jacobian_at,
    preset_ivp,
    radius_estimate,
    sample,
    series_eval,
    taylor_solve,
)
from seriesdyn.modelfile import load_model
from seriesdyn.report import (
    cmd_fixed_points,
    cmd_phase2d,
    cmd_radius,
    cmd_solve,
    cmd_spiral,
    cmd_table1,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Case:
    name: str
    run: Callable       # run(rec) -> output of the program calls
    check: Callable     # check(output) -> list of problems


def run_pass(cases, rec, gauge=None):
    """Run every case once.  Returns the summed time of the cases' program
    calls, in reference seconds when a speed Gauge is given, and per case
    (name, output, problems found while running)."""
    elapsed = 0.0
    results = []
    with rec.span("pass"):
        for case in cases:
            rec.case = case.name
            problems = []
            out = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                try:
                    with rec.span("case"):
                        out = case.run(rec)
                except Exception as exc:  # an operation that raises has failed
                    problems.append(f"raised {type(exc).__name__}: {exc}")
                took = time.perf_counter() - t0
            problems += [f"{w.category.__name__} escaped: {w.message}"
                         for w in caught if issubclass(w.category, RuntimeWarning)]
            results.append((case, out, problems))
            elapsed += gauge.scale(took) if gauge is not None else took
    rec.pass_id += 1
    return elapsed, results


def check_pass(results):
    """[(case name, problems)] with every case's own check applied."""
    judged = []
    for case, out, problems in results:
        if not problems:
            try:
                problems = case.check(out)
            except Exception as exc:  # a malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        judged.append((case.name, problems))
    return judged


def spawn(argv, workdir):
    """Run one child process to its end.  Returns (exit code, stdout,
    stderr, maximum RSS in KiB, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SERIESDYN_LOG", None)
    with open(workdir / "child.out", "w+b") as out, \
            open(workdir / "child.err", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss, elapsed


def _field_to_program(field, x0):
    n = len(field)
    comps = tuple(Polynomial.from_coeffs({e: c for c, e in comp}, n)
                  for comp in field)
    return InitialValueProblem(PolyVectorField(comps), x0)


def _coeff_matrix(sol):
    return np.array([s.coeffs for s in sol.series])


def _eval_problems(values, coeffs, grid, closed=None, tol=1e-11):
    """series_eval against the benchmark's own power sum, and against the
    closed form where one exists (the grid lies inside the disc)."""
    powers = grid[:, None] ** np.arange(coeffs.shape[1])
    out = []
    for i, got in enumerate(values):
        want = powers @ coeffs[i]
        scale = np.abs(powers) @ np.abs(coeffs[i])
        if not np.all(np.abs(got - want) <= 1e-12 * scale):
            out.append(f"series_eval of variable {i} differs from the power sum")
        if closed is not None:
            exact = np.array([closed(t)[i] for t in grid])
            if not np.all(np.abs(got - exact) <= tol * np.maximum(scale, np.abs(exact))):
                out.append(f"partial sum of variable {i} leaves the closed form "
                           f"inside the disc")
    return out


def _taylor(rec, ivp, order):
    sol = rec("series.taylor_solve", taylor_solve, ivp, order)
    rec.note(order=order, coeffs=ivp.dimension * order)
    return sol


def _evals(rec, sol, grid):
    vals = []
    for s in sol.series:
        vals.append(rec("series.series_eval", series_eval, s, grid))
        rec.note(points=grid.size)
    return vals


# -- expand -------------------------------------------------------------------

SPIRAL_MODULUS = orc.spiral_modulus(-0.5, 2.0, 2.0)


class Expand:
    """The series layer at depth.

    Presets at orders in the hundreds with their radius estimates and
    partial sums, the perturbation route with its collapse check, seeded
    random systems, and the one overflow case that fails today."""

    name = "expand"
    cold = False

    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        # criterion 2's systems, with dimension and order on a fixed
        # schedule so every seed does the same structural work
        self.random = []
        for order in range(2, 13):
            n = 1 + order % 3
            field = orc.random_field(rng, n)
            x0 = rng.uniform(-1, 1, n)
            self.random.append((field, x0, order, _field_to_program(field, x0)))

    def prepare(self):
        self.exact = {x0: orc.logistic_coeffs(1.0, -3.0, x0, 300)
                      for x0 in (1.0, 0.1)}

    def cases(self, traced=False):
        lg = orc.logistic_field(1.0, -3.0)
        out = [
            self._series("series:logistic-real", Logistic(1.0, -3.0), [1.0], lg,
                         300, {"ratio": (orc.LOGISTIC_REAL_MODULUS, 0.10),
                               "root": (orc.LOGISTIC_REAL_MODULUS, 0.10)},
                         lambda t: [orc.logistic_exact(1.0, -3.0, 1.0, t)],
                         self.exact[1.0]),
            # the ratio estimate is not judged on a conjugate pair: it assumes
            # a single dominant real singularity (a documented limitation)
            self._series("series:logistic-pair", Logistic(1.0, -3.0), [0.1], lg,
                         300, {"root": (orc.LOGISTIC_PAIR_MODULUS, 0.10)},
                         lambda t: [orc.logistic_exact(1.0, -3.0, 0.1, t)],
                         self.exact[0.1]),
            self._series("series:spiral", Spiral(-0.5), [2.0, 2.0],
                         orc.spiral_field(-0.5), 300,
                         {"ratio": (SPIRAL_MODULUS, 0.20),
                          "root": (SPIRAL_MODULUS, 0.20)},
                         lambda t: orc.spiral_exact(-0.5, 2.0, 2.0, t)),
            # coefficients fall below the normal range near order 190
            self._series("series:two-species", TwoSpecies.reference(),
                         [4.0, 10.0], orc.two_species_field(), 150, {}, None,
                         half_width=5.0),
            self._overflow(),
        ]
        for name, preset, x0, field, order in [
                ("hpm:logistic-real", Logistic(1.0, -3.0), [1.0], lg, 30),
                ("hpm:logistic-pair", Logistic(1.0, -3.0), [0.1], lg, 30),
                ("hpm:spiral", Spiral(-0.5), [2.0, 2.0], orc.spiral_field(-0.5), 24),
                ("hpm:two-species", TwoSpecies.reference(), [4.0, 10.0],
                 orc.two_species_field(), 24)]:
            out.append(self._hpm(name, field, x0, order,
                                 lambda rec, p=preset, x=x0:
                                 rec("model.preset_ivp", preset_ivp, p, x)))
        for k, (field, x0, order, ivp) in enumerate(self.random):
            out.append(self._hpm(f"hpm:random-{k}", field, x0, order,
                                 lambda rec, v=ivp: v))
        return out

    @staticmethod
    def _series(name, preset, x0, field, order, radius, closed, exact=None,
                half_width=None):
        moduli = [m for m, _ in radius.values()]
        half = half_width if half_width is not None else 0.5 * min(moduli)
        grid = np.linspace(-half, half, 101)

        def run(rec):
            ivp = rec("model.preset_ivp", preset_ivp, preset, x0)
            sol = _taylor(rec, ivp, order)
            est = []
            if radius:
                for i, s in enumerate(sol.series):
                    for method in ("ratio", "root"):
                        r = rec("series.radius_estimate", radius_estimate, s, method)
                        est.append((i, method, r.value))
            return sol, est, _evals(rec, sol, grid)

        def check(out):
            sol, est, vals = out
            c = _coeff_matrix(sol)
            problems = orc.ode_residual_problems(field, x0, c)
            if sol.overflow_order is not None:
                problems.append(f"overflow_order {sol.overflow_order} on a finite series")
            if exact is not None:
                problems += orc.coeff_problems(c[0], exact)
            for i, method, value in est:
                if method in radius:
                    modulus, limit = radius[method]
                    if not orc.relative_gap(value, modulus) <= limit:
                        problems.append(f"{method} radius {value!r} of variable {i} is "
                                        f"more than {limit:.0%} from {modulus!r}")
            return problems + _eval_problems(vals, c, grid, closed)

        return Case(name, run, check)

    @staticmethod
    def _overflow():
        """Spiral a = -0.5 from (2, 2) at K = 360: the coefficients overflow
        at order 340.  That is a diagnostic (overflow_order), and no numpy
        RuntimeWarning may escape the call."""
        def run(rec):
            ivp = rec("model.preset_ivp", preset_ivp, Spiral(-0.5), [2.0, 2.0])
            return _taylor(rec, ivp, 360)

        def check(sol):
            if sol.overflow_order is None:
                return ["overflow_order is not set although coefficients overflow"]
            head = _coeff_matrix(sol)[:, : sol.overflow_order]
            if not np.all(np.isfinite(head)):
                return [f"non-finite coefficient below overflow_order "
                        f"{sol.overflow_order}"]
            return []

        return Case("overflow:spiral-K360", run, check)

    @staticmethod
    def _hpm(name, field, x0, order, make_ivp):
        def run(rec):
            ivp = make_ivp(rec)
            h = rec("series.hpm_solve", hpm_solve, ivp, order)
            sol = _taylor(rec, ivp, order)
            verdict = rec("series.hpm_collapse_check", hpm_collapse_check, h, sol, 1e-10)
            return h, sol, verdict

        def check(out):
            h, sol, (ok, dev) = out
            c = _coeff_matrix(sol)
            raw = [[s.coeffs for s in per_var] for per_var in h.corrections]
            problems = orc.ode_residual_problems(field, x0, c)
            problems += orc.hpm_problems(raw, c)
            if not (ok and dev <= 1e-10):
                problems.append(f"hpm_collapse_check reported ({ok}, {dev!r})")
            return problems

        return Case(name, run, check)


# -- orbits -------------------------------------------------------------------

NODE = orc.two_species_node()
SLOW = max(z.real for z in orc.eigenvalues(orc.jacobian_two_species(NODE)))


def horizon(rel300):
    """Criterion 6a's horizon: from t = 300 the deviation decays at the slow
    eigenvalue's rate, so the 0.5% band is reached ln(dev/0.005)/|slow|
    later; add one e-fold and round up to a multiple of 100."""
    t_need = 300.0 + max(0.0, math.log(rel300 / 0.005)) / abs(SLOW)
    return 100.0 * math.ceil((t_need + 1.0 / abs(SLOW)) / 100.0)


class Orbits:
    """The integrator, dense sampling and single-state field evaluation;
    no series is computed."""

    name = "orbits"
    cold = False

    def __init__(self, seed, workdir=None):
        rng = np.random.default_rng(seed)
        # starts near (4, 10), in a box from which the distance to the node
        # shrinks monotonically (checked on a lattice over [2, 8] x [4, 20])
        self.starts = [np.array([rng.uniform(3.0, 5.0), rng.uniform(8.0, 12.0)])
                       for _ in range(4)]

    def prepare(self):
        pass

    def cases(self, traced=False):
        lg = orc.logistic_field(1.0, -3.0)
        out = [
            self._orbit("orbit:logistic", Logistic(1.0, -3.0), [1.0], lg, 1.0, 1001,
                        lambda t: [orc.logistic_exact(1.0, -3.0, 1.0, t)], 1e-8),
            self._orbit("orbit:spiral-decay", Spiral(-0.5), [2.0, 2.0],
                        orc.spiral_field(-0.5), 20.0, 2001,
                        lambda t: orc.spiral_exact(-0.5, 2.0, 2.0, t), 1e-6),
            self._blowup(),
            self._two_species("orbit:two-species-ref", np.array([4.0, 10.0])),
        ]
        out += [self._two_species(f"orbit:two-species-{k}", x0)
                for k, x0 in enumerate(self.starts)]
        sp = lambda x: orc.jacobian_spiral(-0.5, x)  # noqa: E731
        out += [
            self._classify("classify:logistic", Logistic(1.0, -3.0), [1.0],
                           [np.array([0.0]), np.array([1.0 / 3.0])],
                           lambda x: orc.jacobian_logistic(1.0, -3.0, x)),
            self._classify("classify:spiral-decay", Spiral(-0.5), [2.0, 2.0],
                           [np.zeros(2)], sp),
            self._classify("classify:spiral-blowup", Spiral(0.5), [2.0, 2.0],
                           [np.zeros(2)], lambda x: orc.jacobian_spiral(0.5, x)),
            self._classify("classify:two-species", TwoSpecies.reference(),
                           [4.0, 10.0], orc.two_species_equilibria(),
                           orc.jacobian_two_species),
        ]
        return out

    @staticmethod
    def _trace(rec, ivp, t_end, grid_of):
        traj = rec("integrate.integrate", integrate, ivp, t_end)
        rec.note(steps=len(traj.ts) - 1)
        grid = grid_of(traj)
        states = rec("integrate.sample", sample, traj, grid)
        rec.note(points=grid.size)
        fvals = []
        for x in states[::10]:
            fvals.append(rec("model.eval_field", eval_field, ivp.field, x))
        return traj, grid, states, np.array(fvals)

    @staticmethod
    def _field_problems(field, states, fvals):
        want = np.array([orc.field_eval(field, x) for x in states[::10]])
        scale = np.maximum(1.0, np.abs(want))
        if not np.all(np.abs(fvals - want) <= 1e-12 * scale):
            return ["eval_field differs from the field written out by hand"]
        return []

    def _orbit(self, name, preset, x0, field, t_end, points, closed, tol):
        def run(rec):
            ivp = rec("model.preset_ivp", preset_ivp, preset, x0)
            return self._trace(rec, ivp, t_end,
                               lambda tr: np.linspace(0.0, t_end, points))

        def check(out):
            traj, grid, states, fvals = out
            problems = []
            if traj.status != "completed" or not abs(traj.t_end - t_end) <= 1e-12 * t_end:
                problems.append(f"status {traj.status} at t = {traj.t_end}")
            exact = np.array([closed(t) for t in grid])
            rel = np.linalg.norm(states - exact, axis=1) / np.linalg.norm(exact, axis=1)
            if not np.max(rel) <= tol:
                problems.append(f"{np.max(rel):.2e} from the closed form (limit {tol})")
            return problems + self._field_problems(field, states, fvals)

        return Case(name, run, check)

    def _blowup(self):
        """Spiral a = +0.5 from (2, 2) escapes at t_c = 0.125; `blew-up`
        there is the correct result."""
        t_c = orc.spiral_modulus(0.5, 2.0, 2.0)

        def run(rec):
            ivp = rec("model.preset_ivp", preset_ivp, Spiral(0.5), [2.0, 2.0])
            return self._trace(rec, ivp, 1.0,
                               lambda tr: np.linspace(0.0, tr.t_end, 1001))

        def check(out):
            traj, grid, states, fvals = out
            problems = []
            if traj.status != "blew-up":
                problems.append(f"status {traj.status}, expected blew-up")
            if not orc.relative_gap(traj.t_end, t_c) <= 1e-6:
                problems.append(f"escape at t = {traj.t_end!r}, closed form {t_c!r}")
            keep = grid <= 0.99 * t_c
            exact = np.array([orc.spiral_exact(0.5, 2.0, 2.0, t) for t in grid[keep]])
            rel = (np.linalg.norm(states[keep] - exact, axis=1)
                   / np.linalg.norm(exact, axis=1))
            if not np.max(rel) <= 1e-6:
                problems.append(f"{np.max(rel):.2e} from the closed form before t_c")
            return problems + self._field_problems(orc.spiral_field(0.5), states, fvals)

        return Case("orbit:spiral-blowup", run, check)

    def _two_species(self, name, x0):
        field = orc.two_species_field()

        def run(rec):
            ivp = rec("model.preset_ivp", preset_ivp, TwoSpecies.reference(), x0)
            first = rec("integrate.integrate", integrate, ivp, 300.0)
            rec.note(steps=len(first.ts) - 1)
            t_end = horizon(float(np.max(np.abs(first.states[-1] - NODE) / NODE)))
            return (first,) + self._trace(
                rec, ivp, t_end, lambda tr: np.linspace(0.0, t_end, int(t_end) + 1))

        def check(out):
            first, traj, grid, states, fvals = out
            problems = []
            if first.status != "completed" or traj.status != "completed":
                problems.append(f"status {first.status}/{traj.status}")
            if not np.all(traj.states > 0.0):
                problems.append("a state left the open positive quadrant")
            dist = np.linalg.norm(states - NODE, axis=1)
            if not np.all(np.diff(dist) <= 0.0):
                problems.append("the distance to the node grows")
            rel = np.abs(traj.states[-1] - NODE) / NODE
            if not np.max(rel) <= 0.005:
                problems.append(f"{np.max(rel):.3%} from the node at t = {traj.t_end}")
            return problems + self._field_problems(field, states, fvals)

        return Case(name, run, check)

    @staticmethod
    def _classify(name, preset, x0, points, jacobian):
        def run(rec):
            field = rec("model.preset_ivp", preset_ivp, preset, x0).field
            return [rec("phase.classify", classify, field, p) for p in points]

        def check(cps):
            return _classification_problems(
                [(cp.location, cp.eigenvalues, cp.classification) for cp in cps],
                points, jacobian, 1e-12, 1e-10)

        return Case(name, run, check)


def _classification_problems(found, points, jacobian, loc_tol, eig_tol):
    """found: [(location, eigenvalues, class)] against the closed-form
    points; eigenvalues and class against the hand-written Jacobian at the
    location found."""
    if len(found) != len(points):
        return [f"{len(found)} fixed points, expected {len(points)}"]
    problems = []
    for (loc, eigs, cls), p in zip(found, points):
        loc = np.asarray(loc, dtype=float)
        if not np.max(np.abs(loc - p)) <= loc_tol * max(1.0, float(np.max(np.abs(p)))):
            problems.append(f"fixed point {loc.tolist()}, expected {p.tolist()}")
        want = orc.eigenvalues(jacobian(loc))
        lam = max(abs(z) for z in want)
        if len(eigs) != len(want) or any(abs(complex(g) - w) > eig_tol * lam
                                         for g, w in zip(eigs, want)):
            problems.append(f"eigenvalues {list(eigs)} at {p.tolist()}, "
                            f"expected {want}")
        if cls != orc.classification(want):
            problems.append(f"{cls} at {p.tolist()}, expected "
                            f"{orc.classification(want)}")
    return problems


# -- cli ----------------------------------------------------------------------

COMMANDS = ("table1", "phase2d", "spiral", "radius", "solve", "fixed-points")
# each command's report function, and the model file it loads
_REPORT = {
    "table1": (cmd_table1, None),
    "phase2d": (cmd_phase2d, None),
    "spiral": (cmd_spiral, None),
    "radius": (cmd_radius, "spiral"),
    "solve": (cmd_solve, "logistic"),
    "fixed-points": (cmd_fixed_points, "two-species"),
}
# Criterion 5's 1e-8 holds for x0 = 1; over x0 in [0.1, 2] the default
# tolerances give up to 6.4e-8 (near x0 = 1/6), so seeded logistic runs are
# held to criterion 5's other limit.
SEEDED_LOGISTIC_TOL = 1e-6
NEWTON_GRID = 25  # fixed_points' default lattice per dimension


class Cli:
    """The six subcommands, each once per pass, from cold processes.

    The traced run runs them in-process through ``report.cmd_*`` and then
    calls the layers they use directly, with the same inputs."""

    name = "cli"
    cold = True  # the timed cases are cold processes (the traced run's are not)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        # on the circle r0^2 = 8, where the branch point sits at |t| = 0.125
        self.spiral_x0 = [math.sqrt(8.0) * math.cos(theta),
                          math.sqrt(8.0) * math.sin(theta)]
        self.logistic_x0 = float(rng.uniform(0.1, 2.0))
        self.ts_x0 = [float(v) for v in rng.uniform(1.0, 50.0, 2)]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        b1, b2, a11, a12, a21, a22 = orc.TWO_SPECIES
        docs = {
            "spiral": {"model": "spiral", "params": {"a": -0.5},
                       "x0": self.spiral_x0, "order": 30},
            "logistic": {"model": "logistic", "params": {"b": 1.0, "a": -3.0},
                         "x0": [self.logistic_x0], "order": 10,
                         "grid": {"end": 1.0, "count": 11}},
            "two-species": {"model": "two-species",
                            "params": {"b1": b1, "b2": b2, "a11": a11,
                                       "a12": a12, "a21": a21, "a22": a22},
                            "x0": self.ts_x0},
        }
        self.files = {}
        for key, doc in docs.items():
            path = self.workdir / f"{key}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.files[key] = path
        self.argv = {
            "table1": ["table1"],
            "phase2d": ["phase2d"],
            "spiral": ["spiral"],
            "radius": ["radius", str(self.files["spiral"]), "-k", "30"],
            "solve": ["solve", str(self.files["logistic"])],
            "fixed-points": ["fixed-points", str(self.files["two-species"])],
        }
        self.first: dict[str, tuple[bytes, list]] = {}
        self.peak_rss_kib = 0

    def prepare(self):
        self.ts_sums = orc.own_taylor(orc.two_species_field(), [4.0, 10.0], 10)
        self.sp_sums = orc.own_taylor(orc.spiral_field(-0.5), [2.0, 2.0], 5)
        self.log_sums = orc.logistic_coeffs(1.0, -3.0, self.logistic_x0, 10)

    def cases(self, traced=False):
        if not traced:
            return [self._command(cmd) for cmd in COMMANDS]
        return [self._in_process(cmd) for cmd in COMMANDS] + [
            self._layer_series(), self._layer_integrate(), self._layer_phase(),
            self._startup()]

    # the checks shared by both ways of running a command

    def _stdout_problems(self, cmd, stdout):
        """stdout is byte-identical in every pass (a documented property of
        the commands); the first one is checked against the oracles."""
        if cmd not in self.first:
            text = stdout.decode("utf-8")
            self.first[cmd] = (stdout, getattr(self, "_check_" + cmd.replace("-", "_"))(text))
        first, problems = self.first[cmd]
        if stdout != first:
            return ["stdout differs from the first pass"] + problems
        return problems

    def _command(self, cmd):
        argv = [sys.executable, "-m", "seriesdyn.cli"] + self.argv[cmd]

        def run(rec):
            return spawn(argv, self.workdir)

        def check(out):
            code, stdout, stderr, rss, _ = out
            self.peak_rss_kib = max(self.peak_rss_kib, rss)
            if code != 0:
                return [f"exit code {code}: {stderr.decode(errors='replace')[-300:]}"]
            return self._stdout_problems(cmd, stdout)

        return Case("cli:" + cmd, run, check)

    def _in_process(self, cmd):
        fn, key = _REPORT[cmd]
        kwargs = {"order": 30} if cmd == "radius" else {}

        def run(rec):
            args = () if key is None else (
                rec("modelfile.load_model", load_model, str(self.files[key])),)
            text = rec("report." + fn.__name__, fn, *args, **kwargs)
            rec.note(bytes=len(text.encode("utf-8")))
            return text

        def check(text):
            return self._stdout_problems(cmd, text.encode("utf-8"))

        return Case("in-process:" + cmd, run, check)

    # the layers the commands use, called directly with the same inputs

    def _layer_series(self):
        lg, sp, ts = (orc.logistic_field(1.0, -3.0), orc.spiral_field(-0.5),
                      orc.two_species_field())
        plan = [  # (preset, x0, own field, order, grid) as each command uses them
            (Logistic(1.0, -3.0), [1.0], lg, 4, np.arange(1, 11) / 10),
            (TwoSpecies.reference(), [4.0, 10.0], ts, 4, np.linspace(0, 300, 121)),
            (TwoSpecies.reference(), [4.0, 10.0], ts, 10, np.linspace(0, 300, 121)),
            (Spiral(-0.5), [2.0, 2.0], sp, 5, np.linspace(0, 20, 201)),
            (Spiral(-0.5), self.spiral_x0, sp, 30, None),
            (Logistic(1.0, -3.0), [self.logistic_x0], lg, 10, np.linspace(0, 1, 11)),
        ]

        def run(rec):
            out = []
            for preset, x0, _, order, grid in plan:
                ivp = rec("model.preset_ivp", preset_ivp, preset, x0)
                sol = _taylor(rec, ivp, order)
                est = [] if grid is not None else [
                    rec("series.radius_estimate", radius_estimate, s, m).value
                    for s in sol.series for m in ("ratio", "root")]
                vals = _evals(rec, sol, grid) if grid is not None else []
                out.append((sol, est, vals))
            return out

        def check(out):
            problems = []
            modulus = orc.spiral_modulus(-0.5, *self.spiral_x0)
            for (_, x0, field, _, grid), (sol, est, vals) in zip(plan, out):
                c = _coeff_matrix(sol)
                problems += orc.ode_residual_problems(field, x0, c)
                if grid is not None:
                    problems += _eval_problems(vals, c, grid)
                problems += [f"radius {v!r} more than 20% from {modulus!r}"
                             for v in est if not orc.relative_gap(v, modulus) <= 0.20]
            return problems

        return Case("layers:series", run, check)

    def _layer_integrate(self):
        plan = [  # (preset, x0, t_end, grid, closed form or None, criterion 5)
            (Logistic(1.0, -3.0), [1.0], 1.0, np.arange(1, 11) / 10,
             lambda t: [orc.logistic_exact(1.0, -3.0, 1.0, t)], 1e-8),
            (TwoSpecies.reference(), [4.0, 10.0], 300.0, np.linspace(0, 300, 121),
             None, None),
            (Spiral(-0.5), [2.0, 2.0], 20.0, np.linspace(0, 20, 201),
             lambda t: orc.spiral_exact(-0.5, 2.0, 2.0, t), 1e-6),
            (Logistic(1.0, -3.0), [self.logistic_x0], 1.0, np.linspace(0, 1, 11),
             lambda t: [orc.logistic_exact(1.0, -3.0, self.logistic_x0, t)],
             SEEDED_LOGISTIC_TOL),
        ]

        def run(rec):
            out = []
            for preset, x0, t_end, grid, _, _ in plan:
                ivp = rec("model.preset_ivp", preset_ivp, preset, x0)
                traj = rec("integrate.integrate", integrate, ivp, t_end)
                rec.note(steps=len(traj.ts) - 1)
                out.append((traj, rec("integrate.sample", sample, traj, grid)))
                rec.note(points=grid.size)
            return out

        def check(out):
            problems = []
            for (_, _, t_end, grid, closed, tol), (traj, states) in zip(plan, out):
                if traj.status != "completed":
                    problems.append(f"status {traj.status} before t = {t_end}")
                if closed is None:
                    if not np.all(states > 0.0):
                        problems.append("two-species state left the positive quadrant")
                    continue
                exact = np.array([closed(t) for t in grid])
                rel = np.linalg.norm(states - exact, axis=1) / np.linalg.norm(exact, axis=1)
                if not np.max(rel) <= tol:
                    problems.append(f"{np.max(rel):.2e} from the closed form "
                                    f"(limit {tol})")
            return problems

        return Case("layers:integrate", run, check)

    def _layer_phase(self):
        b1, b2, a11, _, _, a22 = orc.TWO_SPECIES
        # fixed_points' seeds: the lattice over [-0.1 S, S]^2 with
        # S = 2 max|b_i / a_ii|, plus the origin, both axis intercepts and
        # the interior point of the product form
        s = 2.0 * max(abs(b1 / a11), abs(b2 / a22))
        axis = np.linspace(-0.1 * s, s, NEWTON_GRID)
        seeds = [np.array([u, v]) for u in axis for v in axis]
        n_seeds = len(seeds) + 4
        points = orc.two_species_equilibria()

        def run(rec):
            field = rec("model.preset_ivp", preset_ivp, TwoSpecies.reference(),
                        [4.0, 10.0]).field
            roots = rec("phase.fixed_points", fixed_points, field)
            rec.note(seeds=n_seeds, roots=len(roots))
            cps = [rec("phase.classify", classify, field, r) for r in roots]
            jacs = [rec("model.jacobian_at", jacobian_at, field, x) for x in seeds]
            return cps, jacs

        def check(out):
            cps, jacs = out
            problems = _classification_problems(
                [(cp.location, cp.eigenvalues, cp.classification) for cp in cps],
                points, orc.jacobian_two_species, 1e-6, 1e-10)
            for x, jac in zip(seeds, jacs):
                want = orc.jacobian_two_species(x)
                if not np.all(np.abs(jac - want) <= 1e-12 * np.maximum(1.0, np.abs(want))):
                    problems.append(f"jacobian_at {x.tolist()} differs from the "
                                    f"hand-written Jacobian")
                    break
            return problems

        return Case("layers:phase", run, check)

    def _startup(self):
        probes = [("cli.interpreter", [sys.executable, "-c", "pass"]),
                  ("cli.import", [sys.executable, "-c", "import seriesdyn"])]

        def run(rec):
            out = []
            for name, argv in probes:
                with rec.span(name):
                    out.append(spawn(argv, self.workdir))
            return out

        def check(out):
            return [f"{argv[-1]!r} exited {o[0]}: {o[2][-200:]!r}"
                    for (_, argv), o in zip(probes, out) if o[0] != 0]

        return Case("layers:startup", run, check)

    # oracle checks of each command's output

    def _check_table1(self, text):
        lines = text.splitlines()
        if lines[0].split() != ["t", "series4", "exact", "numerical", "log10-rel-error"]:
            return [f"table1 header {lines[0]!r}"]
        coeffs = orc.logistic_coeffs(1.0, -3.0, 1.0, 4)
        problems = [] if len(lines) == 11 else [f"table1 has {len(lines) - 1} rows"]
        for k, line in enumerate(lines[1:11], start=1):
            cells = line.split()
            t = k / 10
            s4, ex, num, log_err = (float(v) for v in cells[1:])
            s4_ref = orc.partial_sum(coeffs, t)[0]
            ex_ref = orc.logistic_exact(1.0, -3.0, 1.0, t)
            if cells[0] != f"{t:.1f}":
                problems.append(f"table1 row {k} has t = {cells[0]}")
            if not orc.relative_gap(s4, s4_ref) <= 1e-9:
                problems.append(f"table1 series4 {s4!r} at t = {t}, exact {s4_ref!r}")
            if not orc.relative_gap(ex, ex_ref) <= 1e-9:
                problems.append(f"table1 exact {ex!r} at t = {t}, closed form {ex_ref!r}")
            if not orc.relative_gap(num, ex_ref) <= 1.1e-8:
                problems.append(f"table1 numerical {num!r} at t = {t}, closed form "
                                f"{ex_ref!r}")
            want = math.log10(abs((ex_ref - s4_ref) / ex_ref))
            if not abs(log_err - want) <= 0.01:
                problems.append(f"table1 log error {log_err!r} at t = {t}, exact {want:.4f}")
        return problems

    @staticmethod
    def _csv(text, header):
        rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
        if rows[0] != header:
            raise ValueError(f"header {rows[0]}, expected {header}")
        return np.array([[float(v) for v in r] for r in rows[1:]])

    def _check_spiral(self, text):
        data = self._csv(text, ["t", "x_num", "y_num", "x_exact", "y_exact",
                                "x_series", "y_series"])
        problems = [] if data.shape[0] == 201 else [f"spiral has {data.shape[0]} rows"]
        for k, row in enumerate(data[:201]):
            t = 20.0 * k / 200
            exact = orc.spiral_exact(-0.5, 2.0, 2.0, t)
            r = float(np.linalg.norm(exact))
            if not abs(row[0] - t) <= 1e-12 * t:
                problems.append(f"spiral row {k} has t = {row[0]!r}")
            if not np.max(np.abs(row[3:5] - exact)) <= 1e-10 * r:
                problems.append(f"spiral exact columns at t = {t} leave the closed form")
            if not np.linalg.norm(row[1:3] - exact) <= 1e-6 * r:
                problems.append(f"spiral numerical columns at t = {t} are more than "
                                f"1e-6 from the closed form")
            for i in range(2):
                want, scale = orc.partial_sum(self.sp_sums[i], t)
                if not abs(row[5 + i] - want) <= 1e-10 * max(scale, abs(want)):
                    problems.append(f"spiral series column {i} at t = {t}")
        return problems[:5]

    def _check_phase2d(self, text):
        data = self._csv(text, ["t", "x_num", "y_num", "x_s4", "y_s4", "x_s10",
                                "y_s10", "crossover"])
        problems = [] if data.shape[0] == 121 else [f"phase2d has {data.shape[0]} rows"]
        grid = np.linspace(0.0, 300.0, 121)
        if not np.all(np.abs(data[:, 0] - grid) <= 1e-12 * grid):
            problems.append("phase2d time column is not the uniform grid")
        if not np.array_equal(data[0, 1:3], [4.0, 10.0]) or not np.all(data[:, 1:3] > 0):
            problems.append("phase2d numerical columns do not start at (4, 10) "
                            "or leave the positive quadrant")
        if not np.all(np.diff(np.linalg.norm(data[:, 1:3] - NODE, axis=1)) <= 0):
            problems.append("phase2d numerical distance to the node grows")
        for col, order in ((3, 4), (5, 10)):
            for i in range(2):
                for t, got in zip(grid, data[:, col + i]):
                    want, scale = orc.partial_sum(self.ts_sums[i][: order + 1], t)
                    if not abs(got - want) <= 1e-10 * max(scale, abs(want)):
                        problems.append(f"phase2d order-{order} column {i} at t = {t}")
                        break
        marks = np.flatnonzero(data[:, 7] == 1)
        dev = {k: np.linalg.norm(data[:, c:c + 2] - data[:, 1:3], axis=1)
               for k, c in ((4, 3), (10, 5))}
        if len(marks) != 1 or not dev[10][marks[0]] > dev[4][marks[0]]:
            problems.append(f"phase2d crossover rows {marks.tolist()}")
        footer = [ln for ln in text.splitlines() if ln.startswith("# (")]
        found = []
        for ln in footer:
            m = re.match(r"# \((\S+), (\S+)\) (\S+) \[(\S+), (\S+)\]$", ln)
            if not m:
                problems.append(f"phase2d footer line {ln!r}")
                continue
            found.append((np.array([float(m[1]), float(m[2])]),
                          [_parse_complex(m[4]), _parse_complex(m[5])], m[3]))
        return problems + _classification_problems(
            found, orc.two_species_equilibria(), orc.jacobian_two_species,
            1e-6, 1e-9)

    def _check_radius(self, text):
        lines = text.splitlines()
        modulus = orc.spiral_modulus(-0.5, *self.spiral_x0)
        problems = []
        if lines[0] != "radius-of-convergence report: model spiral, order K=30":
            problems.append(f"radius first line {lines[0]!r}")
        for name in "xy":
            m = [re.fullmatch(rf"variable {name}: ratio (\S+)  root (\S+)", ln)
                 for ln in lines]
            m = [v for v in m if v]
            if len(m) != 1:
                problems.append(f"radius has no line for variable {name}")
                continue
            for v in (float(m[0][1]), float(m[0][2])):
                if not orc.relative_gap(v, modulus) <= 0.20:
                    problems.append(f"radius estimate {v!r} is more than 20% from "
                                    f"{modulus!r}")
        m = [re.match(r"analytic singularity modulus: (\S+) \(branch-point", ln)
             for ln in lines]
        m = [v for v in m if v]
        if len(m) != 1 or not orc.relative_gap(float(m[0][1]), modulus) <= 1e-10:
            problems.append(f"radius does not print the modulus {modulus!r}")
        return problems

    def _check_solve(self, text):
        data = self._csv(text, ["t", "x_num", "x_s10"])
        problems = [] if data.shape[0] == 11 else [f"solve has {data.shape[0]} rows"]
        x0 = self.logistic_x0
        for k, (t_got, num, s10) in enumerate(data[:11]):
            t = k / 10
            exact = orc.logistic_exact(1.0, -3.0, x0, t)
            want, scale = orc.partial_sum(self.log_sums, t)
            if not abs(t_got - t) <= 1e-12 * t:
                problems.append(f"solve row {k} has t = {t_got!r}")
            if not orc.relative_gap(num, exact) <= SEEDED_LOGISTIC_TOL:
                problems.append(f"solve numerical {num!r} at t = {t}, closed form {exact!r}")
            if not abs(s10 - want) <= 1e-10 * max(scale, abs(want)):
                problems.append(f"solve series {s10!r} at t = {t}, exact sum {want!r}")
        return problems

    def _check_fixed_points(self, text):
        lines = text.splitlines()
        problems = [] if lines[0] == "fixed points found: 4" else [lines[0]]
        if lines[1].split() != ["x", "y", "eigenvalue-1", "eigenvalue-2", "class"]:
            problems.append(f"fixed-points header {lines[1]!r}")
        found = []
        for ln in lines[2:]:
            cells = ln.split()
            if len(cells) != 5:
                problems.append(f"fixed-points line {ln!r}")
                continue
            found.append((np.array([float(cells[0]), float(cells[1])]),
                          [_parse_complex(cells[2]), _parse_complex(cells[3])],
                          cells[4]))
        # six significant digits are printed
        return problems + _classification_problems(
            found, orc.two_species_equilibria(), orc.jacobian_two_species,
            1e-5, 1e-5)


_COMPLEX = re.compile(r"([-+]?[0-9.]+(?:e[-+]?\d+)?)(?:([-+][0-9.]+(?:e[-+]?\d+)?)i)?")


def _parse_complex(text):
    m = _COMPLEX.fullmatch(text)
    if not m:
        raise ValueError(f"not a number: {text!r}")
    return complex(float(m[1]), float(m[2]) if m[2] else 0.0)


WORKLOADS = {"expand": Expand, "orbits": Orbits, "cli": Cli}
# operations that fail every run because of a fault in the program; each
# still counts in `failed`, but does not make the run incorrect
KNOWN_FAULTS = {
    # taylor_solve leaks "invalid value encountered in add" once the
    # coefficients overflow (ROADMAP: no RuntimeWarning may leak)
    "overflow:spiral-K360",
}
