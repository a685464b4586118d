"""Adaptive Dormand-Prince 5(4) integrator with dense output.

This is the numerical baseline the series solutions are judged against.
The propagated solution is 5th order; the embedded 4th-order solution
provides the local error estimate.  Step sizes follow a standard PI
controller on the mixed absolute/relative error norm.  Finite-time
escape is reported as a trajectory status, not an exception, because
movable singularities are a legitimate finding for these models.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError
from .model import InitialValueProblem, _check_count, _field_lines

logger = logging.getLogger("seriesdyn.integrate")

__all__ = ["IntegrationConfig", "Trajectory", "integrate", "sample"]

# Dormand-Prince 5(4) tableau (FSAL: the 7th stage is f at the new point).
# The system is autonomous, so no stage needs its time node c.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: weights of the embedded error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a 5(4) pair
_ALPHA = 0.7 / 5
_BETA = 0.4 / 5
_BLOWUP_NORM = 1e8  # a state norm beyond this ends the run as 'blew-up'
# Below this relative tolerance the error norm asks for more digits than
# a double carries: the steps shrink to nothing and the budget is spent.
_REL_TOL_FLOOR = 100 * math.ulp(1.0)  # 100 machine epsilons


@dataclass(frozen=True)
class IntegrationConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive and finite")
        # stored as Python floats (and max_steps as an int below), so the
        # step loop never runs on numpy scalars
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))
        if self.rel_tol < _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol must be at least {_REL_TOL_FLOOR!r} "
                             "(100 machine epsilons)")
        _check_count(self.max_steps, "max_steps")
        object.__setattr__(self, "max_steps", int(self.max_steps))


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration steps plus per-step metadata.

    ``states[k]`` is the solution at ``ts[k]``; ``derivs[k]`` is f there
    (stored for dense output).  ``step_sizes`` and ``error_estimates``
    describe the accepted step ending at each interior node.  ``status``
    is 'completed', 'blew-up' (state norm crossed 1e8, or the step size
    underflowed with the state already far beyond its initial scale) or
    'stiff-abort' (step budget exhausted or the step size underflowed
    without escape).  ``rhs_evals`` counts evaluations of f and
    ``rejected_steps`` the attempts the error control turned down.
    ``stop_reason`` names the exit ``integrate`` took: 't_end' (reached,
    'completed'), 'max_steps' (budget spent), 'step_underflow' (t + h ==
    t after at least one attempt), 'blowup_norm' (state norm crossed
    1e8) or 'no_first_step' (the first step was zero: f(x0) or its
    probe not finite or overflowing the norm); None for a trajectory
    built by hand.
    """

    ts: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    step_sizes: np.ndarray
    error_estimates: np.ndarray
    status: str
    rhs_evals: int = 0
    rejected_steps: int = 0
    stop_reason: str | None = None

    def __post_init__(self):
        for name in ("ts", "states", "derivs", "step_sizes", "error_estimates"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def _error_norm(err, y, atol, rtol):
    """RMS of err / (atol + rtol * |y|), on lists of Python floats: the
    step loop's error norm (see ``_loop_source``) where the old and the
    new state are both ``y``, as in the first step's scales.

    The sum runs left to right, which is how ``np.mean`` sums fewer than
    eight values, so for n <= 7 this is ``np.mean``'s value bit for bit.
    Where the squares overflow, the norm is ``math.hypot`` of the scaled
    terms over sqrt(n), which scales by the largest term.
    """
    scaled = [e / (atol + rtol * abs(v)) for e, v in zip(err, y)]
    acc = 0.0
    for q in scaled:
        acc += q * q
    if math.isfinite(acc):
        return math.sqrt(acc / len(err))
    return math.hypot(*scaled) / math.sqrt(len(err))


def _initial_step(rhs, y0, f0, t_end, cfg):
    """The first step from the state ``y0`` and ``f0`` = f(y0), lists of
    floats, by the heuristic of Hairer, Nørsett & Wanner (Solving ODEs I,
    II.4), each scale measured in the step loop's error norm at y0, and
    the number of evaluations of f it made (0 or 1, the probe).  A zero
    first step stops the run."""
    if not all(map(math.isfinite, f0)):
        return 0.0, 0  # no step from a non-finite slope: the run stops at once
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    d0 = _error_norm(y0, y0, atol, rtol)
    d1 = _error_norm(f0, y0, atol, rtol)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:
        return 0.0, 0  # f0 overflows the norm: no step can be sized either
    h0 = min(h0, t_end)
    f1 = rhs([y + h0 * f for y, f in zip(y0, f0)], [0.0] * len(y0))
    d2 = _error_norm([b - a for a, b in zip(f0, f1)], y0, atol, rtol) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end), 1


def _loop_source(shape) -> list[str]:
    """The body of the DP5 step loop's factory for a field of this shape
    (see ``model._factory``).

    ``loop(ts, ys, fs, hs, errs, h, end, atol, rtol, budget, escape)``
    starts from the one node in the flat lists ``ts`` (t = 0), ``ys`` (the
    n state components) and ``fs`` (f there) with the step ``h``, runs
    until t reaches ``end``, and appends each accepted node to those
    lists and its step and error norm to ``hs`` and ``errs``.  It returns
    ``(status, stop_reason, attempts, rejected)``.

    Each attempt is straight-line code on Python floats: per stage
    s = 1..6 one line per component, ``v{i} = y{i} + h * (a_s0 * s0_{i}
    + ... )``, then the field's lines with f written to s{s}_0, s{s}_1,
    ...; the new state ``z{i} = y{i} + h * (b0 * s0_{i} + ... + b6 *
    s6_{i})`` and the error ``e{i} = h * (e0 * s0_{i} + ... )``, the
    tableau entries as float literals.  Each weighted sum runs left to
    right over the whole tableau row, zero entries included, so a
    non-finite stage (float products and sums overflow to ±inf or nan and
    never raise) makes the error estimate NaN.  The error norm is
    ``_error_norm`` written out on the scaled errors q{i} = e{i} / (atol +
    rtol * max(|y{i}|, |z{i}|)): their squares summed left to right and
    ``sqrt(acc / n)``, or ``hypot(q0, ...) / sqrt(n)`` where that sum is
    not finite.  A NaN in the new state makes the norm NaN, so an
    accepted state holds no NaN and the blow-up and escape tests
    ``abs(y0) > bound or abs(y1) > bound ...`` are ``max(map(abs, y)) >
    bound``; each clamp of the controller is a conditional expression
    that picks what the builtin ``min`` or ``max`` would.  The time is
    ``now``, since the field's term sums use ``t``.
    """
    n = shape[0]
    state = "".join(f"y{i}, " for i in range(n))  # "y0, y1, ": a tuple for any n
    slope = "".join(f"s0_{i}, " for i in range(n))

    def weighted(row, i):
        return " + ".join(f"{w!r} * s{j}_{i}" for j, w in enumerate(row))

    def beyond(bound):
        return " or ".join(f"abs(y{i}) > {bound}" for i in range(n))

    def in_loop(lines):
        return ["        " + line for line in lines]

    lines = ["from math import hypot, isfinite, sqrt",
             "def loop(ts, ys, fs, hs, errs, h, end, atol, rtol, budget, escape):",
             f"    {state}= ys",
             f"    {slope}= fs",
             "    now = 0.0",
             "    err_prev = 1.0",
             "    attempts = rejected = 0",
             "    while now < end:"]
    lines += in_loop([
        "if attempts >= budget:",
        "    return 'stiff-abort', 'max_steps', attempts, rejected",
        "rest = end - now",
        "if rest < h:",
        "    h = rest",
        "if now + h == now:  # the step size underflowed: cannot advance",
        "    if not attempts:",
        "        return 'stiff-abort', 'no_first_step', attempts, rejected",
        f"    if {beyond('escape')}:",
        "        return 'blew-up', 'step_underflow', attempts, rejected",
        "    return 'stiff-abort', 'step_underflow', attempts, rejected",
        "attempts += 1"])
    for s in range(1, 7):
        lines += in_loop([f"v{i} = y{i} + h * ({weighted(_A[s], i)})" for i in range(n)])
        lines += in_loop(_field_lines(shape, [f"s{s}_{i}" for i in range(n)]))
    for i in range(n):
        lines += in_loop([f"z{i} = y{i} + h * ({weighted(_B5, i)})",
                          f"e{i} = h * ({weighted(_E, i)})",
                          f"a = abs(y{i})",
                          f"b = abs(z{i})",
                          f"q{i} = e{i} / (atol + rtol * (a if a >= b else b))"])
    lines += in_loop([
        "acc = " + " + ".join(f"q{i} * q{i}" for i in range(n)),
        "if isfinite(acc):",
        f"    err = sqrt(acc / {n})",
        "else:",
        "    err = hypot(" + ", ".join(f"q{i}" for i in range(n)) + f") / sqrt({n})",
        "if err <= 1.0:  # false for NaN and inf",
        "    now += h",
        f"    {state}= " + "".join(f"z{i}, " for i in range(n)),
        # FSAL: a rejected attempt retries from f at the accepted state
        f"    {slope}= " + "".join(f"s6_{i}, " for i in range(n)),
        "    ts.append(now)",
        *(f"    ys.append(y{i})" for i in range(n)),
        *(f"    fs.append(s0_{i})" for i in range(n)),
        "    hs.append(h)",
        "    errs.append(err)",
        f"    if {beyond(repr(_BLOWUP_NORM))}:",
        "        return 'blew-up', 'blowup_norm', attempts, rejected",
        "    if err > 0.0:",
        f"        factor = {_SAFETY!r} * err ** {-_ALPHA!r} * err_prev ** {_BETA!r}",
        f"        factor = factor if factor > {_MIN_FACTOR!r} else {_MIN_FACTOR!r}",
        f"        h *= factor if factor < {_MAX_FACTOR!r} else {_MAX_FACTOR!r}",
        "    else:",
        f"        h *= {_MAX_FACTOR!r}",
        "    err_prev = 1e-10 if err < 1e-10 else err",
        "else:",
        "    rejected += 1",
        f"    shrink = {_SAFETY!r} * err ** -0.2 if isfinite(err) else 0.1",
        "    shrink = shrink if shrink < 1.0 else 1.0",
        "    h *= shrink if shrink > 0.1 else 0.1"])
    lines += ["    return 'completed', 't_end', attempts, rejected",
              "return loop"]
    return lines


def integrate(ivp: InitialValueProblem, t_end: float,
              cfg: IntegrationConfig | None = None) -> Trajectory:
    """Integrate dx/dt = f(x) from t = 0 to ``t_end``.

    Returns every accepted step, with the number of f evaluations and of
    rejected attempts and the reason the run stopped; one DEBUG line per
    call under ``seriesdyn.integrate`` reports them.  Deterministic:
    identical inputs give bit-identical trajectories, on any BLAS build
    or CPU.

    After f(x0) and the first step, the whole step loop is one call of
    the field's DP5 loop (see ``_loop_source``), generated once per field
    shape and bound once to this field's coefficients: the six stages,
    the new state, the error estimate and its norm, the blow-up test and
    the step-size control as Python float code, which appends every
    accepted node to flat lists, so neither the first step nor the step
    loop calls numpy; an attempt that overflows is rejected.  The lists
    become the trajectory's arrays once, at the end.  The error norm, the
    blow-up test and the step-size control have the same bits as the
    numpy forms for n <= 7 (the norm's sum order differs from
    ``np.mean``'s pairwise one from n = 8 on).
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError("t_end must be positive and finite")
    cfg = cfg or IntegrationConfig()
    program = ivp.field._program
    loop = program.bound(_loop_source)
    n = ivp.dimension
    ys = ivp.x0.tolist()
    fs = program.run(ys, [0.0] * n)
    h, probes = _initial_step(program.run, ys, fs, t_end, cfg)
    # Algebraic escape such as (t_c - t)**-0.5 grows too slowly to cross
    # _BLOWUP_NORM before t exhausts double precision near t_c, so a step
    # size underflow with the state far beyond its initial scale is
    # reported as blow-up rather than stiffness.
    escape = 1e3 * (1.0 + max(map(abs, ys)))
    ts, hs, errs = [0.0], [], []
    status, reason, attempts, rejected = loop(ts, ys, fs, hs, errs, h, t_end, cfg.abs_tol,
                                              cfg.rel_tol, cfg.max_steps, escape)
    evals = 1 + probes + 6 * attempts
    logger.debug("integrate: %s (%s) at t = %r, %d accepted, %d rejected, "
                 "%d rhs evaluations", status, reason, ts[-1], len(hs), rejected, evals)
    return Trajectory(
        ts=np.array(ts),
        states=np.array(ys).reshape(-1, n),
        derivs=np.array(fs).reshape(-1, n),
        step_sizes=np.array(hs),
        error_estimates=np.array(errs),
        status=status,
        rhs_evals=evals,
        rejected_steps=rejected,
        stop_reason=reason,
    )


def sample(traj: Trajectory, times) -> np.ndarray:
    """States at the requested times, shape (len(times), n).

    Node hits return the stored states exactly; interior points use cubic
    Hermite interpolation on the bracketing accepted step with the stored
    endpoint derivatives.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    ts = traj.ts
    if not np.all((times >= ts[0]) & (times <= ts[-1])):
        raise RangeError(
            f"sample times must lie in [{ts[0]}, {ts[-1]}]"
        )
    idx = np.searchsorted(ts, times, side="right") - 1
    idx = np.clip(idx, 0, len(ts) - 2)
    at_left = times == ts[idx]
    at_right = ~at_left & (times == ts[idx + 1])
    out = np.where(at_left[:, None], traj.states[idx], traj.states[idx + 1])
    inner = ~(at_left | at_right)
    t, i = times[inner], idx[inner]
    h = ts[i + 1] - ts[i]
    th = (t - ts[i]) / h
    th2 = th * th
    th3 = th2 * th
    h00 = 2 * th3 - 3 * th2 + 1
    h10 = th3 - 2 * th2 + th
    h01 = -2 * th3 + 3 * th2
    h11 = th3 - th2
    out[inner] = (h00[:, None] * traj.states[i] + (h10 * h)[:, None] * traj.derivs[i]
                  + h01[:, None] * traj.states[i + 1]
                  + (h11 * h)[:, None] * traj.derivs[i + 1])
    return out
