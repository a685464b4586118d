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
        # stored as Python floats, so the step loop never runs on numpy scalars
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))
        if self.rel_tol < _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol must be at least {_REL_TOL_FLOOR!r} "
                             "(100 machine epsilons)")
        _check_count(self.max_steps, "max_steps")


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
    """

    ts: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    step_sizes: np.ndarray
    error_estimates: np.ndarray
    status: str
    rhs_evals: int = 0
    rejected_steps: int = 0

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


def _error_norm(err, y_old, y_new, atol, rtol):
    """RMS of err / (atol + rtol * max(|y_old|, |y_new|)), on lists of
    Python floats.

    The sum runs left to right, which is how ``np.mean`` sums fewer than
    eight values, so for n <= 7 this is ``np.mean``'s value bit for bit.
    Where the squares overflow, the norm is ``math.hypot`` of the scaled
    terms over sqrt(n), which scales by the largest term.  ``y_old`` is
    an accepted state and never NaN; a NaN in ``y_new`` makes the norm
    NaN, as ``np.maximum`` would.
    """
    acc = 0.0
    for e, a, b in zip(err, y_old, y_new):
        a, b = abs(a), abs(b)
        q = e / (atol + rtol * (a if a >= b else b))
        acc += q * q
    if math.isfinite(acc):
        return math.sqrt(acc / len(err))
    return math.hypot(*(e / (atol + rtol * (a if a >= b else b))
                        for e, a, b in zip(err, map(abs, y_old), map(abs, y_new)))
                      ) / math.sqrt(len(err))


def _initial_step(rhs, y0, f0, t_end, cfg):
    """The first step from the state ``y0`` and ``f0`` = f(y0), lists of
    floats, by the heuristic of Hairer, Nørsett & Wanner (Solving ODEs I,
    II.4), each scale measured in the step loop's error norm at y0.  A
    zero first step stops the run."""
    if not all(map(math.isfinite, f0)):
        return 0.0  # no step from a non-finite slope: the run stops at once
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    d0 = _error_norm(y0, y0, y0, atol, rtol)
    d1 = _error_norm(f0, y0, y0, atol, rtol)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if h0 == 0.0:
        return 0.0  # f0 overflows the norm: no step can be sized either
    h0 = min(h0, t_end)
    f1 = rhs([y + h0 * f for y, f in zip(y0, f0)], [0.0] * len(y0))
    d2 = _error_norm([b - a for a, b in zip(f0, f1)], y0, y0, atol, rtol) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def _attempt_source(shape) -> list[str]:
    """The body of the DP5 attempt's factory for a field of this shape
    (see ``model._factory``).

    ``attempt(y, f0, h)`` takes the state and f there as lists of n
    floats and returns the new state, f at the 7th stage (FSAL) and the
    error estimate, as three lists.  It is straight-line code: per stage
    s = 1..6 one line per component, ``v{i} = y{i} + h * (a_s0 * s0_{i}
    + ... )``, then the field's lines with f written to s{s}_0, s{s}_1,
    ...; the new state is ``y{i} + h * (b0 * s0_{i} + ... + b6 * s6_{i})``
    and the error ``h * (e0 * s0_{i} + ... )``, the tableau entries as
    float literals.  Each weighted sum runs left to right over the whole
    tableau row, zero entries included, so a non-finite stage (float
    products and sums overflow to ±inf or nan and never raise) makes the
    error estimate NaN.
    """
    n = shape[0]

    def weighted(row, i):
        return " + ".join(f"{w!r} * s{j}_{i}" for j, w in enumerate(row))

    lines = ["def attempt(y, f0, h):",
             "    " + "".join(f"y{i}, " for i in range(n)) + "= y",
             "    " + "".join(f"s0_{i}, " for i in range(n)) + "= f0"]
    for s in range(1, 7):
        lines += [f"    v{i} = y{i} + h * ({weighted(_A[s], i)})" for i in range(n)]
        lines += ["    " + line for line in
                  _field_lines(shape, [f"s{s}_{i}" for i in range(n)])]
    lines += ["    return ([" + ", ".join(f"y{i} + h * ({weighted(_B5, i)})"
                                         for i in range(n)) + "],",
              "            [" + ", ".join(f"s6_{i}" for i in range(n)) + "],",
              "            [" + ", ".join(f"h * ({weighted(_E, i)})"
                                         for i in range(n)) + "])",
              "return attempt"]
    return lines


def integrate(ivp: InitialValueProblem, t_end: float,
              cfg: IntegrationConfig | None = None) -> Trajectory:
    """Integrate dx/dt = f(x) from t = 0 to ``t_end``.

    Returns every accepted step, with the number of f evaluations and of
    rejected attempts; one DEBUG line per call under
    ``seriesdyn.integrate`` reports them.  Deterministic: identical
    inputs give bit-identical trajectories, on any BLAS build or CPU.

    Each attempt is one call of the field's DP5 attempt (see
    ``_attempt_source``), generated once per field shape and bound once
    to this field's coefficients: the six stages, the new state and the
    error estimate as straight-line Python float code, so neither the
    first step nor the step loop calls numpy; an attempt that overflows
    is rejected.  The error norm, the blow-up test and the step-size
    control have the same bits as the numpy forms for n <= 7 (the norm's
    sum order differs from ``np.mean``'s pairwise one from n = 8 on).
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError("t_end must be positive and finite")
    cfg = cfg or IntegrationConfig()
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    program = ivp.field._program
    attempt = program.bound(_attempt_source)
    evals = 0

    def rhs(y: list, out):
        """f at the state ``y`` (Python floats) written into ``out``."""
        nonlocal evals
        evals += 1
        return program.run(y, out)

    t = 0.0
    y_list = ivp.x0.tolist()
    f = rhs(y_list, [0.0] * ivp.dimension)  # always f at the current state (FSAL)
    ts = [t]
    ys = [y_list]
    fs = [f]
    hs: list[float] = []
    errs: list[float] = []
    status = "completed"

    h = _initial_step(rhs, y_list, f, t_end, cfg)
    err_prev = 1.0
    attempts = rejected = 0
    # Algebraic escape such as (t_c - t)**-0.5 grows too slowly to cross
    # _BLOWUP_NORM before t exhausts double precision near t_c, so a step
    # size underflow with the state far beyond its initial scale is
    # reported as blow-up rather than stiffness.
    escape_scale = 1e3 * (1.0 + max(map(abs, y_list)))

    while t < t_end:
        if attempts >= cfg.max_steps:
            status = "stiff-abort"
            break
        h = min(h, t_end - t)
        if t + h == t:  # step size underflow: cannot advance
            status = "blew-up" if max(map(abs, y_list)) > escape_scale else "stiff-abort"
            break
        attempts += 1
        evals += 6
        new_list, f_new, err_vec = attempt(y_list, f, h)
        err = _error_norm(err_vec, y_list, new_list, atol, rtol)

        if err <= 1.0:  # false for NaN and inf
            t += h
            y_list = new_list
            f = f_new  # a rejected attempt retries from f at the accepted state
            ts.append(t)
            ys.append(y_list)
            fs.append(f)
            hs.append(h)
            errs.append(err)
            if max(map(abs, y_list)) > _BLOWUP_NORM:
                status = "blew-up"
                break
            factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA if err > 0 \
                else _MAX_FACTOR
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            shrink = _SAFETY * err ** (-0.2) if math.isfinite(err) else 0.1
            h *= max(0.1, min(1.0, shrink))

    logger.debug("integrate: %s at t = %r, %d accepted, %d rejected, "
                 "%d rhs evaluations", status, t, len(hs), rejected, evals)
    return Trajectory(
        ts=np.array(ts),
        states=np.array(ys),
        derivs=np.array(fs),
        step_sizes=np.array(hs),
        error_estimates=np.array(errs),
        status=status,
        rhs_evals=evals,
        rejected_steps=rejected,
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
