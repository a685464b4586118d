"""Adaptive Dormand-Prince 5(4) integrator with dense output.

This is the numerical baseline the series solutions are judged against.
The propagated solution is 5th order; the embedded 4th-order solution
provides the local error estimate.  Step sizes follow a standard PI
controller on the mixed absolute/relative error norm.  Finite-time
escape is reported as a trajectory status, not an exception, because
movable singularities are a legitimate finding for these models.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DEBUG, DimensionError, RangeError, logger, record
from .model import InitialValueProblem, IntegrationConfig, _field_lines, _hold

# Dormand-Prince 5(4) tableau.  A's last row is b5, the 5th-order weights,
# so the 7th stage is f at the new state (FSAL: first same as last).  The
# system is autonomous, so no stage needs its time node c.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# b5 - b4: weights of the embedded error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a 5(4) pair
_ALPHA = 0.7 / 5
_BETA = 0.4 / 5
_BLOWUP_NORM = 1e8  # a state norm beyond this ends the run as 'blew-up'

_DEFAULT_CONFIG = IntegrationConfig()  # shared: a record is immutable


@record(eq=False)
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
    built by hand.  Its five arrays are read-only copies of the input; a
    trajectory compares and hashes by identity.

    A hand-built trajectory is checked: ``states`` and ``derivs`` of a
    shape other than (len(ts), n), or ``step_sizes`` and
    ``error_estimates`` of a length other than len(ts) - 1, raise
    ``DimensionError``; ``ts`` that is not finite and strictly increasing
    raises ``ValueError``.
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
        ts = _hold(self, "ts", self.ts)
        for name in ("states", "derivs", "step_sizes", "error_estimates"):
            _hold(self, name, getattr(self, name))
        nodes = len(ts) if ts.ndim == 1 else 0
        n = self.states.shape[1] if self.states.ndim == 2 else 0
        if not (nodes and n and self.states.shape == self.derivs.shape == (nodes, n)
                and self.step_sizes.shape == self.error_estimates.shape == (nodes - 1,)):
            raise DimensionError(
                "a trajectory needs ts (N,), states and derivs (N, n), step_sizes and "
                f"error_estimates (N - 1,), got {ts.shape}, {self.states.shape}, "
                f"{self.derivs.shape}, {self.step_sizes.shape} and "
                f"{self.error_estimates.shape}")
        if not (math.isfinite(ts[0]) and math.isfinite(ts[-1]) and (ts[1:] > ts[:-1]).all()):
            raise ValueError("trajectory times must be finite and strictly increasing")

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def _loop_source(shape) -> list[str]:
    """The body of the DP5 loop's factory for a field of this shape (see
    ``model._factory``).

    ``loop(run, ts, ys, fs, hs, errs, end, atol, rtol, budget)`` is the
    whole run from t = 0 to ``end``.  ``ts`` = [0.0] and ``ys`` = x0 on
    entry, and ``run`` (the field's ``_Program.run``) writes f(x0) into the
    n zeros of ``fs``; each accepted node is appended to those flat lists,
    its step and error norm to ``hs`` and ``errs``.  Every stop leaves
    through the one ``break`` of a ``while ... else``, which returns
    ``(status, stop_reason, rhs_evals, rejected)``.  The first step is the
    heuristic of Hairer, Norsett & Wanner (Solving ODEs I, II.4), sized by
    the norms d0 of x0, d1 of f(x0) and d2 of f's change over a probe step
    that ``run`` evaluates, and zero, which stops the run, where f(x0) is
    not finite or overflows the norm.  A step size underflow with the
    state beyond ``escape`` = 1e3 (1 + max|x0|) is blow-up: an algebraic
    escape such as (t_c - t)**-0.5 cannot cross the blow-up norm in
    double precision.

    Each attempt is straight-line code on Python floats: per stage s =
    1..6 one line per component, ``v{i} = y{i} + h * (a_s0 * s0_{i} + ...
    )``, then the field's lines with f written to s{s}_0, s{s}_1, ...; and
    the error ``e{i} = h * (e0 * s0_{i} + ... )``, the tableau entries as
    float literals.  Stage 6's row is b5, so its v{i}, which the field's
    lines leave alone, are the new state and s6 is f there.  Each weighted
    sum runs left to right over the whole row, zeros included, so a
    non-finite stage (float arithmetic overflows to +-inf or nan and never
    raises) makes the error NaN.  Every norm, the first step's three and
    each attempt's, is written by ``rms``: the scaled terms, e{i} / (atol +
    rtol * max(|y{i}|, |v{i}|)) in an attempt, their squares summed left to
    right and ``sqrt(acc / n)``, or ``hypot(q0, ...) / sqrt(n)`` where that
    sum is not finite.  A sum of squares is >= 0 or nan, so ``acc <=
    1.7976931348623157e+308``, the largest float, is the test
    ``isfinite(acc)`` without a call.  The a{i} = |y{i}| are computed once from x0 before the
    loop and then taken from the b{i} of each accepted attempt, whose v{i}
    become the y{i}.  An accepted state holds no NaN, so the escape test
    ``abs(y0) > bound or ...`` and the blow-up test, the same on b{i} =
    |y{i}|, are ``max(map(abs, y)) > bound``; each clamp picks what the
    builtin ``min`` or ``max`` would.  The time is ``now``, since the
    field's term sums use ``t``.
    """
    n = shape[0]
    state = "".join(f"y{i}, " for i in range(n))  # "y0, y1, ": a tuple for any n
    slope = "".join(f"s0_{i}, " for i in range(n))

    def weighted(row, i):
        return " + ".join(f"{w!r} * s{j}_{i}" for j, w in enumerate(row))

    def beyond(bound):
        return " or ".join(f"abs(y{i}) > {bound}" for i in range(n))

    def rms(target, terms):
        qs = [f"q{i}" for i in range(n)]
        return [*(f"{q} = {term}" for q, term in zip(qs, terms)),
                "acc = " + " + ".join(f"{q} * {q}" for q in qs),
                f"if acc <= {sys.float_info.max!r}:",
                f"    {target} = sqrt(acc / {n})",
                "else:",
                f"    {target} = hypot({', '.join(qs)}) / sqrt({n})"]

    def indent(depth, lines):
        return ["    " * depth + line for line in lines]

    lines = ["from math import hypot, isfinite, sqrt",
             "def loop(run, ts, ys, fs, hs, errs, end, atol, rtol, budget):",
             f"    {state}= ys",
             f"    {slope}= run(ys, fs)",
             "    escape = 1e3 * (1.0 + max(map(abs, ys)))",
             "    now = h = 0.0",
             "    err_prev, attempts, rejected, evals = 1.0, 0, 0, 1",
             "    if " + " and ".join(f"isfinite(s0_{i})" for i in range(n)) + ":"]
    lines += indent(2, [f"w{i} = atol + rtol * abs(y{i})" for i in range(n)]
                    + rms("d0", [f"y{i} / w{i}" for i in range(n)])
                    + rms("d1", [f"s0_{i} / w{i}" for i in range(n)]) + [
        "h = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1",
        "if h != 0.0:  # zero where f(x0) overflows the norm",
        "    h0 = end if end < h else h",
        "    " + "".join(f"p{i}, " for i in range(n)) + "= run(["
        + ", ".join(f"y{i} + h0 * s0_{i}" for i in range(n)) + f"], [0.0] * {n})",
        "    evals = 2"])
    lines += indent(3, rms("d2", [f"(p{i} - s0_{i}) / w{i}" for i in range(n)]) + [
        "d2 /= h0",
        "d = d2 if d2 > d1 else d1",
        "h1 = (h0 * 1e-3 if h0 * 1e-3 > 1e-6 else 1e-6) if d <= 1e-15 else (0.01 / d) ** 0.2",
        "h = h1 if h1 < 100 * h0 else 100 * h0"])  # the loop clamps h to end
    lines += ["    " + "".join(f"a{i}, " for i in range(n)) + "= map(abs, ys)",
              "    while now < end:"]
    lines += indent(2, [
        "if attempts >= budget:",
        "    status, reason = 'stiff-abort', 'max_steps'",
        "    break",
        "rest = end - now",
        "if rest < h:",
        "    h = rest",
        "if now + h == now:  # the step size underflowed: cannot advance",
        "    reason = 'step_underflow' if attempts else 'no_first_step'",
        f"    status = 'blew-up' if attempts and ({beyond('escape')}) else 'stiff-abort'",
        "    break",
        "attempts += 1"])
    for s in range(1, 7):
        lines += indent(2, [f"v{i} = y{i} + h * ({weighted(_A[s], i)})" for i in range(n)])
        lines += indent(2, _field_lines(shape, [f"s{s}_{i}" for i in range(n)]))
    for i in range(n):
        lines += indent(2, [f"e{i} = h * ({weighted(_E, i)})", f"b{i} = abs(v{i})"])
    lines += indent(2, rms("err", [f"e{i} / (atol + rtol * (a{i} if a{i} >= b{i} else b{i}))"
                                   for i in range(n)]))
    lines += indent(2, [
        "if err <= 1.0:  # false for NaN and inf",
        "    now += h",
        f"    {state}= " + "".join(f"v{i}, " for i in range(n)),
        *(f"    a{i} = b{i}" for i in range(n)),
        # FSAL: a rejected attempt retries from f at the accepted state
        f"    {slope}= " + "".join(f"s6_{i}, " for i in range(n)),
        "    ts.append(now)",
        *(f"    ys.append(y{i})" for i in range(n)),
        *(f"    fs.append(s0_{i})" for i in range(n)),
        "    hs.append(h)",
        "    errs.append(err)",
        "    if " + " or ".join(f"b{i} > {_BLOWUP_NORM!r}" for i in range(n)) + ":",  # |y{i}|
        "        status, reason = 'blew-up', 'blowup_norm'",
        "        break",
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
    lines += ["    else:",
              "        status, reason = 'completed', 't_end'",
              "    return status, reason, evals + 6 * attempts, rejected",
              "return loop"]
    return lines


def integrate(ivp: InitialValueProblem, t_end: float,
              cfg: IntegrationConfig | None = None) -> Trajectory:
    """Integrate dx/dt = f(x) from t = 0 to ``t_end``.

    Returns every accepted step, with the number of f evaluations and of
    rejected attempts and the reason the run stopped; one DEBUG line per
    call under ``seriesdyn.dp5`` reports them.  Deterministic:
    identical inputs give bit-identical trajectories, on any BLAS build
    or CPU.

    The whole run, f(x0) and the first step included, is one call of the
    field's DP5 loop (see ``_loop_source``), generated once per field
    shape and bound once to its coefficients: Python float code that
    appends every accepted node to flat lists and calls no numpy; an
    attempt that overflows is rejected.  The lists become the
    trajectory's arrays once, at the end, each built by ``np.fromiter`` at
    its known length (about 0.6 of ``np.array``'s time on a list of
    floats).  The error norm, the blow-up
    test and the step-size control have the same bits as the numpy forms
    for n <= 7 (the norm's sum order differs from ``np.mean``'s pairwise
    one from n = 8 on).
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError("t_end must be positive and finite")
    cfg = cfg or _DEFAULT_CONFIG
    program = ivp.field._program
    n = program.n
    ts, ys, fs, hs, errs = [0.0], ivp.x0.tolist(), [0.0] * n, [], []
    status, reason, evals, rejected = program.bound(_loop_source)(
        program.run, ts, ys, fs, hs, errs, t_end, cfg.abs_tol, cfg.rel_tol, cfg.max_steps)
    if log := logger(__name__, DEBUG):
        log.debug("integrate: %s (%s) at t = %r, %d accepted, %d rejected, "
                  "%d rhs evaluations", status, reason, ts[-1], len(hs), rejected, evals)
    return Trajectory(
        ts=_floats(ts),
        states=_floats(ys).reshape(-1, n),
        derivs=_floats(fs).reshape(-1, n),
        step_sizes=_floats(hs),
        error_estimates=_floats(errs),
        status=status,
        rhs_evals=evals,
        rejected_steps=rejected,
        stop_reason=reason,
    )


def _floats(values: list) -> np.ndarray:
    """A list of Python floats as a float64 array, built at its known size."""
    return np.fromiter(values, float, len(values))


def sample(traj: Trajectory, times) -> np.ndarray:
    """States at the requested times, a scalar or a 1-D sequence, shape
    (len(times), n); ValueError for times of more dimensions.

    Node hits return the stored states exactly, -0.0 included; interior
    points use cubic Hermite interpolation on the bracketing accepted step
    with the stored endpoint derivatives, h00 s_i + (h10 h) d_i + h01
    s_{i+1} + (h11 h) d_{i+1} summed left to right, the bits of a loop
    over the points.  One ``searchsorted`` finds every step and each
    operand is gathered once by ``take``: a node hit's row of ``states``,
    and per component an interior point's two states and two slopes.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"sample times must be a scalar or 1-D, got shape {times.shape}")
    times = np.atleast_1d(times)
    ts = traj.ts
    if not np.all((times >= ts[0]) & (times <= ts[-1])):
        raise RangeError(
            f"sample times must lie in [{ts[0]}, {ts[-1]}]"
        )
    idx = np.searchsorted(ts, times, side="right") - 1
    np.clip(idx, 0, len(ts) - 2, out=idx)  # a one-node trajectory clips to -1
    at_left = times == ts.take(idx)
    out = traj.states.take(np.where(at_left, idx, idx + 1), axis=0)
    inner = np.flatnonzero(~(at_left | (times == ts.take(idx + 1))))
    i = idx.take(inner)
    h = ts.take(i + 1) - ts.take(i)
    th = (times.take(inner) - ts.take(i)) / h
    th2 = th * th
    th3 = th2 * th
    h00 = 2 * th3 - 3 * th2 + 1
    h10 = (th3 - 2 * th2 + th) * h
    h01 = -2 * th3 + 3 * th2
    h11 = (th3 - th2) * h
    # one column at a time, each operand gathered by flat index from the
    # row-major arrays: every product runs along the points, and the cost
    # and the temporaries grow with the points, not with N
    n = out.shape[1]
    at = i * n  # node i's first entry; node i + 1's is at + n
    states, derivs = traj.states.reshape(-1), traj.derivs.reshape(-1)
    for c, column in enumerate(out.T):
        left = at + c
        right = left + n
        column[inner] = (h00 * states.take(left) + h10 * derivs.take(left)
                         + h01 * states.take(right) + h11 * derivs.take(right))
    return out
