"""Command implementations behind the CLI: tables, CSV curves, reports.

Every command builds its complete output as a string so that repeated
invocations with identical inputs are byte-identical.  CSV output is
comma-separated (no cell needs quoting, LF line ends) with floats
printed at 12 significant digits; fixed-point footers ride along as
'#'-prefixed comment lines so the data block stays rectangular.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DEBUG, DegenerateError, InsufficientOrderError, IntegrationFailedError,
                     logger)
from .model import (InitialValueProblem, IntegrationConfig, Logistic, Spiral, TwoSpecies,
                    preset_ivp)

# the integrator, the closed forms, the series and the fixed points are
# imported by the functions that use them, so a cold command loads only its
# own layers
if TYPE_CHECKING:
    from .modelfile import ModelFile

_FLOAT_FMT = "%.11e"  # 12 significant digits


def _var_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i + 1}" for i in range(n)]


def _fmt(value: float) -> str:
    return _FLOAT_FMT % value


def _fmt_complex(z: complex, fmt: str = "%.6g") -> str:
    re = z.real + 0.0  # normalize -0.0
    im = z.imag + 0.0
    if im == 0.0:
        return fmt % re
    sign = "+" if im >= 0 else "-"
    return f"{fmt % re}{sign}{fmt % abs(im)}i"


def _aligned(rows: list[list[str]]) -> str:
    """Space-aligned text table; first row is the header."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def _csv(header: list[str], columns) -> str:
    """The header, then one LF-ended row per index of ``columns`` (1-D or 2-D
    arrays): a float as ``_fmt`` writes it, a boolean as 0 or 1.  No cell
    needs quoting: a number (inf and nan too), a fixed header or a
    ``_var_names`` name holds no comma, quote or line break."""
    cols = [np.asarray(c).reshape(len(c), -1) for c in columns]
    row = ",".join("%d" if c.dtype == bool else _FLOAT_FMT for c in cols for _ in c.T) + "\n"
    return ",".join(header) + "\n" + "".join([row % tuple(v) for v in np.hstack(cols).tolist()])


def _logged(cmd):
    """``cmd`` logging one DEBUG line per call: its name and the lines and
    bytes (UTF-8) of the text it returns."""
    @functools.wraps(cmd)
    def logged(*args, **kwargs):
        text = cmd(*args, **kwargs)
        if log := logger(__name__, DEBUG):
            log.debug("%s: %d lines, %d bytes", cmd.__name__, text.count("\n"),
                      len(text.encode()))
        return text
    return logged


def _grid(t_end: float, samples: int) -> np.ndarray:
    """``samples`` equally spaced times from 0 to ``t_end``, checked
    before ``np.linspace`` would warn on an infinite end."""
    if samples < 2:
        raise ValueError("samples must be at least 2")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError("t_end must be positive and finite")
    return np.linspace(0.0, t_end, samples)


def _curves(ivp: InitialValueProblem, ts, orders: list[int],
            cfg: IntegrationConfig | None = None
            ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Integrate to ts[-1], sample the trajectory at ``ts`` and expand to
    each order: returns the sampled states, shape (len(ts), n), and
    {order: partial sums at ``ts``, same shape}."""
    from .dp5 import integrate, sample
    from .series import taylor_solve
    t_end = float(ts[-1])
    traj = integrate(ivp, t_end, cfg)
    if traj.status != "completed":
        end = traj.ts[-1]
        raise IntegrationFailedError(
            f"integration ended with status {traj.status!r} ({traj.stop_reason}) at "
            f"t = {end:.6g}" + (f" (before requested end {t_end:.6g})" if end < t_end else ""))
    return sample(traj, ts), {k: taylor_solve(ivp, k).eval(ts) for k in orders}


@_logged
def cmd_table1(full_precision: bool = False) -> str:
    """Log-error table for the 4th-order logistic series, t = 0.1..1.0:
    the partial sum, the closed form, the integrator, and log10
    |(exact - series)/exact|, that last printed to 3 significant figures
    unless ``full_precision`` is set.
    """
    from .exact import logistic_exact
    val_fmt = "{:.17g}" if full_precision else "{:.10g}"
    err_fmt = "{:.17g}" if full_precision else "{:.3g}"
    b, a, x0 = 1.0, -3.0, 1.0
    ts = [i / 10 for i in range(1, 11)]
    numerical, sums = _curves(preset_ivp(Logistic(b, a), [x0]), ts, [4])
    table = [["t", "series4", "exact", "numerical", "log10-rel-error"]]
    for t, num, s4 in zip(ts, numerical[:, 0].tolist(), sums[4][:, 0].tolist()):
        ex = logistic_exact(b, a, x0, t)
        table.append([f"{t:.1f}", *map(val_fmt.format, (s4, ex, num)),
                      err_fmt.format(math.log10(abs((ex - s4) / ex)))])
    return _aligned(table)


@_logged
def cmd_phase2d(orders: list[int] | None = None, t_end: float = 300.0,
                samples: int = 121, cfg: IntegrationConfig | None = None) -> str:
    """CSV curves for the two-species model: integrator vs partial sums.

    Columns are t, x_num, y_num, then x_sK, y_sK per requested order.
    The crossover column is 1 on the first row where the highest
    requested order deviates from the numerical curve by more (Euclidean
    norm) than the lowest does, 0 elsewhere.  Fixed points follow as a
    '#'-comment footer.  ``cfg`` sets the integrator's tolerances (the
    defaults when None); the series columns do not depend on it.
    """
    from .phase import classify, fixed_points
    orders = sorted(set(orders)) if orders else [4, 10]
    if any(k < 1 for k in orders):
        raise ValueError("orders must be positive integers")
    ivp = preset_ivp(TwoSpecies.reference(), [4.0, 10.0])
    ts = _grid(t_end, samples)
    num, sums = _curves(ivp, ts, orders, cfg)
    lo, hi = orders[0], orders[-1]
    # overflowed partial sums (K >= 190 here) give inf deviations, quietly
    with np.errstate(over="ignore"):
        dev_lo = np.linalg.norm(sums[lo] - num, axis=1)
        dev_hi = np.linalg.norm(sums[hi] - num, axis=1)
    # lo == hi gives equal deviations, so no row is worse
    worse = dev_hi > dev_lo
    crossover = worse & (np.cumsum(worse) == 1)  # the first worse row

    header = ["t", "x_num", "y_num", *(f"{v}_s{k}" for k in orders for v in "xy"), "crossover"]
    out = _csv(header, [ts, num, *(sums[k] for k in orders), crossover])
    out += "# fixed points: location, classification, eigenvalues\n"
    field = ivp.field
    for loc in fixed_points(field):
        cp = classify(field, loc)
        eigs = ", ".join(_fmt_complex(z, _FLOAT_FMT) for z in cp.eigenvalues)
        out += (f"# ({_fmt(loc[0])}, {_fmt(loc[1])}) {cp.classification} "
                f"[{eigs}]\n")
    return out


@_logged
def cmd_spiral(order: int = 5, t_end: float = 20.0, samples: int = 201,
               cfg: IntegrationConfig | None = None) -> str:
    """CSV curves for the spiral model: integrator, closed form, series.
    ``cfg`` sets the integrator's tolerances (the defaults when None)."""
    from .exact import spiral_exact
    if order < 1:
        raise ValueError("order must be at least 1")
    a, x0, y0 = -0.5, 2.0, 2.0
    ivp = preset_ivp(Spiral(a), [x0, y0])
    ts = _grid(t_end, samples)
    num, sums = _curves(ivp, ts, [order], cfg)
    exact = [spiral_exact(a, x0, y0, t) for t in ts.tolist()]
    return _csv(["t", "x_num", "y_num", "x_exact", "y_exact", "x_series", "y_series"],
                [ts, num, exact, sums[order]])


def _analytic_singularity(mf: ModelFile):
    """Singularity of the model's closed form, when one exists."""
    from .exact import logistic_singularity, spiral_singularity
    x0 = mf.ivp.x0
    try:
        if isinstance(mf.preset, Logistic):
            return logistic_singularity(mf.preset.b, mf.preset.a, float(x0[0]))
        if isinstance(mf.preset, Spiral):
            return spiral_singularity(mf.preset.a, float(x0[0]), float(x0[1]))
    except (ValueError, DegenerateError):
        return None
    return None


@_logged
def cmd_radius(mf: ModelFile, order: int | None = None) -> str:
    """Radius-of-convergence report: coefficient estimates per variable,
    plus the analytic singularity modulus when a closed form exists."""
    from .series import radius_estimate, taylor_solve
    k = mf.order if order is None else order
    if k < 8:
        raise InsufficientOrderError(
            f"radius estimation needs order >= 8, got {k}")
    sol = taylor_solve(mf.ivp, k)
    names = _var_names(mf.ivp.field.dimension)
    lines = [f"radius-of-convergence report: model {mf.kind}, order K={k}"]
    estimates = {}
    for name, series in zip(names, sol.series):
        ratio = radius_estimate(series, method="ratio")
        root = radius_estimate(series, method="root")
        estimates[name] = (ratio.value, root.value)
        lines.append(f"variable {name}: ratio {_fmt(ratio.value)}  "
                     f"root {_fmt(root.value)}")
    sing = _analytic_singularity(mf)
    # coefficient 1 is f(x0) bit for bit, and f(x0) = 0 exactly makes the
    # solution constant, whatever the model
    if not any(series.coeffs[1] for series in sol.series) or (sing and sing.degenerate):
        lines.append("analytic singularity modulus: inf"
                     " (degenerate: initial state is an equilibrium)")
    elif sing is None:
        lines.append("analytic singularity modulus: unavailable"
                     " (no closed form for this model)")
    else:
        loc = _fmt_complex(sing.location, _FLOAT_FMT)
        lines.append(f"analytic singularity modulus: {_fmt(sing.modulus)}"
                     f" ({sing.kind} at t = {loc})")
        for name in names:
            ratio_v, root_v = estimates[name]
            rel = tuple("n/a" if not math.isfinite(v) or math.isinf(sing.modulus)
                        else "{:.3g}".format(abs(v - sing.modulus) / sing.modulus)
                        for v in (ratio_v, root_v))
            lines.append(f"relative disagreement {name}: ratio {rel[0]}"
                         f"  root {rel[1]}")
    return "\n".join(lines) + "\n"


@_logged
def cmd_solve(mf: ModelFile) -> str:
    """CSV of the numerical solution and the configured-order partial sums
    on the model file's time grid."""
    ts = np.linspace(0.0, mf.grid_end, mf.grid_count)
    num, sums = _curves(mf.ivp, ts, [mf.order], mf.cfg)
    names = _var_names(mf.ivp.field.dimension)
    return _csv(["t"] + [f"{n}_num" for n in names] + [f"{n}_s{mf.order}" for n in names],
                [ts, num, sums[mf.order]])


@_logged
def cmd_fixed_points(mf: ModelFile) -> str:
    """Text table of the model's fixed points with eigenvalues and class."""
    from .phase import classify, fixed_points
    field = mf.ivp.field
    points = [classify(field, loc) for loc in fixed_points(field)]
    names = _var_names(field.dimension)
    header = names + [f"eigenvalue-{i + 1}" for i in range(field.dimension)] \
        + ["class"]
    table = [header]
    for cp in points:
        table.append(["{:.6g}".format(v + 0.0) for v in cp.location]
                     + [_fmt_complex(z) for z in cp.eigenvalues]
                     + [cp.classification])
    out = f"fixed points found: {len(points)}\n" + _aligned(table)
    if any(cp.classification == "center-linear" for cp in points):
        out += ("note: center-linear means the linearization has a purely "
                "imaginary eigenvalue pair; nonlinear terms decide the "
                "actual stability there.\n")
    return out
