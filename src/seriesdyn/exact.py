"""Closed-form solutions and singularity locations for the solvable presets.

Two of the preset families admit elementary solutions: the logistic
family ``x' = x(b + a x)`` and the rotating cubic spiral.  These closed
forms are the analytic oracles the series solutions and the numerical
integrator are judged against, and their singularity locations explain
where and why the truncated series stop converging.
"""

from __future__ import annotations

import math
import sys

from .errors import DegenerateError, SingularityError, record

_SINGULARITY_TOL = 1e-12


@record
class Singularity:
    """A movable singularity of a closed-form solution.

    ``location`` is the complex time nearest the origin at which the
    solution fails to be analytic; ``modulus`` is its absolute value and
    bounds the radius of convergence of the time series about t = 0.
    ``kind`` is 'pole' or 'branch-point'.  ``degenerate`` marks the case
    where the initial state is itself an equilibrium: the solution is
    constant, there is no finite singularity, and the modulus is +inf.
    """

    location: complex
    modulus: float
    kind: str
    degenerate: bool = False

    def __post_init__(self):
        if self.kind not in ("pole", "branch-point"):
            raise ValueError(f"unknown singularity kind {self.kind!r}")
        if not self.degenerate and not self.modulus > 0:
            raise ValueError("singularity modulus must be positive")


def logistic_exact(b: float, a: float, x0: float, t: float) -> float:
    """Exact solution of x' = x(b + a x), x(0) = x0, at time t.

    For b > 0 this is b*x0*e^(bt) / (b - a*x0*(e^(bt) - 1)); the
    denominator follows from partial-fraction integration of
    dx / (x (b + a x)) = dt and satisfies the ODE identically, with the
    pole condition e^(bt) = 1 + b/(a*x0).  It is evaluated with expm1, so
    no digit is lost when b is tiny beside a*x0.  Where that denominator
    is zero or subnormal (e^(-bt) and a*x0 both tiny), numerator and
    denominator are divided by x0 as well, so the far tail keeps its
    digits and stays finite where the solution is.  For b = 0 the
    solution degenerates to x0 / (1 - a*x0*t).

    Raises SingularityError when t is within 1e-12 of a real-axis pole,
    as located by ``logistic_singularity``.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    if a != 0.0 and x0 != 0.0:
        pole = logistic_singularity(b, a, x0).location
        if pole.imag == 0.0 and abs(t - pole.real) <= _SINGULARITY_TOL:
            raise SingularityError(f"t = {t} is at the real pole t_c = {pole.real}")
    if b == 0.0:
        return x0 / (1.0 - a * x0 * t)
    bt = b * t
    if bt >= 0.0:
        # divide through by e^(bt) so large bt cannot overflow
        den = b * math.exp(-bt) + a * x0 * math.expm1(-bt)
        if not abs(den) < sys.float_info.min:  # normal, or not finite
            return b * x0 / den
        if x0 == 0.0:
            return x0  # the equilibrium at 0
        # e^(-bt) underflowed to zero or a subnormal, and a*x0 with it:
        # divide through by x0 too, with e^(-bt) / |x0| taken in logs
        den = math.copysign(b * math.exp(-bt - math.log(abs(x0))), x0) + a * math.expm1(-bt)
        return b / den if den != 0.0 else math.copysign(math.inf, x0)
    return b * x0 * math.exp(bt) / (b - a * x0 * math.expm1(bt))


def logistic_singularity(b: float, a: float, x0: float) -> Singularity:
    """Nearest-to-origin singularity of the logistic solution.

    For b > 0 the poles solve e^(bt) = 1 + b/(a*x0) =: q, so the
    principal branch t = (ln|q| + i*arg(q)) / b is nearest the origin;
    arg(q) is 0 for q > 0 and pi for q < 0.  For b = 0, and for b so small
    beside a*x0 that q rounds to 1, the pole is real at the b -> 0 limit
    t = 1/(a*x0).  Where a*x0 underflows or b/(a*x0) overflows, ln|q| is
    ln|b + a*x0| - ln|a| - ln|x0| and the b = 0 pole is +-inf.  When q = 0
    the initial state is the equilibrium -b/a, the solution is constant,
    and the result is flagged degenerate with infinite modulus.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    if not all(map(math.isfinite, (b, a, x0))):
        raise ValueError("b, a and x0 must be finite")
    if a == 0.0 or x0 == 0.0:
        raise ValueError("a and x0 must be nonzero for a pole to exist")
    ax = a * x0
    if ax == 0.0 or not math.isfinite(b / ax):  # q has the sign of a*x0
        if b == 0.0:
            loc = complex(math.copysign(math.inf, ax), 0.0)
        else:
            log_q = math.log(abs(b + ax)) - math.log(abs(a)) - math.log(abs(x0))
            loc = complex(log_q, math.pi if math.copysign(1.0, ax) < 0 else 0.0) / b
        return Singularity(location=loc, modulus=abs(loc), kind="pole")
    q = 1.0 + b / ax
    if q == 0.0:
        return Singularity(location=complex(-math.inf, 0.0),
                           modulus=math.inf, kind="pole", degenerate=True)
    loc = (complex(1.0 / ax, 0.0) if q == 1.0
           else complex(math.log(abs(q)), 0.0 if q > 0 else math.pi) / b)
    return Singularity(location=loc, modulus=abs(loc), kind="pole")


def spiral_exact(a: float, x0: float, y0: float, t: float) -> tuple[float, float]:
    """Exact solution of the rotating cubic spiral at time t.

    x = r0*cos(theta0 + t)/sqrt(1 - 2*a*r0^2*t) and the matching sine for
    y: rigid unit-rate rotation with an algebraically growing or decaying
    radius.  Raises SingularityError when the radicand 1 - 2*a*r0^2*t is
    not positive.
    """
    if x0 == 0.0 and y0 == 0.0:
        return (0.0, 0.0)  # fixed point
    if t == 0.0:
        return (float(x0), float(y0))  # exact by construction
    r0, theta0 = math.hypot(x0, y0), math.atan2(y0, x0)
    radicand = 1.0 - 2.0 * a * r0 ** 2 * t
    if radicand <= 0.0:
        raise SingularityError(
            f"radicand 1 - 2*a*r0^2*t = {radicand} is not positive at t = {t}")
    scale = r0 / math.sqrt(radicand)
    return (scale * math.cos(theta0 + t), scale * math.sin(theta0 + t))


def spiral_singularity(a: float, x0: float, y0: float) -> Singularity:
    """Movable branch point of the spiral solution, t_c = 1/(2*a*r0^2).

    The square root in the closed form branches there; for a > 0 the
    real-axis solution blows up in finite time at t_c, while for a < 0
    the singularity sits on the negative real axis and still limits the
    series radius even though the forward solution is global.  Where
    2*a*r0^2 is zero or subnormal (r0^2 underflows), t_c is +-inf with
    the sign of a.
    """
    if a == 0.0:
        raise ValueError("a must be nonzero for a singularity to exist")
    if x0 == 0.0 and y0 == 0.0:
        raise DegenerateError("the origin is the fixed point; no singularity")
    den = 2.0 * a * (x0 * x0 + y0 * y0)  # -0.0 for a < 0 when r0^2 underflows
    loc = complex(1.0 / den if den else math.copysign(math.inf, den), 0.0)
    return Singularity(location=loc, modulus=abs(loc), kind="branch-point")
