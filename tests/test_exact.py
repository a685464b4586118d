"""Closed-form solutions: pointwise values, ODE residuals, conservation
laws, and singularity locations."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from seriesdyn import (
    DegenerateError,
    Logistic,
    Singularity,
    SingularityError,
    Spiral,
    eval_field,
    logistic_exact,
    logistic_singularity,
    preset_ivp,
    radius_estimate,
    spiral_exact,
    spiral_singularity,
    taylor_solve,
)

H = 1e-6  # central-difference step for residual checks


def logistic_residual(b, a, x0, t):
    deriv = (logistic_exact(b, a, x0, t + H) - logistic_exact(b, a, x0, t - H)) / (2 * H)
    x = logistic_exact(b, a, x0, t)
    return abs(deriv - x * (b + a * x))


def spiral_residual(a, x0, y0, t):
    xp, yp = spiral_exact(a, x0, y0, t + H)
    xm, ym = spiral_exact(a, x0, y0, t - H)
    x, y = spiral_exact(a, x0, y0, t)
    field = Spiral(a).build_field()
    f = eval_field(field, [x, y])
    return max(abs((xp - xm) / (2 * H) - f[0]), abs((yp - ym) / (2 * H) - f[1]))


# -- logistic closed form ----------------------------------------------------

def test_logistic_known_values():
    # independently recomputed with 40-digit arithmetic from
    # x(t) = e^t / (-2 + 3 e^t)
    assert logistic_exact(1.0, -3.0, 1.0, 0.1) == pytest.approx(
        0.8401065778530578, rel=1e-14)
    assert logistic_exact(1.0, -3.0, 1.0, 0.5) == pytest.approx(
        0.5596162928648285, rel=1e-14)
    assert logistic_exact(1.0, -3.0, 1.0, 1.0) == pytest.approx(
        0.44164907712422996, rel=1e-14)


def test_logistic_initial_condition():
    for b, a, x0 in [(1.0, -3.0, 1.0), (1.0, -3.0, 0.1), (0.0, -2.0, 0.7),
                     (2.0, -0.5, 3.0)]:
        assert logistic_exact(b, a, x0, 0.0) == pytest.approx(x0, rel=1e-15)


def test_logistic_ode_residual_reference_cases():
    for x0 in (1.0, 0.1):
        for t in np.linspace(0.0, 2.0, 50):
            assert logistic_residual(1.0, -3.0, x0, float(t)) < 1e-6


def test_logistic_ode_residual_random_parameters():
    rng = np.random.default_rng(17)
    for _ in range(10):
        b = float(rng.uniform(0.0, 2.0))
        a = float(rng.uniform(-3.0, -0.1))
        x0 = float(rng.uniform(0.05, 1.5))
        for t in np.linspace(0.0, 1.5, 10):
            assert logistic_residual(b, a, x0, float(t)) < 1e-6


def test_logistic_b_zero_branch():
    # x' = a x^2 solves to x0 / (1 - a x0 t)
    assert logistic_exact(0.0, 2.5, 1.0, 0.2) == pytest.approx(2.0, rel=1e-14)
    assert logistic_exact(0.0, -2.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0,
                                                               rel=1e-14)


def test_logistic_saturates_without_overflow():
    # dividing through by e^(bt) keeps large times finite: the state
    # approaches the carrying capacity -b/a
    assert logistic_exact(1.0, -3.0, 1.0, 800.0) == pytest.approx(1.0 / 3.0,
                                                                  rel=1e-14)


def test_logistic_negative_time():
    # backward in time toward the pole at ln(2/3) = -0.405
    v = logistic_exact(1.0, -3.0, 1.0, -0.4)
    assert v > 10.0


def test_logistic_pole_raises():
    # b = 0: pole at 1/(a x0)
    with pytest.raises(SingularityError):
        logistic_exact(0.0, 2.5, 1.0, 0.4)
    # b > 0 with a x0 > 0: pole at ln(1 + b/(a x0))/b
    t_pole = math.log(3.0)
    with pytest.raises(SingularityError):
        logistic_exact(1.0, 0.5, 1.0, t_pole)
    # just past the tolerance window evaluates fine
    assert math.isfinite(logistic_exact(1.0, 0.5, 1.0, t_pole - 1e-9))


def test_logistic_pole_guard_is_logistic_singularity():
    # the guard raises exactly where logistic_singularity puts a real pole,
    # and never for a complex pair or the degenerate equilibrium
    for b, a, x0 in [(0.0, 2.5, 1.0), (1.0, 0.5, 1.0), (0.3, 2.0, -0.4),
                     (2.0, 3.0, 0.25), (1.0, -3.0, 0.1), (1.0, -3.0, 1.0 / 3.0)]:
        loc = logistic_singularity(b, a, x0).location
        if loc.imag != 0.0 or math.isinf(loc.real):
            assert math.isfinite(logistic_exact(b, a, x0, 0.5))
            continue
        for t in (loc.real, loc.real + 5e-13, loc.real - 5e-13):
            with pytest.raises(SingularityError,
                               match=rf"^t = {t} is at the real pole t_c = {loc.real}$"):
                logistic_exact(b, a, x0, t)
        assert math.isfinite(logistic_exact(b, a, x0, loc.real + 1e-11))


def test_logistic_singularity_when_b_is_below_rounding():
    # 1 + b/(a*x0) rounds to 1: the pole is the b -> 0 limit 1/(a*x0),
    # not a modulus-0 pole at the origin
    assert logistic_singularity(1e-20, 0.5, 1.0).location == complex(2.0, 0.0)
    s = logistic_singularity(1e-300, -3.0, 1.0)
    assert s.location == complex(-1.0 / 3.0, 0.0)
    assert s.modulus == 1.0 / 3.0
    with pytest.raises(SingularityError):
        logistic_exact(1e-20, 0.5, 1.0, 2.0)


def test_logistic_when_b_is_tiny_beside_a_x0():
    # b = 1e-20 is below rounding beside a*x0 = -3: the solution is the
    # b = 0 one, x0 / (1 - a*x0*t), on both sides of t = 0
    for t in (0.5, 2.0, 100.0, -0.2, -0.3):
        assert logistic_exact(1e-20, -3.0, 1.0, t) == pytest.approx(
            1.0 / (1.0 + 3.0 * t), rel=1e-15), t
    assert logistic_exact(1e-20, -3.0, 1.0, 0.5) == pytest.approx(0.4, rel=1e-15)


def test_logistic_rejects_non_finite_parameters():
    for b, a, x0 in [(math.nan, -3.0, 1.0), (1.0, math.nan, 1.0), (1.0, -3.0, math.inf),
                     (math.inf, -3.0, 1.0)]:
        with pytest.raises(ValueError, match="b, a and x0 must be finite"):
            logistic_singularity(b, a, x0)
        with pytest.raises(ValueError, match="b, a and x0 must be finite"):
            logistic_exact(b, a, x0, 0.5)


def test_logistic_rejects_negative_b():
    with pytest.raises(ValueError):
        logistic_exact(-1.0, -3.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        logistic_singularity(-1.0, -3.0, 1.0)


# -- logistic singularity ----------------------------------------------------

def test_logistic_singularity_real_pole():
    s = logistic_singularity(1.0, -3.0, 1.0)
    assert s.kind == "pole"
    assert not s.degenerate
    assert s.location == pytest.approx(complex(math.log(2.0 / 3.0), 0.0))
    assert s.modulus == pytest.approx(math.log(1.5), rel=1e-15)


def test_logistic_singularity_complex_pair():
    s = logistic_singularity(1.0, -3.0, 0.1)
    assert s.kind == "pole"
    assert s.location.real == pytest.approx(math.log(7.0 / 3.0), rel=1e-15)
    assert s.location.imag == pytest.approx(math.pi, rel=1e-15)
    assert s.modulus == pytest.approx(3.253846656698206, rel=1e-12)


def test_logistic_singularity_b_zero():
    s = logistic_singularity(0.0, -0.3, 1.0)
    assert s.location == pytest.approx(complex(-10.0 / 3.0, 0.0))
    assert s.modulus == pytest.approx(10.0 / 3.0, rel=1e-15)


def test_logistic_singularity_where_q_leaves_the_float_range():
    # a*x0 = -1e-400 underflows to -0.0, and b/(a*x0) = -1/(3e-320)
    # overflows: ln|q| is ln|b + a*x0| - ln|a| - ln|x0|, where the direct
    # route divided by zero or turned the location into inf - nan i
    for b, a, x0 in [(1.0, -1e-200, 1e-200), (1.0, -3.0, 1e-320), (1.0, 1e-200, 1e-200)]:
        s = logistic_singularity(b, a, x0)
        assert s.location.real == pytest.approx(-math.log(abs(a)) - math.log(x0), rel=1e-15)
        assert s.location.imag == (math.pi if a < 0 else 0.0)
        assert s.modulus == abs(s.location) < math.inf
        assert not s.degenerate
        # a*x0 is far below rounding beside b: the solution is x0 e^t
        assert logistic_exact(b, a, x0, 0.5) == pytest.approx(x0 * math.exp(0.5), rel=1e-3)
    # b = 0: the pole 1/(a*x0) lies beyond the largest double
    assert logistic_singularity(0.0, -1e-200, 1e-200).location == complex(-math.inf, 0.0)
    assert logistic_singularity(0.0, 1e-200, 1e-200).location == complex(math.inf, 0.0)
    assert logistic_exact(0.0, -1e-200, 1e-200, 0.5) == 1e-200


def test_logistic_exact_where_e_to_the_minus_bt_and_a_x0_underflow():
    # b e^(-bt) + a x0 expm1(-bt) is subnormal beyond bt = 708.4 beside an
    # underflowed a*x0, and 0.0 from bt = 745.2, while the solution
    # x0 e^t / (1 - (a x0 / b)(e^t - 1)) is finite, about 1e147 at t = 800;
    # dividing by a subnormal kept only 1.8e-7 relative at t = 730 and 43%
    # at t = 745
    b, a, x0 = 1.0, -1e-200, 1e-200
    for t in (730.0, 740.0, 745.0, 750.0, 800.0):
        with localcontext() as ctx:
            ctx.prec = 50
            e = Decimal(t).exp()
            want = Decimal(x0) * e / (1 - Decimal(a) * Decimal(x0) / Decimal(b) * (e - 1))
        assert logistic_exact(b, a, x0, t) == pytest.approx(float(want), rel=1e-13), t
    # where the direct form has a normal denominator it keeps its bits
    for t in (0.5, 700.0, 708.0):
        assert logistic_exact(b, a, x0, t) == (
            b * x0 / (b * math.exp(-t) + a * x0 * math.expm1(-t)))
    # the equilibrium at 0 stays put; with a = 0, x0 e^t leaves the range
    assert logistic_exact(1.0, -3.0, 0.0, 800.0) == 0.0
    assert logistic_exact(1.0, 0.0, -1.0, 800.0) == -math.inf


def test_logistic_singularity_degenerate_equilibrium():
    # x0 = -b/a is the equilibrium: constant solution, no singularity
    s = logistic_singularity(1.0, -3.0, 1.0 / 3.0)
    assert s.degenerate
    assert s.modulus == math.inf
    # the closed form indeed stays constant there
    for t in (0.0, 1.0, 10.0):
        assert logistic_exact(1.0, -3.0, 1.0 / 3.0, t) == pytest.approx(
            1.0 / 3.0, rel=1e-15)


def test_logistic_singularity_rejects_entire_cases():
    with pytest.raises(ValueError):
        logistic_singularity(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        logistic_singularity(1.0, -3.0, 0.0)


def test_singularity_validation():
    with pytest.raises(ValueError):
        Singularity(location=1 + 0j, modulus=1.0, kind="essential")
    with pytest.raises(ValueError):
        Singularity(location=0j, modulus=0.0, kind="pole")


# -- spiral closed form ------------------------------------------------------

def test_spiral_known_value():
    # a=-0.5 from (2,2): radicand at t=1 is 1+8 = 9, scale r0/3
    x, y = spiral_exact(-0.5, 2.0, 2.0, 1.0)
    assert x == pytest.approx(-0.20077911929317113, rel=1e-13)
    assert y == pytest.approx(0.921182193784024, rel=1e-13)


def test_spiral_initial_condition_exact():
    assert spiral_exact(-0.5, 2.0, 2.0, 0.0) == (2.0, 2.0)
    assert spiral_exact(0.7, -1.5, 0.25, 0.0) == (-1.5, 0.25)


def test_spiral_origin_is_fixed():
    assert spiral_exact(-0.5, 0.0, 0.0, 5.0) == (0.0, 0.0)


def test_spiral_ode_residual():
    for t in np.linspace(0.0, 3.0, 50):
        assert spiral_residual(-0.5, 2.0, 2.0, float(t)) < 1e-6
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = float(rng.uniform(-1.0, -0.1))
        x0, y0 = rng.uniform(-2.0, 2.0, 2)
        if x0 == 0.0 and y0 == 0.0:
            continue
        for t in np.linspace(0.1, 2.0, 8):
            assert spiral_residual(a, float(x0), float(y0), float(t)) < 1e-6


def test_spiral_radial_law():
    # r(t) = r0 (1 - 2 a r0^2 t)^(-1/2)
    a = -0.5
    r0sq = 8.0
    for t in np.linspace(0.0, 5.0, 21):
        x, y = spiral_exact(a, 2.0, 2.0, float(t))
        r = math.hypot(x, y)
        want = math.sqrt(r0sq) / math.sqrt(1.0 - 2.0 * a * r0sq * float(t))
        assert abs(r - want) / want < 1e-12


def test_spiral_angular_law():
    # theta(t) = theta0 + t exactly (unit-rate rigid rotation)
    a = -0.5
    th0 = math.atan2(2.0, 2.0)
    for t in np.linspace(0.0, 5.0, 21):
        x, y = spiral_exact(a, 2.0, 2.0, float(t))
        want = th0 + float(t)
        got = math.atan2(y, x)
        diff = (got - want + math.pi) % (2.0 * math.pi) - math.pi
        assert abs(diff) < 1e-10


def test_spiral_blowup_raises_at_and_past_branch_point():
    # a=+0.5 from (2,2): radicand 1 - 8t vanishes at t = 0.125
    with pytest.raises(SingularityError):
        spiral_exact(0.5, 2.0, 2.0, 0.125)
    with pytest.raises(SingularityError):
        spiral_exact(0.5, 2.0, 2.0, 0.2)
    x, y = spiral_exact(0.5, 2.0, 2.0, 0.1249)
    assert math.hypot(x, y) > 50.0


def test_spiral_singularity_location():
    s = spiral_singularity(-0.5, 2.0, 2.0)
    assert s.kind == "branch-point"
    assert s.location == pytest.approx(complex(-0.125, 0.0))
    assert s.modulus == pytest.approx(0.125, rel=1e-15)
    s2 = spiral_singularity(0.5, 2.0, 2.0)
    assert s2.location == pytest.approx(complex(0.125, 0.0))
    with pytest.raises(ValueError):
        spiral_singularity(0.0, 2.0, 2.0)
    with pytest.raises(DegenerateError):
        spiral_singularity(-0.5, 0.0, 0.0)


@pytest.mark.parametrize("a, x0, location", [
    (-0.5, 1e-200, -math.inf),  # r0^2 underflows to zero
    (0.5, 1e-200, math.inf),
    (-0.5, 1e-160, -math.inf),  # 2*a*r0^2 is subnormal, its reciprocal overflows
])
def test_spiral_singularity_of_a_tiny_start_is_signed_infinity(a, x0, location):
    s = spiral_singularity(a, x0, 0.0)
    assert s.location == complex(location, 0.0)
    assert s.modulus == abs(location) and s.kind == "branch-point" and not s.degenerate


# -- singularity modulus versus series-based estimates -----------------------

def test_singularity_bounds_match_series_estimates():
    ivp = preset_ivp(Logistic(1.0, -3.0), [0.1])
    sol = taylor_solve(ivp, 30)
    modulus = logistic_singularity(1.0, -3.0, 0.1).modulus
    est = radius_estimate(sol.series[0], "root").value
    assert abs(est - modulus) / modulus < 0.10

    ivp2 = preset_ivp(Spiral(-0.5), [2.0, 2.0])
    sol2 = taylor_solve(ivp2, 30)
    modulus2 = spiral_singularity(-0.5, 2.0, 2.0).modulus
    for s in sol2.series:
        assert abs(radius_estimate(s, "ratio").value - modulus2) / modulus2 < 0.20
