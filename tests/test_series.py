"""Series arithmetic, the direct Taylor recursion, the perturbation
recursion and its collapse onto the Taylor expansion, and radius
estimation from coefficient tails."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from seriesdyn import (
    DimensionError,
    HpmExpansion,
    InitialValueProblem,
    InsufficientOrderError,
    Logistic,
    Polynomial,
    PolyVectorField,
    Spiral,
    TruncatedSeries,
    TwoSpecies,
    hpm_collapse_check,
    hpm_solve,
    logistic_exact,
    poly_apply_series,
    preset_ivp,
    radius_estimate,
    series_eval,
    series_mul,
    taylor_solve,
)

LOGISTIC = preset_ivp(Logistic(1.0, -3.0), [1.0])


def random_ivp(rng, n, max_degree=3):
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(int(rng.integers(1, 5))):
            exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, n))
            if sum(exps) > max_degree:
                exps = tuple(min(e, 1) for e in exps)
            terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-2, 2))
        comps.append(Polynomial.from_coeffs(terms, n))
    field = PolyVectorField(tuple(comps))
    return InitialValueProblem(field, rng.uniform(-1, 1, n))


# -- series arithmetic -------------------------------------------------------

def test_series_mul_examples():
    one_plus_t = TruncatedSeries([1.0, 1.0])
    sq = series_mul(one_plus_t, one_plus_t, 2)
    np.testing.assert_array_equal(sq.coeffs, [1.0, 2.0, 1.0])
    a = TruncatedSeries([1.0, 2.0, 3.0])
    b = TruncatedSeries([2.0, -1.0])
    np.testing.assert_array_equal(series_mul(a, b, 2).coeffs, [2.0, 3.0, 4.0])
    # truncation drops the t^2 term
    np.testing.assert_array_equal(series_mul(one_plus_t, one_plus_t, 1).coeffs,
                                  [1.0, 2.0])
    # an order above both input lengths pads the product with zeros
    np.testing.assert_array_equal(series_mul(a, b, 6).coeffs,
                                  [2.0, 3.0, 4.0, -3.0, 0.0, 0.0, 0.0])
    # inputs longer than the order are cut, including at order 0
    np.testing.assert_array_equal(series_mul(a, a, 1).coeffs, [1.0, 4.0])
    np.testing.assert_array_equal(series_mul(a, b, 0).coeffs, [2.0])


def test_series_derivative_and_integral():
    s = TruncatedSeries([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(s.derivative().coeffs, [2.0, 6.0])
    np.testing.assert_array_equal(s.integral().coeffs, [0.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(TruncatedSeries([5.0]).derivative().coeffs,
                                  [0.0])


def test_series_eval_scalar_array_and_horner():
    s = TruncatedSeries([1.0, 2.0, 3.0])
    assert series_eval(s, 2.0) == 17.0
    assert s(0.0) == 1.0
    out = series_eval(s, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 6.0, 17.0])
    assert isinstance(series_eval(s, 2.0), float)


def test_series_coeffs_are_read_only():
    s = TruncatedSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 9.0
    with pytest.raises(ValueError):
        TruncatedSeries([])


def test_poly_apply_series_examples():
    # x^2 composed with x(t) = 1 + t
    p = Polynomial.from_coeffs({(2,): 1.0}, 1)
    out = poly_apply_series(p, [TruncatedSeries([1.0, 1.0])], 2)
    np.testing.assert_array_equal(out.coeffs, [1.0, 2.0, 1.0])
    # x*y with x = 1 + t, y = 1 - t
    q = Polynomial.from_coeffs({(1, 1): 1.0}, 2)
    out2 = poly_apply_series(
        q, [TruncatedSeries([1.0, 1.0]), TruncatedSeries([1.0, -1.0])], 2)
    np.testing.assert_array_equal(out2.coeffs, [1.0, 0.0, -1.0])
    # logistic right side applied to the partial solution 1 - 2t
    f = Logistic(1.0, -3.0).build_field().components[0]
    out3 = poly_apply_series(f, [TruncatedSeries([1.0, -2.0])], 2)
    np.testing.assert_array_equal(out3.coeffs, [-2.0, 10.0, -12.0])
    # an order above both input lengths: (1 + t)(1 - t) = 1 - t^2, padded
    np.testing.assert_array_equal(
        poly_apply_series(q, [TruncatedSeries([1.0, 1.0]),
                              TruncatedSeries([1.0, -1.0])], 4).coeffs,
        [1.0, 0.0, -1.0, 0.0, 0.0])
    # inputs longer than the order: x^2 with x = 1 + 2t + 3t^2 at order 1
    np.testing.assert_array_equal(
        poly_apply_series(p, [TruncatedSeries([1.0, 2.0, 3.0])], 1).coeffs,
        [1.0, 4.0])
    with pytest.raises(DimensionError):
        poly_apply_series(q, [TruncatedSeries([1.0])], 2)


# -- direct Taylor recursion -------------------------------------------------

def test_taylor_logistic_first_coefficients():
    sol = taylor_solve(LOGISTIC, 4)
    np.testing.assert_allclose(
        sol.series[0].coeffs,
        [1.0, -2.0, 5.0, -37.0 / 3.0, 365.0 / 12.0],
        rtol=1e-15)
    assert sol.order == 4
    assert sol.dimension == 1
    assert sol.overflow_order is None


def test_taylor_overflow_is_reported_without_warnings():
    # the spiral's coefficients grow like 8**j and leave the float range at
    # order 340; that is the overflow_order diagnostic, not a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = taylor_solve(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 360)
    assert sol.overflow_order == 340
    head = np.array([s.coeffs[:340] for s in sol.series])
    assert np.all(np.isfinite(head))


def test_taylor_geometric_closed_form():
    # x' = a x^2 solves to x0 / (1 - a x0 t): coefficient j is x0 (a x0)^j
    a, x0 = 2.5, 1.0
    ivp = InitialValueProblem(Logistic(0.0, a).build_field(), [x0])
    sol = taylor_solve(ivp, 12)
    expect = x0 * (a * x0) ** np.arange(13)
    np.testing.assert_allclose(sol.series[0].coeffs, expect, rtol=1e-13)


def test_taylor_zero_field_is_constant():
    field = PolyVectorField((Polynomial.from_coeffs({}, 1),))
    sol = taylor_solve(InitialValueProblem(field, [3.0]), 6)
    np.testing.assert_array_equal(sol.series[0].coeffs,
                                  [3.0, 0, 0, 0, 0, 0, 0])


def test_taylor_eval_stacks_variables():
    ivp = preset_ivp(TwoSpecies.reference(), [4.0, 10.0])
    sol = taylor_solve(ivp, 6)
    at0 = sol.eval(0.0)
    np.testing.assert_array_equal(at0, [4.0, 10.0])
    grid = sol.eval(np.array([0.0, 0.1]))
    assert grid.shape == (2, 2)
    np.testing.assert_allclose(grid[0], [4.0, 10.0])


def test_taylor_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        taylor_solve(LOGISTIC, 0)


def test_taylor_satisfies_its_own_recursion():
    # d/dt of the series must reproduce f composed with the series
    # through order K-1, for random polynomial systems
    rng = np.random.default_rng(202)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        ivp = random_ivp(rng, n)
        K = int(rng.integers(4, 11))
        sol = taylor_solve(ivp, K)
        for i in range(n):
            lhs = sol.series[i].derivative().coeffs
            rhs = poly_apply_series(ivp.field.components[i], sol.series,
                                    K - 1).coeffs
            scale = np.maximum(np.abs(rhs), 1.0)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_taylor_matches_closed_form_inside_radius():
    sol = taylor_solve(LOGISTIC, 20)
    for t in np.linspace(0.0, 0.2, 41):
        exact = logistic_exact(1.0, -3.0, 1.0, float(t))
        assert abs(series_eval(sol.series[0], float(t)) - exact) < 1e-6


def test_taylor_partial_sum_diverges_outside_radius():
    # radius is ln(3/2) ~ 0.405; at t=1 the order-10 partial sum is
    # thousands of times the true value
    sol = taylor_solve(LOGISTIC, 10)
    v = series_eval(sol.series[0], 1.0)
    exact = logistic_exact(1.0, -3.0, 1.0, 1.0)
    assert abs(v - exact) / abs(exact) > 10.0
    assert v == pytest.approx(4870.905403990301, rel=1e-12)


# -- perturbation recursion and its collapse ---------------------------------

def test_hpm_zeroth_correction_is_initial_state():
    h = hpm_solve(LOGISTIC, 3)
    np.testing.assert_array_equal(h.corrections[0][0].coeffs, [1.0, 0, 0, 0])


def test_hpm_first_correction_is_f_at_x0_times_t():
    h = hpm_solve(LOGISTIC, 3)
    np.testing.assert_allclose(h.corrections[1][0].coeffs, [0.0, -2.0, 0, 0],
                               atol=1e-15)
    ivp = preset_ivp(TwoSpecies.reference(), [4.0, 10.0])
    h2 = hpm_solve(ivp, 3)
    assert h2.corrections[1][0].coeffs[1] == pytest.approx(0.3296, rel=1e-12)
    assert h2.corrections[1][1].coeffs[1] == pytest.approx(0.664, rel=1e-12)


def test_hpm_second_correction_single_monomial():
    h = hpm_solve(LOGISTIC, 4)
    c = h.corrections[2][0].coeffs
    assert c[2] == pytest.approx(5.0, rel=1e-14)
    others = np.delete(c, 2)
    assert np.max(np.abs(others)) < 1e-15


# The lam-graded recursion in exact rational arithmetic, with no numpy and
# nothing from seriesdyn.series: each variable is a dict mapping
# (lam power, t power) to a Fraction.  The two routes share one product
# kernel, so the collapse check alone cannot see a fault in it.
HPM_ORACLE_FIELD = [  # per component, {exponents: coefficient}
    {(0, 0): 0.5, (1, 1): -1.25, (3, 0): 0.375},
    {(0, 1): 0.75, (2, 1): -0.5, (0, 3): 0.125, (1, 0): 1.0},
]


def hpm_fraction_oracle(field, x0, order):
    def mul(a, b, lam_max):
        out = {}
        for (p, q), u in a.items():
            for (r, s), v in b.items():
                if p + r <= lam_max:
                    out[p + r, q + s] = out.get((p + r, q + s), 0) + u * v
        return out

    xs = [{(0, 0): Fraction(v)} for v in x0]
    for j in range(1, order + 1):
        new = []
        for comp in field:
            rhs = {}
            for exps, c in comp.items():
                term = {(0, 0): Fraction(c)}
                for var, e in enumerate(exps):
                    for _ in range(e):
                        term = mul(term, xs[var], j - 1)
                for key, v in term.items():
                    rhs[key] = rhs.get(key, 0) + v
            # correction j integrates the lam^(j-1) row from 0
            new.append({(j, q + 1): v / (q + 1)
                        for (p, q), v in rhs.items() if p == j - 1})
        for x, corr in zip(xs, new):
            x.update(corr)
    return xs


def test_hpm_corrections_match_exact_rational_recursion():
    K, x0 = 6, [0.75, -1.5]
    field = PolyVectorField(tuple(Polynomial.from_coeffs(c, 2)
                                  for c in HPM_ORACLE_FIELD))
    h = hpm_solve(InitialValueProblem(field, x0), K)
    exact = hpm_fraction_oracle(HPM_ORACLE_FIELD, x0, K)
    for i in range(2):
        assert all(q <= K for _, q in exact[i])
        for j in range(K + 1):
            got = h.corrections[j][i].coeffs
            assert len(got) == K + 1
            for q in range(K + 1):
                want = exact[i].get((j, q), Fraction(0))
                if want == 0:
                    assert got[q] == 0.0, (i, j, q, got[q])
                else:
                    rel = abs((Fraction(float(got[q])) - want) / want)
                    assert rel < 1e-14, (i, j, q, float(rel))
    # the oracle is a genuine recursion: high corrections are nonzero
    assert all(exact[i][K, K] != 0 for i in range(2))


def test_hpm_zero_field_has_no_corrections():
    field = PolyVectorField((Polynomial.from_coeffs({}, 1),))
    h = hpm_solve(InitialValueProblem(field, [3.0]), 5)
    for j in range(1, 6):
        assert np.max(np.abs(h.corrections[j][0].coeffs)) == 0.0


def test_hpm_summed_equals_taylor_partial_sum():
    h = hpm_solve(LOGISTIC, 8)
    t = taylor_solve(LOGISTIC, 8)
    np.testing.assert_allclose(h.summed()[0].coeffs, t.series[0].coeffs,
                               rtol=1e-12, atol=1e-18)


def test_collapse_on_presets():
    cases = [
        LOGISTIC,
        preset_ivp(Logistic(1.0, -3.0), [0.1]),
        preset_ivp(TwoSpecies.reference(), [4.0, 10.0]),
        preset_ivp(Spiral(-0.5), [2.0, 2.0]),
    ]
    for ivp in cases:
        h = hpm_solve(ivp, 10)
        t = taylor_solve(ivp, 10)
        ok, dev = hpm_collapse_check(h, t, 1e-12)
        assert ok, dev
        assert dev < 1e-12


def test_collapse_check_detects_corruption():
    h = hpm_solve(LOGISTIC, 5)
    t = taylor_solve(LOGISTIC, 5)
    # plant a spurious t^0 contribution in the third correction
    corr = [list(per_var) for per_var in h.corrections]
    bad = corr[3][0].coeffs.copy()
    bad[0] += 1e-6
    corr[3][0] = TruncatedSeries(bad)
    broken = HpmExpansion(tuple(tuple(pv) for pv in corr))
    ok, dev = hpm_collapse_check(broken, t, 1e-10)
    assert not ok
    # deviation is normalized by max(1, |x_3|) with x_3 = -37/3
    assert dev == pytest.approx(1e-6 / (37.0 / 3.0), rel=1e-6)


def test_collapse_at_order_one():
    h = hpm_solve(LOGISTIC, 1)
    t = taylor_solve(LOGISTIC, 1)
    ok, dev = hpm_collapse_check(h, t, 1e-14)
    assert ok, dev


def test_collapse_rejects_mismatched_shapes():
    h = hpm_solve(LOGISTIC, 4)
    t = taylor_solve(LOGISTIC, 5)
    with pytest.raises(DimensionError):
        hpm_collapse_check(h, t, 1e-10)


def test_collapse_random_systems():
    rng = np.random.default_rng(909)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        ivp = random_ivp(rng, n)
        K = int(rng.integers(2, 11))
        ok, dev = hpm_collapse_check(hpm_solve(ivp, K), taylor_solve(ivp, K),
                                     1e-10)
        assert ok, (n, K, dev)


# -- radius estimation -------------------------------------------------------

def test_radius_geometric_series_exact():
    # coefficients (2.5)^j: radius 0.4
    a, x0 = 2.5, 1.0
    ivp = InitialValueProblem(Logistic(0.0, a).build_field(), [x0])
    s = taylor_solve(ivp, 14).series[0]
    for m in ("ratio", "root"):
        est = radius_estimate(s, m)
        assert est.method == m
        assert abs(est.value - 0.4) < 1e-9


def test_radius_exactness_on_pure_geometric():
    rng = np.random.default_rng(55)
    for _ in range(20):
        r = float(rng.uniform(0.1, 10.0))
        s = TruncatedSeries((1.0 / r) ** np.arange(13))
        for m in ("ratio", "root"):
            est = radius_estimate(s, m).value
            assert abs(est - r) / r < 1e-9, (m, r, est)


def test_radius_logistic_real_pole():
    s = taylor_solve(LOGISTIC, 30).series[0]
    true_r = math.log(1.5)
    for m in ("ratio", "root"):
        est = radius_estimate(s, m).value
        assert abs(est - true_r) / true_r < 1e-12, (m, est)


def test_radius_logistic_complex_pair():
    # nearest singularities are a complex-conjugate pole pair at
    # modulus 3.253846656698206; coefficient signs oscillate
    ivp = preset_ivp(Logistic(1.0, -3.0), [0.1])
    s = taylor_solve(ivp, 30).series[0]
    true_r = abs(complex(math.log(7.0 / 3.0), math.pi))
    assert true_r == pytest.approx(3.253846656698206, rel=1e-15)
    root = radius_estimate(s, "root").value
    assert abs(root - true_r) / true_r < 0.01
    # the consecutive-ratio route assumes a single dominant real
    # singularity and fails on an oscillating pair; pin the failure so a
    # change in this behaviour is noticed
    ratio = radius_estimate(s, "ratio").value
    assert abs(ratio - true_r) / true_r > 0.9


def test_radius_spiral_branch_point():
    ivp = preset_ivp(Spiral(-0.5), [2.0, 2.0])
    sol = taylor_solve(ivp, 30)
    for s in sol.series:
        assert abs(radius_estimate(s, "ratio").value - 0.125) / 0.125 < 5e-3
        assert abs(radius_estimate(s, "root").value - 0.125) / 0.125 < 5e-2


def test_radius_polynomial_tail_is_entire():
    s = TruncatedSeries([1.0, 2.0, 1.0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert radius_estimate(s, "ratio").value == np.inf
    assert radius_estimate(s, "root").value == np.inf


def test_radius_insufficient_order():
    with pytest.raises(InsufficientOrderError):
        radius_estimate(TruncatedSeries([1.0, 2.0, 4.0]), "ratio")
    with pytest.raises(InsufficientOrderError):
        radius_estimate(TruncatedSeries(np.ones(8)), "root")  # order 7
    with pytest.raises(ValueError):
        radius_estimate(TruncatedSeries(np.ones(12)), "bogus")


def test_radius_overflowed_coefficients_collapse_to_zero():
    c = np.ones(12)
    c[10] = np.inf
    c[11] = np.inf
    s = TruncatedSeries(c)
    assert radius_estimate(s, "ratio").value == 0.0
