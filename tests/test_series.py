"""Series arithmetic, the direct Taylor recursion, the perturbation
recursion and its collapse onto the Taylor expansion, and radius
estimation from coefficient tails."""

import logging
import math
import re
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
    TaylorSolution,
    TruncatedSeries,
    TwoSpecies,
    eval_field,
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
from seriesdyn import series
from seriesdyn.series import _taylor_source

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


def test_series_eval_scalar_array_and_horner():
    s = TruncatedSeries([1.0, 2.0, 3.0])
    assert series_eval(s, 2.0) == 17.0
    assert series_eval(s, 0.0) == 1.0
    out = series_eval(s, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_array_equal(out, [1.0, 6.0, 17.0])
    assert isinstance(series_eval(s, 2.0), float)


def test_series_coeffs_are_read_only():
    s = TruncatedSeries([1.0, 2.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 9.0
    # coefficients are a non-empty 1-D sequence: no scalar, no matrix
    for coeffs in ([], 5.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            TruncatedSeries(coeffs)


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


@pytest.mark.parametrize("order", [-1, 1.5, 2.0, True, None])
def test_truncated_products_reject_an_order_that_is_not_a_count(order):
    # order 0 is valid (see the examples above); these used to fail deeper
    # down, with a TypeError or the series record's own error, or ran at
    # order 1
    x, p = TruncatedSeries([1.0, 1.0]), Polynomial.from_coeffs({(2,): 1.0}, 1)
    with pytest.raises(ValueError, match=r"^order must be an integer >= 0$"):
        series_mul(x, x, order)
    with pytest.raises(ValueError, match=r"^order must be an integer >= 0$"):
        poly_apply_series(p, [x], order)


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


@pytest.mark.parametrize("order", [0, -1, 2.5, 1.0, True, False, "3", None])
@pytest.mark.parametrize("solve", [taylor_solve, hpm_solve])
def test_series_order_must_be_an_integer(solve, order):
    # the rule of IntegrationConfig.max_steps: an int or numpy integer
    # >= 1, and a bool is not an integer here
    with pytest.raises(ValueError, match=r"^order must be an integer >= 1$"):
        solve(LOGISTIC, order)


def test_series_order_accepts_numpy_integers():
    for solve in (taylor_solve, hpm_solve):
        assert solve(LOGISTIC, np.int64(3)).order == solve(LOGISTIC, 3).order == 3


def bit_identity_ivps():
    """The presets and 200 seeded random fields of degree <= 4."""
    rng = np.random.default_rng(15)
    ivps = [LOGISTIC, preset_ivp(TwoSpecies.reference(), [4.0, 10.0]),
            preset_ivp(Spiral(-0.5), [2.0, 2.0]), preset_ivp(Spiral(0.5), [2.0, 2.0])]
    return ivps + [random_ivp(rng, int(rng.integers(1, 4)), max_degree=4)
                   for _ in range(200)]


def test_first_coefficient_is_the_field_at_x0_bit_for_bit():
    # eval_field and the Taylor recursion walk the same product graph
    # with the same products, a power x^e as x^ceil(e/2) * x^floor(e/2),
    # so coefficient 1 of taylor_solve is f(x0) to the last bit
    for ivp in bit_identity_ivps():
        first = [s.coeffs[1] for s in taylor_solve(ivp, 1).series]
        np.testing.assert_array_equal(first, eval_field(ivp.field, ivp.x0))


def float_recursion(ivp, order):
    """The Taylor recursion node by node on Python floats: per order j,
    each product node's coefficient is the sum s = 0.0; s += a_i * b_(j-i)
    for i = 0..j, then each variable's coefficient j + 1 is its
    component's term sum over j + 1."""
    n = ivp.dimension
    products, components = ivp.field._program
    C = [[0.0] * (order + 1) for _ in range(n + len(products))]
    for i, x in enumerate(ivp.x0.tolist()):
        C[i][0] = x
    for j in range(order):
        for k, (a, b) in enumerate(products, start=n):
            s = 0.0
            for i in range(j + 1):
                s += C[a][i] * C[b][j - i]
            C[k][j] = s
        for i, (constant, terms) in enumerate(components):
            f = constant if j == 0 else 0.0
            for c, k in terms:
                f += c * C[k][j]
            C[i][j + 1] = f / (j + 1)
    return np.array(C[:n])


def test_taylor_equals_the_float_recursion_bit_for_bit():
    # each product of the generated loop is numpy's own left-to-right dot
    # loop, and the term sums are the same float sums, so every
    # coefficient has the bits of the recursion written out on Python
    # floats, the spiral's overflow at order 340 of 360 included
    ivps = bit_identity_ivps()
    cases = [(preset_ivp(Logistic(1.0, -3.0), [0.1]), 300)]
    cases += [(ivp, 300) for ivp in ivps[:4]]
    cases += [(ivps[1], 150), (ivps[2], 360)]
    cases += [(ivp, 1 + i % 40) for i, ivp in enumerate(ivps[4:])]
    for ivp, order in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = taylor_solve(ivp, order)
        want = float_recursion(ivp, order)
        got = np.array([s.coeffs for s in sol.series])
        assert got.tobytes() == want.tobytes(), (ivp, order)
        finite = np.isfinite(want[:, 1:]).all(axis=0)
        assert sol.overflow_order == (None if finite.all() else int(np.argmin(finite)) + 1)


def field_ivp(components, x0):
    n = len(x0)
    field = PolyVectorField(tuple(Polynomial.from_coeffs(c, n) for c in components))
    return InitialValueProblem(field, x0)


@pytest.mark.parametrize("ivp", [
    field_ivp([{}, {}], [0.5, -1.5]),
    field_ivp([{(1, 0): 0.5, (0, 1): -2.0}, {(1, 0): 1.5}], [0.5, -1.5]),
    field_ivp([{(0, 0): 0.75}, {(0, 0): -1.25}], [0.5, -1.5]),
    preset_ivp(Spiral(-0.5), [2.0, 2.0]),
    preset_ivp(TwoSpecies.reference(), [4.0, 10.0]),
    field_ivp([{(1, 2): 1.0}, {(0, 1): -1.0}], [0.5, -1.5]),
    field_ivp([{(400,): 1.0, (401,): -1.0}], [0.5]),
    random_ivp(np.random.default_rng(23), 3, max_degree=4),
], ids=["zero", "linear", "constant", "spiral", "two-species", "x-y2", "x400-x401",
        "random-3"])
def test_taylor_loop_compiles_for_every_graph_shape(ivp):
    # fields with no product, consecutive variable operands (the
    # spiral's squares), scattered or repeated operands, or one product
    # per level each emit a loop that compiles, keeps at most n + 2P
    # work rows and does the float recursion's arithmetic
    program = ivp.field._program
    rows = len(program.bound(_taylor_source)(ivp.x0, 1))
    assert ivp.dimension <= rows <= ivp.dimension + 2 * len(program[0])
    for order in (1, 2, 7, 40):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([s.coeffs for s in taylor_solve(ivp, order).series])
        assert got.tobytes() == float_recursion(ivp, order).tobytes(), order


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
            c = sol.series[i].coeffs
            lhs = c[1:] * np.arange(1, len(c))
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
# graph, so the collapse check alone cannot see a fault in it.
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


# The coefficient recursion (j+1) x_(j+1) = [t^j] f(x(t)) in exact rational
# arithmetic, with no numpy and nothing from seriesdyn.series: each variable
# is a list of Fractions and every product a truncated Cauchy product.  The
# floating-point route sums each product in its own order, so it is judged
# against this oracle to a relative tolerance, with exact zeros kept exact.
SPIRAL_FIELD = [  # Spiral(-0.5): x' = -y + a x r^2, y' = x + a y r^2
    {(0, 1): -1.0, (3, 0): -0.5, (1, 2): -0.5},
    {(1, 0): 1.0, (2, 1): -0.5, (0, 3): -0.5},
]


def taylor_fraction_oracle(field, x0, order):
    def mul(a, b, m):
        return [sum(a[k] * b[i - k] for k in range(i + 1)) for i in range(m)]

    xs = [[Fraction(v)] for v in x0]
    for j in range(order):
        rhs = []
        for comp in field:
            total = Fraction(0)
            for exps, c in comp.items():
                term = [Fraction(c)] + [Fraction(0)] * j
                for var, e in enumerate(exps):
                    for _ in range(e):
                        term = mul(term, xs[var], j + 1)
                total += term[j]
            rhs.append(total)
        for x, v in zip(xs, rhs):
            x.append(v / (j + 1))
    return xs


@pytest.mark.parametrize("field, x0", [
    (HPM_ORACLE_FIELD, [0.75, -1.5]),
    (SPIRAL_FIELD, [2.0, 0.0]),  # y_0 is a structural zero
    ([{(0,): 1.0, (2,): 1.0}], [0.0]),  # tan t: every even coefficient is zero
], ids=["constant-cross-cubic", "spiral", "tan"])
def test_taylor_coefficients_match_exact_rational_recursion(field, x0):
    K, n = 20, len(x0)
    ivp = InitialValueProblem(
        PolyVectorField(tuple(Polynomial.from_coeffs(c, n) for c in field)), x0)
    if field is SPIRAL_FIELD:
        assert ivp.field == preset_ivp(Spiral(-0.5), x0).field
    sol = taylor_solve(ivp, K)
    exact = taylor_fraction_oracle(field, x0, K)
    for i in range(n):
        got = sol.series[i].coeffs
        assert len(got) == K + 1
        for j, want in enumerate(exact[i]):
            if want == 0:
                assert got[j] == 0.0, (i, j, got[j])
            else:
                rel = abs((Fraction(float(got[j])) - want) / want)
                assert rel < 1e-12, (i, j, float(rel))
    # the oracle is a genuine recursion: the last two orders are not all zero
    assert any(exact[i][j] != 0 for i in range(n) for j in (K - 1, K))


def test_hpm_overflow_leaves_no_warnings():
    # as in taylor_solve, corrections past the float range hold inf/nan
    # and no numpy warning escapes
    ivp = preset_ivp(Logistic(1.0, -3.0), [1e100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hpm_solve(ivp, 10)
    assert np.all(np.isfinite(h.corrections[1][0].coeffs))
    assert not np.all(np.isfinite(h.corrections[10][0].coeffs))


_SERIES_SUMMARY = re.compile(
    r"(taylor_solve|hpm_solve): order (\d+), (\d+) graph nodes, overflow_order (\d+|None)")


def _series_summaries(caplog):
    return [_SERIES_SUMMARY.fullmatch(r.getMessage()).groups()
            for r in caplog.records if r.name in ("seriesdyn.series", "seriesdyn.hpm")]


def test_one_series_summary_line_per_call(caplog):
    # one DEBUG line per call, never per order: the order, the nodes of
    # the field's product graph and the first overflowed order
    caplog.set_level(logging.DEBUG, logger="seriesdyn")
    spiral = preset_ivp(Spiral(-0.5), [2.0, 2.0])
    nodes = str(2 + len(spiral.field._program[0]))
    taylor_solve(spiral, 360)
    hpm_solve(spiral, 12)
    far = preset_ivp(Logistic(1.0, -3.0), [1e100])
    h = hpm_solve(far, 10)
    first = next(j for j, (c,) in enumerate(h.corrections)
                 if not np.all(np.isfinite(c.coeffs)))
    sol = taylor_solve(far, 6)
    assert _series_summaries(caplog) == [
        ("taylor_solve", "360", nodes, "340"),
        ("hpm_solve", "12", nodes, "None"),
        ("hpm_solve", "10", "2", str(first)),
        ("taylor_solve", "6", "2", str(sol.overflow_order)),
    ]
    assert sol.overflow_order is not None


def numpy_hpm_recursion(ivp, order):
    """The perturbation recursion as a numpy loop over the graph's nodes:
    per step j, each product's row j - 1 as the anti-diagonal bincount
    sums of A_q^T B_(j-1-q) (a reversed operand, so numpy's own matrix
    loop), then each component's term sum on zeros, the constant at j = 1,
    divided by 1..j.  Returns X[variable, j, t_power]."""
    n = ivp.dimension
    K = order
    products, components = ivp.field._program
    X = np.zeros((n + len(products), K + 1, K + 1))
    X[:n, 0, 0] = ivp.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, K + 1):
            r = j - 1
            diagonal = np.add.outer(np.arange(j), np.arange(j)).ravel()
            for k, (a, b) in enumerate(products, start=n):
                m = X[a, :j, :j].T @ X[b, r::-1, :j]
                X[k, r, :j] = np.bincount(diagonal, m.ravel())[:j]
            for i, (constant, terms) in enumerate(components):
                g = np.zeros(j)
                if r == 0:
                    g[0] = constant
                for c, k in terms:
                    g += c * X[k, r, :j]
                X[i, j, 1: j + 1] = g / np.arange(1, j + 1)
    return X[:n]


def assert_hpm_is_the_numpy_recursion(ivp, order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hpm_solve(ivp, order)
    want = numpy_hpm_recursion(ivp, order)
    for j, per_var in enumerate(h.corrections):
        for i, s in enumerate(per_var):
            assert s.coeffs.tobytes() == want[i, j].tobytes(), (ivp, order, j, i)
    return h


def test_hpm_equals_the_numpy_recursion_bit_for_bit():
    # the generated loop does the numpy loop's products, bincount sums,
    # term sums and divisions in the same order, so every correction has
    # its bits, inf and nan where the logistic from far out overflows
    ivps = bit_identity_ivps()
    for order in (1, 2, 5, 13, 30):
        for ivp in ivps:
            assert_hpm_is_the_numpy_recursion(ivp, order)
    for x0 in (1e30, 1e100, 1e300):
        h = assert_hpm_is_the_numpy_recursion(preset_ivp(Logistic(1.0, -3.0), [x0]), 12)
        assert not np.isfinite(h.corrections[12][0].coeffs).all()


@pytest.mark.parametrize("components, operand_products", [
    ([{(1, 0): 0.5, (0, 1): -2.0}, {(1, 0): 1.5}], False),  # linear: no products
    ([{(0, 0): 0.75}, {(0, 0): -1.25}], False),  # constants only
    ([{}, {}], False),  # the zero field
    ([{(2, 0): 1.0, (0, 2): -0.5}, {(1, 1): 2.0, (0, 0): 0.25}], False),  # terms only
    ([{(3, 0): 1.0, (1, 0): -1.0}, {(2, 1): 0.5}], True),  # x^2 feeds x^3 and x^2 y
], ids=["linear", "constant", "zero", "products-feed-terms-only", "operands"])
def test_hpm_loop_compiles_for_every_graph_shape(components, operand_products):
    # fields with no product node, no term node at all, or product nodes
    # that no other product reads each emit a loop that compiles and does
    # the numpy recursion's arithmetic
    field = PolyVectorField(tuple(Polynomial.from_coeffs(c, 2) for c in components))
    products = field._program[0]
    assert any(k >= 2 for product in products for k in product) == operand_products
    ivp = InitialValueProblem(field, [0.5, -1.5])
    for order in (1, 2, 7):
        assert_hpm_is_the_numpy_recursion(ivp, order)


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
        # both routes sum the same products in the same order
        assert dev == 0.0


@pytest.mark.parametrize("ivp", [
    preset_ivp(Spiral(-0.5), [2.0, 2.0]),
    preset_ivp(TwoSpecies.reference(), [4.0, 10.0]),
], ids=["spiral", "two-species"])
def test_collapse_at_depth(ivp):
    K = 60
    h, t = hpm_solve(ivp, K), taylor_solve(ivp, K)
    ok, dev = hpm_collapse_check(h, t, 1e-10)
    assert ok, dev
    # hold every correction to its Taylor monomial relative to |x_j|, as the
    # check does (two-species coefficients fall below 1e-30 by order 20)
    for j, per_var in enumerate(h.corrections):
        for i, s in enumerate(per_var):
            xj = t.series[i].coeffs[j]
            expect = np.zeros(K + 1)
            expect[j] = xj
            assert np.max(np.abs(s.coeffs - expect)) <= 1e-12 * abs(xj), (i, j)


def test_collapse_check_judges_small_coefficients_at_their_own_scale():
    # two-species coefficients from (10, 20) are at most 1.3e-30 from order
    # 20 on; doubling corrections 20..60 puts each off by |x_j| itself, a
    # deviation of 1, where a scale of max(1, |x_j|) would read 1.24e-30
    ivp = preset_ivp(TwoSpecies.reference(), [10.0, 20.0])
    K = 60
    h, t = hpm_solve(ivp, K), taylor_solve(ivp, K)
    assert hpm_collapse_check(h, t, 1e-10) == (True, 0.0)
    assert np.max(np.abs(t.series[0].coeffs[20:])) < 1.3e-30
    G = h.G.copy()
    G[20:] *= 2.0
    doubled = HpmExpansion(G)
    assert hpm_collapse_check(doubled, t, 1e-10) == (False, 1.0)


def test_collapse_check_detects_corruption():
    h = hpm_solve(LOGISTIC, 5)
    t = taylor_solve(LOGISTIC, 5)
    # plant a spurious t^0 contribution in the third correction
    G = h.G.copy()
    G[3, 0, 0] += 1e-6
    broken = HpmExpansion(G)
    ok, dev = hpm_collapse_check(broken, t, 1e-10)
    assert not ok
    # deviation is normalized by |x_3| with x_3 = -37/3
    assert dev == pytest.approx(1e-6 / (37.0 / 3.0), rel=1e-6)


def test_collapse_at_order_one():
    h = hpm_solve(LOGISTIC, 1)
    t = taylor_solve(LOGISTIC, 1)
    ok, dev = hpm_collapse_check(h, t, 1e-14)
    assert ok, dev


@pytest.mark.parametrize("x0", [1e30, 1e100])
def test_collapse_check_fails_an_overflowed_expansion(x0):
    # from these starts the K=10 coefficients leave the float range; the
    # check reports a failure with deviation inf, as plain Python values,
    # and no numpy warning escapes
    ivp = preset_ivp(Logistic(1.0, -3.0), [x0])
    h, t = hpm_solve(ivp, 10), taylor_solve(ivp, 10)
    assert not np.all(np.isfinite(t.series[0].coeffs))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, dev = hpm_collapse_check(h, t, 1e-10)
    assert ok is False
    assert type(dev) is float and dev == math.inf


def test_collapse_check_returns_plain_python_values():
    h, t = hpm_solve(LOGISTIC, 6), taylor_solve(LOGISTIC, 6)
    ok, dev = hpm_collapse_check(h, t, 1e-12)
    assert ok is True and type(dev) is float


def test_collapse_rejects_mismatched_shapes():
    h = hpm_solve(LOGISTIC, 4)
    t = taylor_solve(LOGISTIC, 5)
    with pytest.raises(DimensionError):
        hpm_collapse_check(h, t, 1e-10)
    with pytest.raises(DimensionError, match="dimensions"):
        hpm_collapse_check(h, taylor_solve(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 4), 1e-10)


def test_hand_built_expansion_with_a_short_correction():
    taylor = TaylorSolution((TruncatedSeries([1.0, 2.0, 3.0]),), LOGISTIC)
    exact = HpmExpansion(np.array([[[1.0, 0.0, 0.0]], [[0.0, 2.0, 0.0]], [[0.0, 0.0, 3.0]]]))
    assert exact.summed()[0].coeffs.tolist() == [1.0, 2.0, 3.0]
    assert hpm_collapse_check(exact, taylor, 0.0) == (True, 0.0)
    # correction 1 is the constant 0.5: t^0 is off by 0.5, the padded t^1
    # by 2 = x_1, and the deviation is 2 / |x_1| = 1
    G = exact.G.copy()
    G[1, 0] = [0.5, 0.0, 0.0]
    wrong = HpmExpansion(G)
    assert wrong.summed()[0].coeffs.tolist() == [1.5, 0.0, 3.0]
    assert hpm_collapse_check(wrong, taylor, 0.5) == (False, 1.0)


@pytest.mark.parametrize("shape", [(2, 1), (2, 1, 3), (0, 1, 0), (3, 2, 2, 3)])
def test_expansion_rejects_a_grid_of_another_shape(shape):
    with pytest.raises(DimensionError, match="shape"):
        HpmExpansion(np.zeros(shape))


def test_expansion_copies_a_writable_grid():
    G = np.zeros((2, 1, 2))
    h = HpmExpansion(G)
    G[1, 0, 1] = 2.0
    assert h.G[1, 0, 1] == 0.0 and not h.G.flags.writeable
    # a read-only view is copied too: a write to its writable base stays out
    base = np.zeros((2, 1, 2))
    view = base.view()
    view.flags.writeable = False
    h = HpmExpansion(view)
    base[1, 0, 1] = 5.0
    assert h.G is not view and h.G[1, 0, 1] == 0.0 and not h.G.flags.writeable


def test_hpm_solve_makes_corrections_only_when_read(monkeypatch):
    made = []
    post_init = TruncatedSeries.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(TruncatedSeries, "__post_init__", counted)
    K = 12
    h = hpm_solve(preset_ivp(TwoSpecies.reference(), [4.0, 10.0]), K)
    assert made == []
    corrections = h.corrections
    assert len(made) == 2 * (K + 1)
    # the second read returns the same tuple and builds nothing
    assert h.corrections is corrections and len(made) == 2 * (K + 1)
    assert h.G.flags.c_contiguous and not h.G.flags.writeable
    for j, per_var in enumerate(corrections):
        for i, s in enumerate(per_var):
            assert len(s.coeffs) == K + 1 and not s.coeffs.flags.writeable
            assert s.coeffs.tobytes() == h.G[j, i].tobytes()


def test_corrections_hold_the_bytes_of_the_grid():
    cases = [(ivp, 1 + i % 25) for i, ivp in enumerate(bit_identity_ivps()[:40])]
    cases.append((preset_ivp(Logistic(1.0, -3.0), [1e100]), 10))
    for ivp, K in cases:
        h = hpm_solve(ivp, K)
        assert h.G.shape == (K + 1, ivp.dimension, K + 1)
        for j, per_var in enumerate(h.corrections):
            for i, s in enumerate(per_var):
                assert s.coeffs.tobytes() == h.G[j, i].tobytes(), (ivp, K, j, i)
        assert (h.order, h.dimension) == (K, ivp.dimension)


def test_summed_and_collapse_check_keep_their_bits():
    h = hpm_solve(LOGISTIC, 5)
    assert [c.hex() for c in h.summed()[0].coeffs.tolist()] == [
        "0x1.0000000000000p+0", "-0x1.0000000000000p+1", "0x1.4000000000000p+2",
        "-0x1.8aaaaaaaaaaabp+3", "0x1.e6aaaaaaaaaabp+4", "-0x1.2c11111111112p+6"]
    assert hpm_collapse_check(h, taylor_solve(LOGISTIC, 5), 1e-10) == (True, 0.0)
    for preset, x0 in [(TwoSpecies.reference(), [4.0, 10.0]), (Spiral(-0.5), [2.0, 2.0]),
                       (Spiral(0.5), [2.0, 2.0])]:
        ivp = preset_ivp(preset, x0)
        assert hpm_collapse_check(hpm_solve(ivp, 20), taylor_solve(ivp, 20),
                                  1e-10) == (True, 0.0)
    ivp = preset_ivp(Logistic(1.0, -3.0), [1e100])
    h = hpm_solve(ivp, 10)
    assert [c.hex() for c in h.summed()[0].coeffs.tolist()[:4]] == [
        "0x1.249ad2594c37dp+332", "-0x1.f5aa543c31387p+665", "0x1.ae0c419008450p+999",
        "-inf"]
    assert np.all(np.isnan(h.summed()[0].coeffs[4:]))
    assert hpm_collapse_check(h, taylor_solve(ivp, 10), 1e-10) == (False, math.inf)


def test_collapse_random_systems():
    # every correction equals its Taylor monomial bit for bit; none of
    # these expansions overflows
    rng = np.random.default_rng(909)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cases.append((random_ivp(rng, n), int(rng.integers(2, 11))))
    cases += [(ivp, 1 + i % 25) for i, ivp in enumerate(bit_identity_ivps())]
    for ivp, K in cases:
        ok, dev = hpm_collapse_check(hpm_solve(ivp, K), taylor_solve(ivp, K),
                                     1e-10)
        assert ok and dev == 0.0, (ivp, K, dev)


def test_array_diagnostics_equal_their_scalar_loops():
    # summed(), the collapse deviation and the ratio diagnostics are whole-
    # array computations; per-element loops in the same arithmetic order
    # are the reference, bit for bit
    rng = np.random.default_rng(4242)
    for _ in range(15):
        ivp = random_ivp(rng, int(rng.integers(1, 4)))
        K = int(rng.integers(1, 13))
        h, t = hpm_solve(ivp, K), taylor_solve(ivp, K)
        worst = 0.0
        for i in range(h.dimension):
            total = np.zeros(K + 1)
            for j, per_var in enumerate(h.corrections):
                got = per_var[i].coeffs.copy()
                total += got
                xj = t.series[i].coeffs[j]
                got[j] -= xj
                worst = max(worst, float(np.max(np.abs(got)) / max(1.0, abs(xj))))
            np.testing.assert_array_equal(h.summed()[i].coeffs, total)
        assert hpm_collapse_check(h, t, 1e-10) == (worst <= 1e-10, worst)
        for s in taylor_solve(ivp, int(rng.integers(6, 40))).series:
            c = np.abs(s.coeffs)
            usable = np.flatnonzero(c > 1e-300)
            if usable.size < 4 or not np.all(np.isfinite(c)):
                continue
            ratios = [(c[hi] / c[lo]) ** (1.0 / (hi - lo))
                      for lo, hi in zip(usable[:-1], usable[1:])]
            est = radius_estimate(s, "ratio")
            if est.value != np.inf:  # not a polynomial tail
                assert est.diagnostics.tolist() == ratios[-5:]


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


def expand_series():
    """The series whose radii the benchmark's expand workload estimates."""
    sols = [taylor_solve(preset_ivp(Logistic(1.0, -3.0), [x0]), 300) for x0 in (1.0, 0.1)]
    sols.append(taylor_solve(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 300))
    return [s for sol in sols for s in sol.series]


def test_radius_fits_agree_with_polyfit():
    # the closed-form least-squares lines give np.polyfit's fits to
    # rounding, on the same points (the orders behind each diagnostic)
    for s in expand_series():
        c = np.abs(s.coeffs)
        K = len(c) - 1
        ratio = radius_estimate(s, "ratio")
        hi = np.flatnonzero(c > 1e-300)[-5:]
        _, limit = np.polyfit(1.0 / hi, ratio.diagnostics, 1)
        assert ratio.value == pytest.approx(1.0 / limit, rel=1e-12, abs=0.0)
        root = radius_estimate(s, "root")
        top = np.arange((K + 1) // 2, K + 1)
        slope, _ = np.polyfit(top[c[top] > 1e-300].astype(float), root.diagnostics, 1)
        assert root.value == pytest.approx(math.exp(-slope), rel=1e-12, abs=0.0)


def test_radius_fits_do_not_depend_on_the_python_version(monkeypatch):
    # from Python 3.12 on the builtin sum of floats compensates its
    # rounding; the fits add left to right from 0.0, the bits 3.11's sum
    # gives, so a sum that rounds differently, the exact math.fsum, moves
    # nothing
    xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    ys = [0.7, 0.1, 0.2, 0.9, 0.3, 0.3, 0.1]
    left_to_right = 0.0
    for y in ys:
        left_to_right += y
    assert math.fsum(ys) != left_to_right
    want = series._line(xs, ys)
    assert want == (-0.46428571428571414, 0.557142857142857)
    monkeypatch.setattr(series, "sum", math.fsum, raising=False)
    assert series._line(xs, ys) == want


# scripts whose stdout must not depend on the BLAS kernel, each run here
# and as a fresh process forced onto OpenBLAS's Prescott kernel, which has
# neither AVX nor FMA (OpenBLAS picks its kernels by CPU)
KERNEL_FREE = {
    "radius": "\n".join([
        "import numpy as np",
        "from seriesdyn import TruncatedSeries, radius_estimate",
        f"for row in {[s.coeffs.tobytes().hex() for s in expand_series()]!r}:",
        "    s = TruncatedSeries(np.frombuffer(bytes.fromhex(row)))",
        "    print(*(radius_estimate(s, m).value.hex() for m in ('ratio', 'root')))",
    ]),
    "taylor": "\n".join([
        "from seriesdyn import Logistic, Spiral, TwoSpecies, preset_ivp, taylor_solve",
        "for preset, x0, K in [(Spiral(-0.5), [2.0, 2.0], 300), (Spiral(-0.5), [2.0, 2.0], 360),",
        "                      (Logistic(1.0, -3.0), [0.1], 300),",
        "                      (TwoSpecies.reference(), [4.0, 10.0], 150)]:",
        "    sol = taylor_solve(preset_ivp(preset, x0), K)",
        "    print(b''.join(s.coeffs.tobytes() for s in sol.series).hex(), sol.overflow_order)",
    ]),
    "hpm": "\n".join([
        "from seriesdyn import Logistic, Spiral, TwoSpecies, hpm_solve, preset_ivp",
        "for preset, x0, K in [(Spiral(-0.5), [2.0, 2.0], 30), (Logistic(1.0, -3.0), [0.1], 30),",
        "                      (TwoSpecies.reference(), [4.0, 10.0], 24)]:",
        "    h = hpm_solve(preset_ivp(preset, x0), K)",
        "    print(b''.join(s.coeffs.tobytes() for c in h.corrections for s in c).hex())",
    ]),
}
COLD = {name: (["-c", code], {"OPENBLAS_CORETYPE": "Prescott"})
        for name, code in KERNEL_FREE.items()}


def here_and_cold(cold_run, capsys, name):
    """(stdout of ``KERNEL_FREE[name]`` run here, stdout of its process on
    the Prescott kernel)."""
    exec(KERNEL_FREE[name], {})
    return capsys.readouterr().out, cold_run(name).stdout.decode()


def test_radius_estimates_do_not_depend_on_the_blas_kernel(cold_run, capsys):
    # the fits call no BLAS or LAPACK, so the same coefficients give the
    # same bits under any kernel
    here, child = here_and_cold(cold_run, capsys, "radius")
    assert len(here.splitlines()) == 4
    assert child == here


def test_taylor_does_not_depend_on_the_blas_kernel(cold_run, capsys):
    # each product is numpy's own loop in vecdot over a reversed
    # (negative stride) operand, not a BLAS ddot, so the coefficients keep
    # their bits under any kernel, the spiral's overflow at order 340 of
    # 360 included
    here, child = here_and_cold(cold_run, capsys, "taylor")
    assert len(here.splitlines()) == 4
    assert child == here


def test_hpm_does_not_depend_on_the_blas_kernel(cold_run, capsys):
    # the recursion's product A_q^T B_(r-q) has a reversed (negative
    # stride) operand, so numpy runs its own loop, not a BLAS dgemm
    here, child = here_and_cold(cold_run, capsys, "hpm")
    assert len(here.splitlines()) == 3
    assert child == here


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


def test_radius_nan_tail_collapses_to_zero():
    # the spiral overflows at order 340; at K = 700 every top-half
    # coefficient is NaN, which is no polynomial's zero tail
    sol = taylor_solve(preset_ivp(Spiral(-0.5), [2.0, 2.0]), 700)
    for s in sol.series:
        assert np.all(np.isnan(s.coeffs[350:]))
        assert radius_estimate(s, "ratio").value == 0.0
        assert radius_estimate(s, "root").value == 0.0


def test_radius_root_needs_two_usable_top_half_coefficients():
    c = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]  # K = 8: top half 4..8
    with pytest.raises(InsufficientOrderError, match="top half"):
        radius_estimate(TruncatedSeries(c), "root")


def test_radius_ratio_with_four_and_five_nonzero_coefficients():
    # 4 usable coefficients give 3 ratios, 5 give 4 (here gap-corrected
    # across the zeros at orders 1 and 4); every ratio is 1/2
    for c, orders in (([1.0, 0.5, 0.25, 0.125], [1, 2, 3]),
                      ([1.0, 0.0, 0.25, 0.125, 0.0, 2.0**-5, 2.0**-6], [2, 3, 5, 6])):
        est = radius_estimate(TruncatedSeries(c), "ratio")
        assert est.diagnostics.tolist() == [0.5] * len(orders), c
        assert est.value == pytest.approx(2.0, rel=1e-12)


def test_radius_ratio_keeps_the_last_five_gaps():
    # c_j = 1/j! has ratio c_j/c_(j-1) = 1/j; only orders 5..9 enter the fit
    c = [1.0 / math.factorial(j) for j in range(10)]
    est = radius_estimate(TruncatedSeries(c), "ratio")
    np.testing.assert_allclose(est.diagnostics, [1 / 5, 1 / 6, 1 / 7, 1 / 8, 1 / 9],
                               rtol=1e-15)


def test_radius_of_a_gapped_series():
    # 1/(1 - (t/R)^2): every odd coefficient is zero, the radius is R
    R = 0.8
    c = np.where(np.arange(31) % 2 == 0, R ** -np.arange(31.0), 0.0)
    est = radius_estimate(TruncatedSeries(c), "ratio")
    assert est.diagnostics.shape == (5,)
    np.testing.assert_allclose(est.diagnostics, 1 / R, rtol=1e-14)
    assert est.value == pytest.approx(R, rel=1e-12)
    assert radius_estimate(TruncatedSeries(c), "root").value == pytest.approx(R, rel=1e-12)


def test_radius_of_constant_series_is_infinite():
    for c in ([3.0], [3.0, 0.0], [0.0], [3.0] + [0.0] * 9):
        assert radius_estimate(TruncatedSeries(c), "ratio").value == np.inf, c
    assert radius_estimate(TruncatedSeries([3.0] + [0.0] * 9), "root").value == np.inf
    # the root estimate checks its order before the polynomial tail
    with pytest.raises(InsufficientOrderError, match="order >= 8, got 1"):
        radius_estimate(TruncatedSeries([3.0, 0.0]), "root")
