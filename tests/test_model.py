"""Polynomial field representation, evaluation, and exact Jacobians."""

import numpy as np
import pytest

from seriesdyn.errors import DimensionError
from seriesdyn.model import (
    InitialValueProblem,
    Logistic,
    Monomial,
    Polynomial,
    PolyVectorField,
    Spiral,
    TwoSpecies,
    eval_field,
    field_jacobian,
    jacobian_at,
    preset_ivp,
)


def random_field(rng, n, max_degree=3):
    comps = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.integers(1, 5)):
            exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, n))
            if sum(exps) > max_degree:
                exps = tuple(min(e, 1) for e in exps)
            terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-2, 2))
        comps.append(Polynomial.from_coeffs(terms, n))
    return PolyVectorField(tuple(comps))


def test_monomial_evaluates_power_product():
    m = Monomial((2, 1))
    assert m([3.0, 4.0]) == 36.0
    assert m.degree == 3
    assert m.dimension == 2


def test_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        Monomial((1, -1))


def test_polynomial_merges_duplicates_and_drops_zeros():
    p = Polynomial({Monomial((1,)): 2.0, (1,): -2.0, (2,): 5.0}, 1)
    assert list(p.terms) == [Monomial((2,))]
    q = Polynomial.from_coeffs({(0,): 0.0}, 1)
    assert q.terms == {}
    assert q([7.0]) == 0.0


def test_polynomial_terms_are_canonically_ordered():
    a = Polynomial.from_coeffs({(2, 0): 1.0, (0, 1): 3.0, (1, 1): -2.0}, 2)
    b = Polynomial.from_coeffs({(1, 1): -2.0, (2, 0): 1.0, (0, 1): 3.0}, 2)
    assert list(a.terms) == list(b.terms)
    assert a == b


def test_polynomial_diff_power_rule():
    # d/dx of x^2 is 2x
    p = Polynomial.from_coeffs({(2,): 1.0}, 1)
    d = p.diff(0)
    assert d.terms == {Monomial((1,)): 2.0}
    # constants vanish
    assert Polynomial.from_coeffs({(0,): 4.0}, 1).diff(0).terms == {}


def test_polynomial_dimension_mismatch():
    with pytest.raises(DimensionError):
        Polynomial.from_coeffs({(1, 0): 1.0}, 1)
    p = Polynomial.from_coeffs({(1,): 1.0}, 1)
    with pytest.raises(DimensionError):
        p([1.0, 2.0])


def test_field_requires_square_shape():
    p1 = Polynomial.from_coeffs({(1, 0): 1.0}, 2)
    with pytest.raises(DimensionError):
        PolyVectorField((p1,))  # one component, two variables
    with pytest.raises(DimensionError):
        PolyVectorField(())


def test_ivp_validates_and_freezes_x0():
    ivp = preset_ivp(Logistic(1.0, -3.0), [0.5])
    assert ivp.x0.flags.writeable is False
    with pytest.raises(DimensionError):
        InitialValueProblem(Logistic(1.0, -3.0).build_field(), [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ivp_rejects_non_finite_x0(bad):
    # a NaN start gives a NaN first step, which integrate never accepts
    with pytest.raises(ValueError, match="finite"):
        preset_ivp(Logistic(1.0, -3.0), [bad])
    with pytest.raises(ValueError, match="finite"):
        InitialValueProblem(Spiral(-0.5).build_field(), [1.0, bad])


def test_eval_field_logistic_by_hand():
    field = Logistic(1.0, -3.0).build_field()
    assert eval_field(field, [1.0]) == pytest.approx([-2.0], abs=0)


def test_eval_field_two_species_by_hand():
    field = TwoSpecies.reference().build_field()
    out = eval_field(field, [4.0, 10.0])
    want = [4 * (0.1 - 0.0014 * 4 - 0.0012 * 10),
            10 * (0.08 - 0.0009 * 4 - 0.001 * 10)]
    assert out == pytest.approx(want, rel=1e-15)
    assert out == pytest.approx([0.3296, 0.664], rel=1e-12)


def test_eval_field_zero_at_fixed_points():
    field = TwoSpecies.reference().build_field()
    for pt in ([0.0, 0.0], [0.0, 80.0], [500.0 / 7.0, 0.0], [12.5, 68.75]):
        assert np.linalg.norm(eval_field(field, pt)) < 1e-12


def test_eval_field_dimension_error():
    field = Spiral(-0.5).build_field()
    with pytest.raises(DimensionError):
        eval_field(field, [1.0])


def test_eval_field_linear_in_the_field():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        f, g = random_field(rng, n), random_field(rng, n)
        summed = PolyVectorField(tuple(
            Polynomial({**dict(fc.terms),
                        **{m: gc.terms[m] + fc.terms.get(m, 0.0)
                           for m in gc.terms}}, n)
            for fc, gc in zip(f.components, g.components)))
        x = rng.uniform(-2, 2, n)
        np.testing.assert_allclose(eval_field(summed, x),
                                   eval_field(f, x) + eval_field(g, x),
                                   rtol=1e-12, atol=1e-12)


def test_jacobian_spiral_at_origin():
    field = Spiral(0.7).build_field()
    np.testing.assert_array_equal(jacobian_at(field, [0.0, 0.0]),
                                  [[0.0, -1.0], [1.0, 0.0]])


def test_jacobian_logistic_is_b_plus_2ax():
    field = Logistic(1.0, -3.0).build_field()
    jac = field_jacobian(field)
    assert jac[0][0]([0.5]) == pytest.approx(1.0 - 6.0 * 0.5, abs=0)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(25):
        n = int(rng.integers(1, 4))
        field = random_field(rng, n)
        x = rng.uniform(-1.5, 1.5, n)
        jac = jacobian_at(field, x)
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (eval_field(field, x + e) - eval_field(field, x - e)) / (2 * h)
        scale = np.maximum(np.abs(jac), 1.0)
        assert np.max(np.abs(jac - fd) / scale) < 1e-6


def test_preset_expansion_matches_factored_form():
    rng = np.random.default_rng(3)
    ts = TwoSpecies.reference()
    field = ts.build_field()
    for _ in range(100):
        x, y = rng.uniform(-50, 150, 2)
        direct = np.array([x * (ts.b1 + ts.a11 * x + ts.a12 * y),
                           y * (ts.b2 + ts.a21 * x + ts.a22 * y)])
        got = eval_field(field, [x, y])
        np.testing.assert_allclose(got, direct, rtol=1e-14, atol=1e-14)


def test_spiral_expansion_matches_factored_form():
    rng = np.random.default_rng(4)
    a = -0.5
    field = Spiral(a).build_field()
    for _ in range(100):
        x, y = rng.uniform(-3, 3, 2)
        direct = np.array([-y + a * x * (x * x + y * y),
                           x + a * y * (x * x + y * y)])
        np.testing.assert_allclose(eval_field(field, [x, y]), direct,
                                   rtol=1e-14, atol=1e-14)


def test_out_of_regime_preset_logs_warning(caplog):
    with caplog.at_level("WARNING", logger="seriesdyn.model"):
        preset_ivp(Logistic(1.0, 3.0), [1.0])
    assert "regime" in caplog.text
    assert not Logistic(1.0, 3.0).in_reference_regime
    assert Logistic(1.0, -3.0).in_reference_regime
    assert TwoSpecies.reference().in_reference_regime
    assert Spiral(-0.5).in_reference_regime
    assert not Spiral(0.0).in_reference_regime


def test_preset_ivp_examples_build():
    ivp = preset_ivp(Logistic(1.0, -3.0), [0.1])
    assert ivp.x0 == pytest.approx([0.1])
    assert eval_field(ivp.field, [0.1]) == pytest.approx([0.1 * (1 - 0.3)])
    ivp2 = preset_ivp(TwoSpecies.reference(), [4.0, 10.0])
    assert ivp2.dimension == 2
    ivp3 = preset_ivp(Spiral(-0.5), [2.0, 2.0])
    assert ivp3.dimension == 2
    with pytest.raises(DimensionError):
        preset_ivp(Spiral(-0.5), [2.0])


def float64_walk(poly, x):
    """Term-by-term evaluation on numpy float64 scalars, in canonical term
    order: the reference the compiled evaluation must match bit for bit."""
    total = 0
    for mono, c in poly.terms.items():
        v = 1.0
        for xi, e in zip(x, mono.exponents):
            if e:
                v *= xi ** e
        total = total + c * v
    return float(total)


def test_compiled_evaluation_is_bit_identical_to_float64_walk():
    rng = np.random.default_rng(2)
    fields = [Logistic(1.0, -3.0).build_field(),
              TwoSpecies.reference().build_field(),
              Spiral(-0.5).build_field(), Spiral(0.5).build_field()]
    # criterion 2's recipe: n <= 3, 1-4 terms, total degree <= 3
    fields += [random_field(rng, int(rng.integers(1, 4))) for _ in range(50)]
    for field in fields:
        n = field.dimension
        for _ in range(40):
            x = rng.uniform(-50.0, 50.0, n)
            want_f = [float64_walk(p, x) for p in field.components]
            want_j = [[float64_walk(p.diff(j), x) for j in range(n)]
                      for p in field.components]
            np.testing.assert_array_equal(eval_field(field, x), want_f)
            np.testing.assert_array_equal(jacobian_at(field, x), want_j)


def test_field_jacobian_entries_are_the_partial_derivatives():
    field = Spiral(-0.5).build_field()
    jac = field_jacobian(field)
    for i, comp in enumerate(field.components):
        assert jac[i] == [comp.diff(j) for j in range(2)]


def test_overflowing_field_returns_inf_instead_of_raising():
    p = Polynomial.from_coeffs({(400,): 1.0}, 1)
    q = Polynomial.from_coeffs({(401,): 1.0}, 1)
    field = PolyVectorField((p,))
    with np.errstate(over="ignore"):
        assert p([10.0]) == np.inf
        assert q([-10.0]) == -np.inf
        assert eval_field(field, [10.0])[0] == np.inf
        assert jacobian_at(field, [10.0])[0, 0] == np.inf
        np.testing.assert_array_equal(
            eval_field(PolyVectorField((q,)), [-10.0]), [-np.inf])
