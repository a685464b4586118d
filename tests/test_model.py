"""Polynomial field representation, evaluation, and exact Jacobians."""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest

from seriesdyn import (
    IntegrationConfig,
    TruncatedSeries,
    classify,
    hpm_solve,
    integrate,
    radius_estimate,
    taylor_solve,
)
from seriesdyn.errors import DimensionError
from seriesdyn.model import (
    _TERMS_PER_LINE,
    InitialValueProblem,
    Logistic,
    Monomial,
    Polynomial,
    PolyVectorField,
    Spiral,
    TwoSpecies,
    _field_lines,
    eval_field,
    field_jacobian,
    jacobian_at,
    preset_ivp,
)
from seriesdyn.modelfile import loads_model


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


def test_monomial_rejects_non_integral_exponents():
    with pytest.raises(ValueError, match="non-integral exponent"):
        Monomial((1.5,))
    with pytest.raises(ValueError, match="non-integral exponent"):
        Polynomial.from_coeffs({(1.5,): 1.0}, 1)
    # a non-finite exponent is no integer either, not an int() failure
    for e in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="non-integral exponent"):
            Monomial((2, e))
    # whole numbers of any integral type are kept, as Python ints
    m = Monomial((np.int64(2), 2.0, True))
    assert m.exponents == (2, 2, 1) and all(type(e) is int for e in m.exponents)


@pytest.mark.parametrize("dimension", [0, -1, 1.5, 2.0, True, None])
def test_polynomial_rejects_a_dimension_that_is_not_a_count(dimension):
    # dimension 0 used to fail only when evaluated, in generated code
    with pytest.raises(ValueError, match=r"^dimension must be an integer >= 1$"):
        Polynomial({}, dimension)


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


def test_polynomial_terms_are_read_only():
    # the program compiled on first use derives from terms, so a write to
    # terms that succeeded would leave p and every field built on it stale
    given = {Monomial((1,)): 1.0}
    p = Polynomial(given, 1)
    field = PolyVectorField((p,))
    assert p([2.0]) == 2.0 and eval_field(field, [2.0]).tolist() == [2.0]
    with pytest.raises(TypeError):
        p.terms[Monomial((2,))] = 1.0
    with pytest.raises(TypeError):
        del p.terms[Monomial((1,))]
    with pytest.raises(AttributeError):
        p.terms.clear()
    # the caller's dict stays the caller's: writing it reaches no polynomial
    given[Monomial((2,))] = 1.0
    assert dict(p.terms) == {Monomial((1,)): 1.0}
    assert p([2.0]) == 2.0 and eval_field(field, [2.0]).tolist() == [2.0]
    assert p == Polynomial({(1,): 1.0}, 1) and repr(p) == (
        "Polynomial(terms=mappingproxy({Monomial(exponents=(1,)): 1.0}), dimension=1)")
    # copies and pickles are equal polynomials, evaluated or not
    for q in (Polynomial({(2,): 3.0}, 1), p):
        for copied in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
            assert copied == q and copied([2.0]) == q([2.0])


def test_evaluated_fields_problems_and_solutions_pickle_and_deep_copy():
    # a field keeps its compiled program once evaluated; the copy rebuilds
    # the program from its products, and its generated code on first use
    ivp = preset_ivp(Spiral(-0.5), [2.0, 2.0])
    sol = taylor_solve(ivp, 30)
    traj = integrate(ivp, 1.0)
    jac = jacobian_at(ivp.field, ivp.x0)
    for copied in (copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
        field = copied(ivp.field)
        assert field == ivp.field and field is not ivp.field
        assert eval_field(field, ivp.x0).tolist() == eval_field(ivp.field, ivp.x0).tolist()
        other = copied(ivp)
        assert other.field == ivp.field and other.x0.tolist() == ivp.x0.tolist()
        assert [s.coeffs.tolist() for s in taylor_solve(other, 30).series] == [
            s.coeffs.tolist() for s in sol.series]
        assert integrate(other, 1.0).states.tolist() == traj.states.tolist()
        assert jacobian_at(other.field, other.x0).tolist() == jac.tolist()
        again = copied(sol)
        assert [s.coeffs.tolist() for s in again.series] == [s.coeffs.tolist() for s in sol.series]
        assert again.overflow_order == sol.overflow_order
        assert again.ivp.field == ivp.field


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
    with pytest.raises(DimensionError, match="same dimension"):
        PolyVectorField((p1, Polynomial.from_coeffs({(1,): 1.0}, 1)))


def test_ivp_validates_and_freezes_x0():
    ivp = preset_ivp(Logistic(1.0, -3.0), [0.5])
    assert ivp.x0.flags.writeable is False
    # the stored start is a read-only copy: the caller's array stays writable
    for make in (lambda x: preset_ivp(Spiral(-0.5), x),
                 lambda x: InitialValueProblem(Spiral(-0.5).build_field(), x)):
        x = np.array([2.0, 2.0])
        ivp = make(x)
        assert ivp.x0 is not x and x.flags.writeable and not ivp.x0.flags.writeable
        x[0] = 1.0
        assert ivp.x0.tolist() == [2.0, 2.0]
    with pytest.raises(DimensionError):
        InitialValueProblem(Logistic(1.0, -3.0).build_field(), [1.0, 2.0])


def test_preset_ivp_checks_x0_before_the_regime_warning(caplog):
    with pytest.raises(DimensionError, match="field dimension"):
        preset_ivp(Logistic(1.0, 3.0), [1.0, 2.0])  # a > 0: out of regime
    assert not caplog.records
    preset_ivp(Logistic(1.0, 3.0), [1.0])
    assert "outside the reference parameter regime" in caplog.text


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
    assert field([1.0]) == pytest.approx([-2.0], abs=0)  # the field is callable


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


@pytest.mark.parametrize("field", [Logistic(1.0, -3.0).build_field(),
                                   Spiral(-0.5).build_field()], ids=["n=1", "n=2"])
def test_single_state_evaluations_reject_other_shapes(field):
    n = field.dimension
    for bad in (np.ones((1, n)), np.ones(n + 1), np.array(1.0)):
        for evaluate in (eval_field, jacobian_at, lambda f, x: f.components[0](x)):
            with pytest.raises(DimensionError):
                evaluate(field, bad)


def test_single_state_evaluations_return_fresh_writable_arrays():
    field = Spiral(-0.5).build_field()
    x = np.array([0.3, 0.4])
    for evaluate, shape in ((eval_field, (2,)), (jacobian_at, (2, 2))):
        first, second = evaluate(field, x), evaluate(field, x)
        for out in (first, second):
            assert out.shape == shape and out.dtype == np.float64 and out.flags.writeable
        assert not np.shares_memory(first, second)
        first[...] = 0.0
        assert evaluate(field, x).tobytes() == second.tobytes()


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
    # on every call, although the second and third share the first's field
    caplog.clear()
    with caplog.at_level("WARNING", logger="seriesdyn.model"):
        for x0 in ([1.0], [2.0], [3.0]):
            preset_ivp(Logistic(1.0, 3.0), x0)
    assert [r.getMessage().endswith("outside the reference parameter regime")
            for r in caplog.records] == [True] * 3
    assert not Logistic(1.0, 3.0).in_reference_regime
    assert Logistic(1.0, -3.0).in_reference_regime
    assert TwoSpecies.reference().in_reference_regime
    assert Spiral(-0.5).in_reference_regime
    assert not Spiral(0.0).in_reference_regime


def test_equal_presets_share_one_field():
    # preset_ivp keys its field by the preset's value; build_field builds anew
    def field(preset, x0):
        return preset_ivp(preset, x0).field

    ref = field(TwoSpecies.reference(), [4.0, 10.0])
    assert field(TwoSpecies.reference(), [1.0, 2.0]) is ref
    assert field(TwoSpecies(0.1, 0.08, -0.0014, -0.0012, -0.0009, -0.001), [4.0, 10.0]) is ref
    assert field(Logistic(1, -3), [0.1]) is field(Logistic(1.0, -3.0), [0.5])
    # -0.0 == 0.0, and a zero coefficient is dropped either way
    assert field(Spiral(0.0), [1.0, 1.0]) is field(Spiral(-0.0), [1.0, 1.0])
    assert field(Spiral(-0.5), [2.0, 2.0]) is not field(Spiral(0.5), [2.0, 2.0])
    assert field(Logistic(1.0, -3.0), [0.1]) is not field(Logistic(1.0, -2.0), [0.1])
    assert TwoSpecies.reference().build_field() is not ref
    assert TwoSpecies.reference().build_field() == ref
    with pytest.raises(ValueError):
        preset_ivp(Logistic("one", -3.0), [0.1])  # raised by float(), as by build_field
    with pytest.raises(ValueError):
        Logistic("one", -3.0).build_field()


def test_a_shared_preset_field_compiles_and_binds_nothing_again():
    # the first call with a new preset value builds the field's programs and
    # binds their code; a second, equal preset reuses all of it, Jacobian
    # polynomials included
    import seriesdyn.model as model

    events = []

    def spy(frame, event, arg):
        code = frame.f_code
        if event == "return" and (code.co_name, code.co_filename) == ("factory", "<string>"):
            events.append(("bound", arg.__name__))
        if event == "call" and code in (model._compile.__code__,
                                        model._factory.__wrapped__.__code__,
                                        model.Polynomial.diff.__code__):
            events.append(code.co_name)

    def work(preset):
        ivp = preset_ivp(preset, [4.0, 10.0])
        integrate(ivp, 1.0)
        cp = classify(ivp.field, [0.0, 0.0])
        taylor_solve(ivp, 8)
        hpm_solve(ivp, 4)
        return cp

    preset = TwoSpecies(0.37, 0.29, -0.011, -0.013, -0.017, -0.019)  # used nowhere else
    sys.setprofile(spy)
    try:
        first = work(preset)
        built = list(events)
        del events[:]
        again = work(dataclasses.replace(preset))
    finally:
        sys.setprofile(None)
    assert built.count("_compile") == 2 and built.count("diff") == 4
    assert ("bound", "run") in built and ("bound", "loop") in built
    assert events == []
    assert again.eigenvalues == first.eigenvalues == (0.29 + 0j, 0.37 + 0j)


def test_preset_field_cache_is_bounded():
    import seriesdyn.model as model

    maxsize = model._preset_field.cache_info().maxsize
    assert maxsize is not None
    for a in range(maxsize + 5):
        preset_ivp(Spiral(1000.0 + a), [1.0, 1.0])
    assert model._preset_field.cache_info().currsize == maxsize


def test_shared_and_fresh_preset_fields_give_the_same_bits():
    import hashlib

    from seriesdyn import fixed_points

    def digest(ivp):
        h = hashlib.sha256()
        traj = integrate(ivp, 5.0)
        for arr in (traj.ts, traj.states, taylor_solve(ivp, 30).series[0].coeffs,
                    hpm_solve(ivp, 10).G):
            h.update(arr.tobytes())
        if ivp.dimension == 2:
            for loc in fixed_points(ivp.field, grid=4):
                h.update(repr(classify(ivp.field, loc).eigenvalues).encode())
        return h.hexdigest()

    for preset, x0 in [(Logistic(1.0, -3.0), [0.1]), (TwoSpecies.reference(), [4.0, 10.0]),
                       (Spiral(-0.5), [2.0, 2.0])]:
        shared = digest(preset_ivp(preset, x0))
        assert digest(preset_ivp(preset, x0)) == shared
        assert digest(InitialValueProblem(preset.build_field(), x0)) == shared, preset


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


def halved_power(xi, e):
    """x_i^e by halving: x_i^ceil(e/2) * x_i^floor(e/2), down to x_i."""
    return xi if e == 1 else halved_power(xi, e - e // 2) * halved_power(xi, e // 2)


def float64_walk(poly, x):
    """Term-by-term evaluation on numpy float64 scalars, in canonical term
    order, with the product graph's arithmetic: each power is
    ``halved_power``, and a term's factor powers are multiplied left to
    right.  The reference the compiled evaluation must match bit for
    bit."""
    total = 0
    for mono, c in poly.terms.items():
        v = 1.0
        for xi, e in zip(x, mono.exponents):
            if e:
                v *= halved_power(xi, e)
        total = total + c * v
    return float(total)


def pow_walk(poly, x):
    """The same walk with each power as ``xi ** e``, the C library's
    ``pow``, and the sum of |coefficient * monomial| as a scale: an
    independent value the product graph must match to rounding."""
    total, scale = 0, 0.0
    for mono, c in poly.terms.items():
        v = 1.0
        for xi, e in zip(x, mono.exponents):
            if e:
                v *= xi ** e
        total = total + c * v
        scale += abs(c * v)
    return float(total), scale


def assert_near_pow_walk(got, polys, x):
    """Each value in ``got`` equals the ``pow`` walk of its polynomial at
    ``x`` within 1e-13 of the walk's scale (or exactly, where not finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        walks = [pow_walk(p, x) for p in polys]
    for value, (want, scale) in zip(np.ravel(got), walks, strict=True):
        assert value == want or abs(value - want) <= 1e-13 * scale, (value, want, scale)


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
            assert_near_pow_walk(want_f, field.components, x)
            assert_near_pow_walk(want_j, [p.diff(j) for p in field.components
                                          for j in range(n)], x)


def test_batched_evaluation_is_bit_identical_to_scalar():
    # the Newton search walks the field's f + J program on many states at
    # once; every column must equal eval_field / jacobian_at bit for bit,
    # including powers that overflow to inf
    rng = np.random.default_rng(3)
    fields = [Logistic(1.0, -3.0).build_field(),
              TwoSpecies.reference().build_field(),
              Spiral(-0.5).build_field(), Spiral(0.5).build_field()]
    fields += [random_field(rng, int(rng.integers(1, 3)), max_degree=5)
               for _ in range(30)]
    for field in fields:
        n = field.dimension
        xs = rng.uniform(-50.0, 50.0, (200, n)) * 10.0 ** rng.integers(-8, 9, (200, 1))
        xs[:3] = [[1e200] * n, [-1e120] * n, [0.0] * n]
        out = np.empty((n + n * n, len(xs)))
        with np.errstate(all="ignore"):
            got = field._program_with_jacobian.run(list(xs.T), out)
            want = np.array([np.concatenate([eval_field(field, x),
                                             jacobian_at(field, x).ravel()])
                             for x in xs]).T
        np.testing.assert_array_equal(got, want)


def test_field_builds_each_program_once():
    # f and f + J are compiled on first use; every later caller reuses them.
    # The profiler sees every call of _compile, however it was imported.
    import seriesdyn.model as model
    from seriesdyn import fixed_points, hpm_solve, integrate, taylor_solve

    built = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code is model._compile.__code__:
            built.append(len(frame.f_locals["polynomials"]))

    field = TwoSpecies.reference().build_field()
    ivp = InitialValueProblem(field, [4.0, 10.0])
    sys.setprofile(spy)
    try:
        for _ in range(2):
            taylor_solve(ivp, 8)
            hpm_solve(ivp, 4)
            integrate(ivp, 1.0)
            fixed_points(field, grid=4)
            jacobian_at(field, [4.0, 10.0])
    finally:
        sys.setprofile(None)
    assert built == [2, 2 + 4]  # f, then f and its four Jacobian entries


def test_field_generates_code_lazily_and_once():
    # Code is compiled once per program shape and bound once per program,
    # into the program's functions.  In the series layer taylor_solve and
    # hpm_solve each generate their recursion; poly_apply_series reads the
    # product graph alone.  The code of f and of f + J is bound on first
    # evaluation, once each, and reused by every later caller.  A field of
    # the same shape with other coefficients compiles nothing and only
    # binds its own coefficients.
    import seriesdyn.model as model
    from seriesdyn import (TruncatedSeries, fixed_points, hpm_solve, integrate,
                           poly_apply_series, radius_estimate, taylor_solve)

    generated, compiled, bound = [], [], []

    def spy(frame, event, arg):
        code = frame.f_code
        if event == "return" and (code.co_name, code.co_filename) == ("factory", "<string>"):
            bound.append(arg.__name__)  # the function a compiled factory binds
        if event != "call":
            return
        if code is model._Program.run.func.__code__:
            generated.append(len(frame.f_locals["self"][1]))
        if code is model._factory.__wrapped__.__code__:
            compiled.append((frame.f_locals["source"].__name__,
                             len(frame.f_locals["shape"][2])))

    def functions(program):
        return {source.__name__ for source in program.functions}

    def series_all(ivp):
        for _ in range(2):
            hpm_solve(ivp, 4)
            sol = taylor_solve(ivp, 8)
            poly_apply_series(ivp.field.components[0], sol.series, 8)
            radius_estimate(sol.series[0])

    def evaluate_all(ivp):
        integrate(ivp, 1.0)
        eval_field(ivp.field, ivp.x0)
        jacobian_at(ivp.field, ivp.x0)
        fixed_points(ivp.field, grid=4)

    model._factory.cache_clear()
    field = TwoSpecies.reference().build_field()
    ivp = InitialValueProblem(field, [4.0, 10.0])
    other = InitialValueProblem(
        TwoSpecies(0.3, 0.2, -0.01, -0.02, -0.03, -0.04).build_field(), [4.0, 10.0])
    assert other.field._program.shape == field._program.shape
    sys.setprofile(spy)
    try:
        hpm_solve(ivp, 4)
        poly_apply_series(field.components[0], [TruncatedSeries([4.0, 1.0]),
                                                TruncatedSeries([10.0, 2.0])], 8)
        perturbation = list(generated + compiled), list(bound), functions(field._program)
        del bound[:], compiled[:]
        series_all(ivp)
        series = list(generated + compiled), list(bound), functions(field._program)
        del bound[:], compiled[:]
        series_all(other)
        series_other = list(generated + compiled), list(bound), functions(other.field._program)
        del bound[:], compiled[:]
        for _ in range(2):
            evaluate_all(ivp)
        first = list(compiled), list(bound)
        del generated[:], compiled[:], bound[:]
        evaluate_all(other)
    finally:
        sys.setprofile(None)
    assert perturbation == ([("_hpm_source", 2)], ["hpm"], {"_hpm_source"})
    assert series == ([("_taylor_source", 2)], ["taylor"], {"_hpm_source", "_taylor_source"})
    assert series_other == ([], ["hpm", "taylor"], {"_hpm_source", "_taylor_source"})
    assert first == ([("_loop_source", 2), ("_run_source", 2), ("_run_source", 6)],
                     ["loop", "run", "run"])
    assert generated == [2, 2 + 4]  # f, then f and its four Jacobian entries
    assert compiled == []
    assert bound == ["loop", "run", "run"]
    for program in (field._program, other.field._program):
        assert functions(program) == {"_run_source", "_loop_source", "_taylor_source",
                                      "_hpm_source"}
        assert program.functions[model._run_source] is program.run
    for f in (field, other.field):
        assert functions(f._program_with_jacobian) == {"_run_source"}
    rng = np.random.default_rng(8)
    comps = other.field.components
    for x in rng.uniform(-50.0, 50.0, (20, 2)):
        np.testing.assert_array_equal(eval_field(other.field, x),
                                      [float64_walk(p, x) for p in comps])
        np.testing.assert_array_equal(jacobian_at(other.field, x),
                                      [[float64_walk(p.diff(j), x) for j in range(2)]
                                       for p in comps])
        assert_near_pow_walk(eval_field(other.field, x), comps, x)
        assert_near_pow_walk(jacobian_at(other.field, x),
                             [p.diff(j) for p in comps for j in range(2)], x)


def test_code_cache_is_bounded():
    # a process that builds fields of ever new shapes keeps at most
    # maxsize compiled factories, and an evicted shape compiles again
    import seriesdyn.model as model

    maxsize = model._factory.cache_info().maxsize
    assert maxsize is not None
    model._factory.cache_clear()
    def field(i, j):
        return PolyVectorField((Polynomial.from_coeffs({(i, j): 1.5}, 2),
                                Polynomial.from_coeffs({(0, 1): -1.0}, 2)))

    shapes = [(i, j) for i in range(1, 40) for j in range(40)][:maxsize + 20]
    for i, j in shapes:
        assert eval_field(field(i, j), [1.5, 0.5])[0] == 1.5 * (1.5 ** i * 0.5 ** j)
    info = model._factory.cache_info()
    assert info.currsize == maxsize
    assert info.misses == len(shapes)
    field(*shapes[0])._program.run  # the least recently used shape
    assert model._factory.cache_info().misses == len(shapes) + 1


def test_large_field_generates_flat_code():
    # 1330 terms (every monomial of degree <= 18 in three variables) plus
    # x^400: one line per node, and per polynomial one term sum of at most
    # _TERMS_PER_LINE terms a line, so compiling nests no deeper than that
    rng = np.random.default_rng(5)
    exps = [(i, j, k) for i in range(19) for j in range(19 - i) for k in range(19 - i - j)]
    comps = [Polynomial.from_coeffs({**{e: float(rng.uniform(-2, 2)) for e in exps},
                                     (400, 0, 0): 0.5}, 3) for _ in range(3)]
    field = PolyVectorField(tuple(comps))
    assert len(comps[0].terms) >= 1000
    x = rng.uniform(-1.1, 1.1, 3)
    np.testing.assert_array_equal(eval_field(field, x),
                                  [float64_walk(p, x) for p in comps])
    # x^400 by halving stays within rounding of pow(x, 400)
    assert_near_pow_walk(eval_field(field, x), comps, x)
    # x^400 overflows: the halved products give inf without raising, and
    # no RuntimeWarning leaks (the suite makes one an error)
    far = np.array([10.0, 0.5, -0.5])
    got = eval_field(field, far)
    with np.errstate(over="ignore", invalid="ignore"):
        want = [float64_walk(p, far) for p in comps]
    np.testing.assert_array_equal(got, want)
    assert np.all(np.isinf(got))
    assert_near_pow_walk(got, comps, far)
    xs = np.vstack([rng.uniform(-1.1, 1.1, (20, 3)), [far]])
    with np.errstate(over="ignore", invalid="ignore"):
        got = field._program.run(list(xs.T), np.empty((3, len(xs))))
        want = np.array([[float64_walk(p, x) for p in comps] for x in xs]).T
    np.testing.assert_array_equal(got, want)
    # 6545 terms (every monomial of degree <= 32 in three variables): one
    # expression of that many raises RecursionError in Python 3.11's
    # compile, so the sum goes on over lines of _TERMS_PER_LINE terms
    exps = [(i, j, k) for i in range(33) for j in range(33 - i) for k in range(33 - i - j)]
    comps = [Polynomial.from_coeffs({e: float(rng.uniform(-2, 2)) for e in exps}, 3),
             Polynomial.from_coeffs({(0, 1, 0): 1.0}, 3),
             Polynomial.from_coeffs({(0, 0, 1): -1.0, (0, 0, 0): 0.5}, 3)]
    field = PolyVectorField(tuple(comps))
    assert len(comps[0].terms) == 6545
    lines = _field_lines(field._program.shape, ["a", "b", "c"])
    sums = [line for line in lines if not line.startswith("v")]
    assert len(sums) == math.ceil(6545 / _TERMS_PER_LINE) + 2
    assert max(line.count(" * ") for line in sums) == _TERMS_PER_LINE
    x = rng.uniform(-1.1, 1.1, 3)
    np.testing.assert_array_equal(eval_field(field, x),
                                  [float64_walk(p, x) for p in comps])
    xs = rng.uniform(-1.1, 1.1, (4, 3))
    got = field._program.run(list(xs.T), np.empty((3, len(xs))))
    want = np.array([[float64_walk(p, x) for p in comps] for x in xs]).T
    np.testing.assert_array_equal(got, want)


def test_a_power_costs_logarithmically_many_products():
    # x^e is x^ceil(e/2) * x^floor(e/2): the graph grows with log2(e), so
    # a model file's exponent cannot demand e - 1 products
    for coeffs in [{(4,): 1.0}, {(5,): 1.0}, {(400,): 1.0}, {(5000,): 1.0},
                   {(400,): 1.0, (401,): -1.0}]:
        p = Polynomial.from_coeffs(coeffs, 1)
        assert len(p._program[0]) <= 2 * math.ceil(math.log2(p.degree)), coeffs
    # up to x^3 the products are the chain x * x, x^2 * x
    for e, products in [(1, []), (2, [(0, 0)]), (3, [(0, 0), (1, 0)])]:
        assert Polynomial.from_coeffs({(e,): 1.0}, 1)._program[0] == products


def test_a_power_beyond_the_recursion_limit_compiles():
    # powers are built on an explicit stack, not one call per halving
    e = 2 ** 1000
    assert e.bit_length() > sys.getrecursionlimit()
    p = Polynomial.from_coeffs({(e,): -1.0}, 1)
    assert len(p._program[0]) <= 2 * e.bit_length()
    assert p([0.5]) == 0.0 and p([1.0]) == -1.0


def test_derivative_coefficient_beyond_the_float_range_is_a_value_error():
    for coeffs, e in [({(10 ** 400,): 1.0}, 10 ** 400), ({(0, 10 ** 10): 1e300}, 10 ** 10)]:
        p = Polynomial.from_coeffs(coeffs, len(next(iter(coeffs))))
        var = len(next(iter(coeffs))) - 1
        with pytest.raises(ValueError, match=f"variable {var} .* exponent {e} "):
            p.diff(var)
    # 2^1000 fits: the derivative is 2^1000 x^(2^1000 - 1)
    d = Polynomial.from_coeffs({(2 ** 1000,): 1.0}, 1).diff(0)
    assert d.terms == {Monomial((2 ** 1000 - 1,)): float(2 ** 1000)}


def test_field_jacobian_entries_are_the_partial_derivatives():
    field = Spiral(-0.5).build_field()
    jac = field_jacobian(field)
    for i, comp in enumerate(field.components):
        assert jac[i] == [comp.diff(j) for j in range(2)]


def test_overflowing_field_returns_inf_instead_of_raising():
    p = Polynomial.from_coeffs({(400,): 1.0}, 1)
    q = Polynomial.from_coeffs({(401,): 1.0}, 1)
    field = PolyVectorField((p,))
    assert p([10.0]) == np.inf
    assert q([-10.0]) == -np.inf
    assert eval_field(field, [10.0])[0] == np.inf
    assert jacobian_at(field, [10.0])[0, 0] == np.inf
    np.testing.assert_array_equal(
        eval_field(PolyVectorField((q,)), [-10.0]), [-np.inf])


def test_scalar_evaluation_overflow_leaks_no_warning():
    # no errstate here: the suite turns any RuntimeWarning into an error
    spiral = Spiral(0.5).build_field()
    far = [1e200, 1e200]
    np.testing.assert_array_equal(eval_field(spiral, far), [np.inf, np.inf])
    np.testing.assert_array_equal(jacobian_at(spiral, far), np.full((2, 2), np.inf))
    assert spiral.components[1](far) == np.inf
    # x^400 - x^401 at 10 is inf - inf
    p = Polynomial.from_coeffs({(400,): 1.0, (401,): -1.0}, 1)
    assert np.isnan(p([10.0]))
    assert np.isnan(eval_field(PolyVectorField((p,)), [10.0])[0])


def test_result_objects_holding_arrays_compare_by_identity():
    # value equality would compare arrays elementwise, which raises for
    # more than one element; these objects compare and hash by identity
    def spiral():
        return preset_ivp(Spiral(-0.5), [2.0, 2.0])

    text = '{"model": "spiral", "params": {"a": -0.5}, "x0": [2.0, 2.0]}'
    makers = [
        lambda: TruncatedSeries([1.0, 2.0, 3.0]),
        lambda: taylor_solve(spiral(), 8),
        lambda: hpm_solve(spiral(), 4),
        lambda: radius_estimate(taylor_solve(spiral(), 12).series[0]),
        lambda: integrate(spiral(), 1.0),
        spiral,
        lambda: classify(TwoSpecies.reference().build_field(), [12.5, 68.75]),
        lambda: loads_model(text),
    ]
    for make in makers:
        a, b = make(), make()
        assert type(a) is type(b)
        assert a == a and not a != a
        assert a != b and not a == b, type(a).__name__
        # a copy holding the same field values is still another object
        assert a != dataclasses.replace(a), type(a).__name__
        assert hash(a) == hash(a) and len({a, b, a}) == 2
        assert a in [b, a] and b not in [a]
    # objects without arrays keep value equality
    assert Spiral(-0.5) == Spiral(-0.5) and hash(Spiral(-0.5)) == hash(Spiral(-0.5))
    assert IntegrationConfig(1e-9) == IntegrationConfig(1e-9)
    assert spiral().field == spiral().field
