"""Fixed-point location and linear classification, tied back to the
actual flow by short integrations, and the batched Newton search held to
a scalar reference."""

import logging
import math
import re
import warnings

import numpy as np
import pytest

from seriesdyn import (
    CLASSIFICATIONS,
    CriticalPoint,
    InitialValueProblem,
    Logistic,
    NotAFixedPointError,
    Polynomial,
    PolyVectorField,
    Spiral,
    TwoSpecies,
    classify,
    eval_field,
    field_jacobian,
    fixed_points,
    integrate,
)
from seriesdyn.phase import (
    _CONVERGED,
    MAX_GRID,
    _default_box,
    _injected_seeds,
    _newton_all,
    _product_form,
)

FIELD = TwoSpecies.reference().build_field()
ROOTS = fixed_points(FIELD)


def test_two_species_has_exactly_four_fixed_points():
    assert len(ROOTS) == 4
    expected = [
        [0.0, 0.0],
        [0.0, 80.0],
        [12.5, 68.75],
        [500.0 / 7.0, 0.0],
    ]
    for got, want in zip(ROOTS, expected):
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_roots_are_lexicographically_sorted():
    keys = [tuple(r) for r in ROOTS]
    assert keys == sorted(keys)


def test_interior_equilibrium_is_tight():
    interior = ROOTS[2]
    assert np.linalg.norm(interior - np.array([12.5, 68.75])) < 1e-6


def test_all_roots_have_tiny_residuals():
    for r in ROOTS:
        assert np.linalg.norm(eval_field(FIELD, r)) < 1e-10


def test_two_species_classifications():
    want = ["unstable-node", "saddle", "stable-node", "saddle"]
    got = [classify(FIELD, r).classification for r in ROOTS]
    assert got == want


def test_two_species_eigenvalues():
    cp0 = classify(FIELD, ROOTS[0])
    np.testing.assert_allclose([z.real for z in cp0.eigenvalues], [0.08, 0.1],
                               rtol=1e-12)
    cp_int = classify(FIELD, ROOTS[2])
    np.testing.assert_allclose(
        [z.real for z in cp_int.eigenvalues],
        [-0.08293411484823544, -0.003315885151764536], rtol=1e-9)
    assert all(z.imag == 0.0 for z in cp_int.eigenvalues)
    cp_axis = classify(FIELD, ROOTS[1])
    np.testing.assert_allclose([z.real for z in cp_axis.eigenvalues],
                               [-0.08, 0.004], rtol=1e-9)


def test_logistic_fixed_points_and_stability():
    # 0 and -b/a are injected as seeds, so the catalog is exact, where
    # the lattice alone gave the origin as -1.16303e-18
    field = Logistic(1.0, -3.0).build_field()
    roots = fixed_points(field)
    assert [r.tolist() for r in roots] == [[0.0], [1.0 / 3.0]]
    assert classify(field, roots[0]).classification == "unstable-node"
    assert classify(field, roots[1]).classification == "stable-node"


def test_spiral_origin_is_center_linear():
    # linearization at the origin is pure rotation: stability is decided
    # by the cubic terms, so the honest linear verdict is center-linear
    field = Spiral(-0.5).build_field()
    roots = fixed_points(field)
    assert len(roots) == 1
    np.testing.assert_allclose(roots[0], [0.0, 0.0], atol=1e-12)
    cp = classify(field, roots[0])
    assert cp.classification == "center-linear"
    assert sorted(z.imag for z in cp.eigenvalues) == [-1.0, 1.0]
    assert all(z.real == 0.0 for z in cp.eigenvalues)


def test_tiny_search_box_still_finds_structural_roots():
    # closed-form candidates are injected as seeds, so shrinking the
    # seeding box does not lose the axis and interior equilibria
    roots = fixed_points(FIELD, search_box=[(-1.0, 1.0), (-1.0, 1.0)])
    assert len(roots) == 4


def test_rescaled_field_keeps_roots_and_classes():
    for c in (0.5, 2.0, 10.0):
        scaled = PolyVectorField(tuple(
            Polynomial({m: c * v for m, v in comp.terms.items()}, 2)
            for comp in FIELD.components))
        roots = fixed_points(scaled)
        assert len(roots) == 4
        for a, b in zip(roots, ROOTS):
            assert np.linalg.norm(a - b) < 1e-9
        got = [classify(scaled, r).classification for r in roots]
        assert got == ["unstable-node", "saddle", "stable-node", "saddle"]


def test_classify_rejects_rounded_location():
    # (71.43, 0) is a display rounding, not a root: the field there has
    # residual around 1e-4
    with pytest.raises(NotAFixedPointError):
        classify(FIELD, [71.43, 0.0])


def test_classify_validates_shape():
    with pytest.raises(ValueError):
        classify(FIELD, [1.0])
    with pytest.raises(ValueError):
        classify(FIELD, [[1.0, 2.0]])


def test_classify_rejects_three_dimensions_as_fixed_points_does():
    # the origin is a fixed point of this 3-D field, so only the
    # dimension stands in the way
    field = PolyVectorField(tuple(
        Polynomial.from_coeffs({tuple(int(i == j) for j in range(3)): -1.0}, 3)
        for i in range(3)))
    with pytest.raises(ValueError, match="^fixed_points supports dimensions 1 and 2 only$"):
        fixed_points(field)
    with pytest.raises(ValueError, match="^classify supports dimensions 1 and 2 only$"):
        classify(field, [0.0, 0.0, 0.0])


def test_degenerate_classifications():
    # repeated eigenvalue (star node)
    star = PolyVectorField((Polynomial.from_coeffs({(1, 0): -1.0}, 2),
                            Polynomial.from_coeffs({(0, 1): -1.0}, 2)))
    assert classify(star, [0.0, 0.0]).classification == "degenerate"
    # 1-D double root: zero linearization
    dbl = PolyVectorField((Polynomial.from_coeffs({(2,): 1.0}, 1),))
    assert classify(dbl, [0.0]).classification == "degenerate"
    # 2-D: a zero eigenvalue beside -1 (x^2, -y), and a zero Jacobian (x^2, y^2)
    for g in ({(0, 1): -1.0}, {(0, 2): 1.0}):
        f = PolyVectorField((Polynomial.from_coeffs({(2, 0): 1.0}, 2),
                             Polynomial.from_coeffs(g, 2)))
        assert classify(f, [0.0, 0.0]).classification == "degenerate"


def test_spirals_are_detected():
    # x' = -x - 3y, y' = 3x - y: eigenvalues -1 +- 3i
    f = PolyVectorField((Polynomial.from_coeffs({(1, 0): -1.0, (0, 1): -3.0}, 2),
                         Polynomial.from_coeffs({(1, 0): 3.0, (0, 1): -1.0}, 2)))
    cp = classify(f, [0.0, 0.0])
    assert cp.classification == "stable-spiral"
    g = PolyVectorField((Polynomial.from_coeffs({(1, 0): 1.0, (0, 1): -3.0}, 2),
                         Polynomial.from_coeffs({(1, 0): 3.0, (0, 1): 1.0}, 2)))
    assert classify(g, [0.0, 0.0]).classification == "unstable-spiral"


def test_no_real_roots_gives_empty_list():
    f = PolyVectorField((Polynomial.from_coeffs({(2,): 1.0, (0,): 1.0}, 1),))
    assert fixed_points(f) == []


def test_input_validation():
    with pytest.raises(ValueError):
        fixed_points(FIELD, search_box=[(-1.0, 1.0)])
    with pytest.raises(ValueError):
        fixed_points(FIELD, search_box=[(1.0, -1.0), (-1.0, 1.0)])
    with pytest.raises(ValueError):
        fixed_points(FIELD, grid=1)
    cube = PolyVectorField(tuple(
        Polynomial.from_coeffs({(1, 0, 0): 1.0}, 3) for _ in range(3)))
    with pytest.raises(ValueError):
        fixed_points(cube)


def test_critical_point_validation():
    with pytest.raises(ValueError):
        CriticalPoint(location=np.zeros(2), eigenvalues=(1j, -1j),
                      classification="vortex", residual=0.0)
    cp = classify(FIELD, ROOTS[0])
    with pytest.raises(ValueError):
        cp.location[0] = 5.0
    assert set(CLASSIFICATIONS) >= {cp.classification}
    # the stored location is a read-only copy: the caller's array stays writable
    loc = np.zeros(2)
    cp = CriticalPoint(location=loc, eigenvalues=(1.0, 2.0),
                       classification="unstable-node", residual=0.0)
    assert cp.location is not loc and not cp.location.flags.writeable
    loc[0] = 5.0
    assert cp.location.tolist() == [0.0, 0.0]


def test_classification_agrees_with_flow():
    # near the stable node the flow contracts; near the unstable node it
    # expands
    node = ROOTS[2]
    start = node + np.array([0.5, -0.5])
    traj = integrate(InitialValueProblem(FIELD, start), 50.0)
    assert (np.linalg.norm(traj.states[-1] - node)
            < np.linalg.norm(start - node))
    origin = ROOTS[0]
    start2 = origin + np.array([0.01, 0.01])
    traj2 = integrate(InitialValueProblem(FIELD, start2), 50.0)
    assert (np.linalg.norm(traj2.states[-1] - origin)
            > np.linalg.norm(start2 - origin))


def test_classify_rejects_non_finite_location():
    for loc in ([math.nan, math.nan], [math.inf, 0.0], [0.0, -math.inf]):
        with pytest.raises(NotAFixedPointError):
            classify(FIELD, loc)


def test_classify_far_from_the_origin_is_not_a_fixed_point():
    # the spiral's cubic terms overflow at (1e200, 1e200); f is inf there
    # and no RuntimeWarning replaces the NotAFixedPointError
    field = Spiral(0.5).build_field()
    with pytest.raises(NotAFixedPointError, match="residual inf"):
        classify(field, [1e200, 1e200])


def test_infinite_search_interval_is_rejected():
    for box in ([(-math.inf, math.inf)] * 2,
                [(0.0, math.inf), (0.0, 1.0)],
                [(math.nan, 1.0), (0.0, 1.0)],
                [(-1e308, 1e308), (0.0, 1.0)]):  # width overflows
        with pytest.raises(ValueError):
            fixed_points(FIELD, search_box=box)


def test_grid_is_a_bounded_integer():
    # rejected while the arguments are parsed, before any seed is built
    for grid in (MAX_GRID + 1, 10**9, 25.0, True, "25"):
        with pytest.raises(ValueError):
            fixed_points(FIELD, grid=grid)
    assert len(fixed_points(FIELD, grid=np.int64(5))) == 4


def test_huge_finite_box_leaks_no_warning():
    # seeds near 1e300 overflow inside Newton and are dropped quietly;
    # the injected closed-form seeds still give all four roots
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = fixed_points(FIELD, search_box=[(0.0, 1e300)] * 2)
    assert len(roots) == 4


def test_tiny_self_interaction_leaks_no_warning():
    # b2/a22 overflows to inf in the closed-form box and axis seed
    field = TwoSpecies(0.1, 0.08, -0.0014, -0.0012, -0.0009, -1e-320).build_field()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = fixed_points(field)
    assert [0.0, 0.0] in [r.tolist() for r in roots]


def test_product_form_reads_the_terms():
    assert _product_form(Logistic(2.0, -3.0).build_field()) == [(2.0, [-3.0])]
    assert _product_form(TwoSpecies(1.0, 2.0, 3.0, 4.0, 5.0, 6.0).build_field()) == [
        (1.0, [3.0, 4.0]), (2.0, [5.0, 6.0])]
    assert _product_form(Spiral(0.5).build_field()) is None
    cubic = Polynomial.from_coeffs({(1, 0): 1.0, (3, 0): -1.0}, 2)
    no_x = Polynomial.from_coeffs({(0, 1): 1.0}, 2)
    own = Polynomial.from_coeffs({(0, 1): 1.0, (0, 2): -1.0}, 2)
    assert _product_form(PolyVectorField((cubic, own))) is None
    assert _product_form(PolyVectorField((no_x, own))) is None
    assert _product_form(PolyVectorField((own.diff(1), own))) is None


def test_reference_seeds_and_box_are_pinned():
    seeds = _injected_seeds(FIELD)
    expected = [(0.0, 0.0), (0.0, 80.0), (0.1 / 0.0014, 0.0), (12.5, 68.75)]
    assert len(seeds) == len(expected)
    for seed, want in zip(seeds, expected):
        np.testing.assert_allclose(seed, want, rtol=1e-12, atol=1e-12)
    box = _default_box(FIELD)
    assert len(box) == 2
    for lo, hi in box:
        assert lo == pytest.approx(-16.0, rel=1e-12)
        assert hi == pytest.approx(160.0, rel=1e-12)
    assert _injected_seeds(Spiral(0.5).build_field()) == []
    assert _default_box(Spiral(0.5).build_field()) == [(-10.0, 10.0)] * 2
    # 1-D: the origin, and -b/a when a is nonzero
    for preset, want in ((Logistic(1.0, -3.0), [[0.0], [1.0 / 3.0]]),
                         (Logistic(2.0, 0.0), [[0.0]])):
        assert [s.tolist() for s in _injected_seeds(preset.build_field())] == want
    not_product = PolyVectorField((Polynomial.from_coeffs({(0,): 1.0, (2,): -1.0}, 1),))
    assert _injected_seeds(not_product) == []


_SUMMARY = re.compile(
    r"fixed_points: (\d+) seeds, (\d+) converged, (\d+) dropped "
    r"\((\d+) non-finite or diverged, (\d+) singular, (\d+) at the "
    r"iteration cap\), (\d+) roots")


def _summaries(caplog):
    return [tuple(int(g) for g in _SUMMARY.fullmatch(r.getMessage()).groups())
            for r in caplog.records if r.name == "seriesdyn.phase"]


def test_one_summary_line_per_call(caplog):
    caplog.set_level(logging.DEBUG, logger="seriesdyn.phase")
    fixed_points(FIELD)
    [(seeds, conv, dropped, far, singular, capped, roots)] = _summaries(caplog)
    assert seeds == 629 and conv + dropped == seeds
    assert dropped == far + singular + capped
    assert roots == 4
    caplog.clear()
    fixed_points(Logistic(1.0, -3.0).build_field())
    fixed_points(Spiral(-0.5).build_field())
    # the logistic adds its two closed-form seeds, 0 and -b/a, to its 25
    assert [s[0] for s in _summaries(caplog)] == [27, 625]


# -- the batched search against a scalar reference ----------------------------

def _ref_eval(poly, x):
    """Pure-Python walk over the terms in canonical order."""
    total = 0.0
    for mono, c in poly.terms.items():
        v = 1.0
        for xi, e in zip(x, mono.exponents):
            if e:
                v *= xi ** e
        total += c * v
    return total


def _ref_newton(field, seed):
    """One seed's Newton iteration by the documented rules, in Python
    floats: the closed-form solve, at most 60 steps, ||f|| < 1e-10
    checked first, and None for a non-finite f or iterate, ||x|| > 1e12
    or a singular Jacobian."""
    jac = field_jacobian(field)
    x = [float(v) for v in seed]
    for _ in range(60):
        f = [_ref_eval(p, x) for p in field.components]
        if not all(math.isfinite(v) for v in f):
            return None
        if math.sqrt(sum(v * v for v in f)) < 1e-10:
            return x
        J = [[_ref_eval(p, x) for p in row] for row in jac]
        if len(x) == 1:
            det, num = J[0][0], f
        else:
            (a, b), (c, d) = J
            det, num = a * d - b * c, [d * f[0] - b * f[1], a * f[1] - c * f[0]]
        if det == 0.0:
            return None
        x = [xi - v / det for xi, v in zip(x, num)]
        if not (math.sqrt(sum(v * v for v in x)) <= 1e12):
            return None
    return None


def _ref_fixed_points(field, search_box=None, grid=25):
    """Seed by seed, merged by the documented rule: roots closer than
    1e-6 merge and the smaller residual ||f|| (from eval_field) wins."""
    box = search_box or _default_box(field)
    axes = [np.linspace(lo, hi, grid).tolist() for lo, hi in box]
    seeds = [s.tolist() for s in _injected_seeds(field)]
    seeds += ([[u] for u in axes[0]] if len(box) == 1
              else [[u, v] for u in axes[0] for v in axes[1]])
    roots = []
    for seed in seeds:
        x = _ref_newton(field, seed)
        if x is None:
            continue
        x = np.array(x)
        res = math.sqrt(sum(v * v for v in eval_field(field, x).tolist()))
        for idx, (known, known_res) in enumerate(roots):
            if np.linalg.norm(x - known) < 1e-6:
                if res < known_res:
                    roots[idx] = (x, res)
                break
        else:
            roots.append((x, res))
    return sorted((x for x, _ in roots), key=tuple)


@pytest.mark.parametrize("field", [
    FIELD,
    Spiral(-0.5).build_field(),
    Spiral(0.5).build_field(),
    Logistic(1.0, -3.0).build_field(),
    Logistic(0.3, -0.7).build_field(),
], ids=["two-species", "spiral-", "spiral+", "logistic", "logistic-2"])
def test_presets_match_scalar_reference_bit_for_bit(field):
    got, want = fixed_points(field), _ref_fixed_points(field)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes(), (g, w)


@pytest.mark.parametrize("field", [
    FIELD, Spiral(0.5).build_field(), Logistic(1.0, -3.0).build_field(),
], ids=["two-species", "spiral+", "logistic"])
def test_every_seed_matches_scalar_reference_bit_for_bit(field):
    axes = [np.linspace(lo, hi, 9) for lo, hi in _default_box(field)]
    seeds = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, field.dimension)
    xs = seeds.copy()
    outcome, residual = _newton_all(field, xs)
    for seed, x, out, res in zip(seeds, xs, outcome, residual):
        want = _ref_newton(field, seed)
        assert (out == _CONVERGED) == (want is not None), seed
        if want is not None:
            assert x.tolist() == want, seed
            # the merge in fixed_points ranks roots by this ||f||
            assert res == math.sqrt(sum(v * v for v in eval_field(field, x))), seed


def _poly(coeffs, n):
    return Polynomial.from_coeffs(coeffs, n)


# (x - 1)(x + 2)(2x - 1); (x - 1)(y - 2), x + y - 1; (x^2 - 4), (y^2 - 1) x
_KNOWN = [
    (PolyVectorField((_poly({(3,): 2.0, (2,): 1.0, (1,): -5.0, (0,): 2.0}, 1),)),
     [[-2.0], [0.5], [1.0]]),
    (PolyVectorField((_poly({(1, 1): 1.0, (1, 0): -2.0, (0, 1): -1.0,
                             (0, 0): 2.0}, 2),
                      _poly({(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}, 2))),
     [[-1.0, 2.0], [1.0, 0.0]]),
    (PolyVectorField((_poly({(2, 0): 1.0, (0, 0): -4.0}, 2),
                      _poly({(1, 2): 1.0, (1, 0): -1.0}, 2))),
     [[-2.0, -1.0], [-2.0, 1.0], [2.0, -1.0], [2.0, 1.0]]),
]


@pytest.mark.parametrize("field, known", _KNOWN, ids=["cubic", "lines", "grid"])
def test_isolated_roots_match_scalar_reference(field, known):
    got, want = fixed_points(field), _ref_fixed_points(field)
    assert len(got) == len(want) == len(known)
    for g, w, k in zip(got, want, known):
        assert np.max(np.abs(g - w)) <= 1e-12
        assert np.max(np.abs(g - k)) <= 1e-12


CATALOG = "\n".join([
    "import numpy as np",
    "from seriesdyn import Logistic, Spiral, TwoSpecies, classify, fixed_points",
    "rng = np.random.default_rng(18)",
    "presets = [TwoSpecies.reference(), Spiral(-0.5), Spiral(0.5), Logistic(1.0, -3.0)]",
    "presets += [TwoSpecies(*rng.uniform(-1.0, 1.0, 6).tolist()) for _ in range(10)]",
    "for preset in presets:",
    "    field = preset.build_field()",
    "    for loc in fixed_points(field):",
    "        cp = classify(field, loc)",
    "        print(loc.tobytes().hex(), cp.classification, cp.residual.hex(),",
    "              *(f'{z.real.hex()} {z.imag.hex()}' for z in cp.eigenvalues))",
])
# the script as a fresh process forced onto OpenBLAS's Prescott kernel,
# which has neither AVX nor FMA (OpenBLAS picks its kernels by CPU)
COLD = {"prescott": (["-c", CATALOG], {"OPENBLAS_CORETYPE": "Prescott"})}


def test_catalog_does_not_depend_on_the_blas_kernel(cold_run, capsys):
    # the seeds, Newton and the residuals are float code with no BLAS or
    # LAPACK call, and LAPACK's 2x2 eigenvalues do not depend on the
    # kernel, so every digit of a catalog is the same under any kernel
    exec(CATALOG, {})
    here = capsys.readouterr().out
    assert len(here.splitlines()) == 48
    assert cold_run("prescott").stdout.decode() == here


def test_singular_jacobian_drops_the_seed(caplog):
    # the middle seed x = 0 of x^2 - 1 (and of (x^2 - 1, y) in 2-D) has
    # f != 0 and a singular Jacobian: it is dropped, without an error
    caplog.set_level(logging.DEBUG, logger="seriesdyn.phase")
    one = PolyVectorField((_poly({(2,): 1.0, (0,): -1.0}, 1),))
    two = PolyVectorField((_poly({(2, 0): 1.0, (0, 0): -1.0}, 2),
                           _poly({(0, 1): 1.0}, 2)))
    assert _ref_newton(one, [0.0]) is None
    assert _ref_newton(two, [0.0, 0.0]) is None
    for field, box in ((one, [(-1.0, 1.0)]), (two, [(-1.0, 1.0)] * 2)):
        got = fixed_points(field, search_box=box, grid=3)
        want = _ref_fixed_points(field, search_box=box, grid=3)
        assert [g.tolist() for g in got] == [w.tolist() for w in want]
        assert [g[0] for g in got] == [-1.0, 1.0]
    singular = [s[4] for s in _summaries(caplog)]
    assert singular == [1, 3]
