"""Reference values computed apart from seriesdyn.

Nothing here imports the program.  A polynomial field is written as one
list of ``(coeff, exponents)`` terms per component; the three preset
fields are written out below from the model equations, and the seeded
random systems are generated in this form before being handed to the
program.  Every function returns plain floats or numpy arrays, and every
``*_problems`` function returns a list of human-readable findings, empty
when the program's answer passes.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# two-species reference parameters (b1, b2, a11, a12, a21, a22)
TWO_SPECIES = (0.1, 0.08, -0.0014, -0.0012, -0.0009, -0.001)


def logistic_field(b, a):
    return [[(b, (1,)), (a, (2,))]]


def spiral_field(a):
    return [[(-1.0, (0, 1)), (a, (3, 0)), (a, (1, 2))],
            [(1.0, (1, 0)), (a, (2, 1)), (a, (0, 3))]]


def two_species_field(p=TWO_SPECIES):
    b1, b2, a11, a12, a21, a22 = p
    return [[(b1, (1, 0)), (a11, (2, 0)), (a12, (1, 1))],
            [(b2, (0, 1)), (a21, (1, 1)), (a22, (0, 2))]]


def random_field(rng, n):
    """One random polynomial field in criterion 2's recipe: 1-4 terms per
    component, exponents 0-3 per variable with total degree capped at 3
    (over-degree draws are clipped to 0/1), coefficients in [-2, 2]."""
    field = []
    for _ in range(n):
        terms: dict[tuple, float] = {}
        for _ in range(int(rng.integers(1, 5))):
            exps = tuple(int(e) for e in rng.integers(0, 4, n))
            if sum(exps) > 3:
                exps = tuple(min(e, 1) for e in exps)
            terms[exps] = terms.get(exps, 0.0) + float(rng.uniform(-2, 2))
        field.append(sorted((c, e) for e, c in terms.items()))
    return field


# -- field values ------------------------------------------------------------

def field_eval(field, x):
    x = [float(v) for v in x]
    out = []
    for comp in field:
        total = 0.0
        for c, exps in comp:
            term = c
            for xi, e in zip(x, exps):
                term *= xi ** e
            total += term
        out.append(total)
    return np.array(out)


def jacobian_logistic(b, a, x):
    return np.array([[b + 2.0 * a * x[0]]])


def jacobian_spiral(a, x):
    u, v = x
    return np.array([[3 * a * u * u + a * v * v, -1.0 + 2 * a * u * v],
                     [1.0 + 2 * a * u * v, a * u * u + 3 * a * v * v]])


def jacobian_two_species(x, p=TWO_SPECIES):
    b1, b2, a11, a12, a21, a22 = p
    u, v = x
    return np.array([[b1 + 2 * a11 * u + a12 * v, a12 * u],
                     [a21 * v, b2 + a21 * u + 2 * a22 * v]])


def eigenvalues(jac):
    """Eigenvalues of a 1x1 or 2x2 matrix, sorted by (real, imag)."""
    if jac.shape == (1, 1):
        return [complex(jac[0, 0])]
    (p, q), (r, s) = jac
    half_tr = 0.5 * (p + s)
    disc = cmath.sqrt(half_tr * half_tr - (p * s - q * r))
    return sorted([half_tr - disc, half_tr + disc], key=lambda z: (z.real, z.imag))


def classification(eigs):
    """Class of a hyperbolic point or a linear centre, from its eigenvalues."""
    if len(eigs) == 1:
        return "stable-node" if eigs[0].real < 0 else "unstable-node"
    l1, l2 = eigs
    if abs(l1.imag) > 0.0:
        if abs(l1.real) <= 1e-12 * abs(l1.imag):
            return "center-linear"
        return "stable-spiral" if l1.real < 0 else "unstable-spiral"
    if l1.real < 0 < l2.real:
        return "saddle"
    return "stable-node" if l2.real < 0 else "unstable-node"


def two_species_node(p=TWO_SPECIES):
    """Interior equilibrium by Cramer's rule on
    [a11 a12; a21 a22] (x, y) = -(b1, b2)."""
    b1, b2, a11, a12, a21, a22 = p
    det = a11 * a22 - a12 * a21
    return np.array([(-b1 * a22 + b2 * a12) / det, (-b2 * a11 + b1 * a21) / det])


def two_species_equilibria(p=TWO_SPECIES):
    """The four equilibria in closed form, in lexicographic order."""
    b1, b2, a11, _, _, a22 = p
    pts = [(0.0, 0.0), (0.0, -b2 / a22), (-b1 / a11, 0.0),
           tuple(two_species_node(p))]
    return [np.array(pt) for pt in sorted(pts)]


# -- closed forms and singularity moduli --------------------------------------

def logistic_exact(b, a, x0, t):
    # x(t) = b x0 / ((b + a x0) e^{-bt} - a x0), from separating variables
    return b * x0 / ((b + a * x0) * math.exp(-b * t) - a * x0)


def spiral_exact(a, x0, y0, t):
    r0 = math.hypot(x0, y0)
    th = math.atan2(y0, x0) + t
    r = r0 / math.sqrt(1.0 - 2.0 * a * r0 * r0 * t)
    return np.array([r * math.cos(th), r * math.sin(th)])


LOGISTIC_REAL_MODULUS = math.log(1.5)                          # x0 = 1
LOGISTIC_PAIR_MODULUS = abs(complex(math.log(7.0 / 3.0), math.pi))  # x0 = 0.1


def spiral_modulus(a, x0, y0):
    return 1.0 / (2.0 * abs(a) * (x0 * x0 + y0 * y0))


# -- series -------------------------------------------------------------------

def logistic_coeffs(b, a, x0, order):
    """Exact Taylor coefficients of x' = b x + a x^2, x(0) = x0.

    The rational recursion (j+1) c_{j+1} = b c_j + a sum_i c_i c_{j-i} is run
    on integers: with x = x0 u, u_j = E_j / (Q^j j!), where Q is the common
    denominator of b and a*x0, the recursion becomes
    E_{j+1} = B E_j + A sum_i C(j, i) E_i E_{j-i} with B = bQ, A = a x0 Q.
    Only the last division is rational, so every coefficient is the exact
    value for the binary inputs, correctly rounded to float.
    """
    fb, fx0 = Fraction(b), Fraction(x0)
    alpha = Fraction(a) * fx0
    q = fb.denominator * alpha.denominator // math.gcd(fb.denominator,
                                                      alpha.denominator)
    big_b, big_a = int(fb * q), int(alpha * q)
    e = [1]
    for j in range(order):
        # the sum is symmetric in i <-> j - i: add each pair once
        half = sum(math.comb(j, i) * e[i] * e[j - i] for i in range((j + 1) // 2))
        mid = math.comb(j, j // 2) * e[j // 2] ** 2 if j % 2 == 0 else 0
        e.append(big_b * e[j] + big_a * (2 * half + mid))
    out = []
    denom = 1
    for j in range(order + 1):
        if j:
            denom *= q * j
        out.append(float(fx0 * Fraction(e[j], denom)))
    return np.array(out)


def _product(a, b, order):
    return np.convolve(a, b)[: order + 1]


def compose(comp, coeffs, order, absolute=False):
    """[t^0..t^order] of one field component applied to the series
    ``coeffs`` (one row per variable), by truncated Cauchy products.  With
    ``absolute`` every coefficient is replaced by its modulus, which gives
    the scale the floating-point sum can be trusted to."""
    rows = [np.abs(c) if absolute else np.asarray(c, dtype=float)
            for c in coeffs]
    out = np.zeros(order + 1)
    for c, exps in comp:
        term = np.zeros(order + 1)
        term[0] = 1.0
        for i, e in enumerate(exps):
            for _ in range(e):
                term = _product(term, rows[i], order)
        out += (abs(c) if absolute else c) * term
    return out


def own_taylor(field, x0, order):
    """Taylor coefficients by the benchmark's own recursion, for the small
    orders the CLI prints."""
    n = len(field)
    c = np.zeros((n, order + 1))
    c[:, 0] = x0
    for j in range(order):
        for i, comp in enumerate(field):
            c[i, j + 1] = compose(comp, c[:, : j + 1], j)[j] / (j + 1)
    return c


def partial_sum(coeffs, t):
    """Sum of c_j t^j, with the sum of |c_j t^j| as its error scale."""
    terms = [float(c) * t ** j for j, c in enumerate(coeffs)]
    return math.fsum(terms), math.fsum(abs(v) for v in terms)


def ode_residual_problems(field, x0, coeffs, rel_tol=1e-10, sum_tol=1e-12):
    """The truncated series satisfies dx/dt = f(x) coefficient by coefficient.

    For each variable and j < K, (j+1) c_{j+1} must equal [t^j] f(c) within
    ``rel_tol`` of itself plus ``sum_tol`` of the absolute-value sum behind
    [t^j] f (the rounding scale of that sum), and c_0 must equal x0.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    order = coeffs.shape[1] - 1
    out = []
    if not np.array_equal(coeffs[:, 0], np.asarray(x0, dtype=float)):
        out.append(f"c_0 = {coeffs[:, 0].tolist()} is not x0 = {list(x0)}")
    if not np.all(np.isfinite(coeffs)):
        return out + ["non-finite coefficient"]
    for i, comp in enumerate(field):
        lhs = np.arange(1, order + 1) * coeffs[i, 1:]
        rhs = compose(comp, coeffs[:, :order], order - 1)
        scale = compose(comp, coeffs[:, :order], order - 1, absolute=True)
        bad = np.abs(lhs - rhs) > rel_tol * np.abs(lhs) + sum_tol * scale
        if bad.any():
            j = int(np.argmax(bad))
            out.append(f"variable {i}: (j+1)c_(j+1) = {lhs[j]!r} but [t^j]f = "
                       f"{rhs[j]!r} at j = {j}")
    return out


def coeff_problems(got, want, rel_tol=1e-10):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{got.size} coefficients, expected {want.size}"]
    bad = ~(np.abs(got - want) <= rel_tol * np.abs(want))
    if bad.any():
        j = int(np.argmax(bad))
        return [f"coefficient {j} is {got[j]!r}, exact value {want[j]!r}"]
    return []


def hpm_problems(corrections, taylor, tol=1e-10):
    """The collapse identity on the raw perturbation arrays: correction j
    holds only its t^j term, and that term is the Taylor coefficient x_j,
    both within ``tol`` of max(1, |x_j|)."""
    out = []
    for j, per_var in enumerate(corrections):
        for i, c in enumerate(per_var):
            xj = taylor[i][j]
            scale = tol * max(1.0, abs(xj))
            c = np.asarray(c, dtype=float)
            head = c[j] if j < c.size else 0.0
            others = np.delete(c, j) if j < c.size else c
            if others.size and not np.max(np.abs(others)) <= scale:
                out.append(f"correction {j} of variable {i} has terms "
                           f"other than t^{j}")
            if not abs(head - xj) <= scale:
                out.append(f"correction {j} of variable {i}: t^{j} term "
                           f"{head!r}, Taylor coefficient {xj!r}")
    return out


def relative_gap(value, exact):
    return abs(value - exact) / abs(exact)
