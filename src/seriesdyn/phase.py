"""Fixed-point location and linear classification for 1-D and 2-D fields.

Roots of the vector field are found by Newton iteration seeded on a
rectangular grid; population models in product form additionally get
their closed-form axis and interior candidates injected as seeds, so the
catalog is exact where a closed form exists.  All seeds iterate together
as one array, walking the field's program of f and its Jacobian with
the same bits as ``eval_field`` and ``jacobian_at``.  Classification is
by the eigenvalues of the Jacobian at the root.  A purely imaginary pair
is reported as center-linear rather than guessed: linearization cannot
decide spiral stability there, the radial law of the exact solution can.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DEBUG, NotAFixedPointError, logger, record
from .model import PolyVectorField, _hold, eval_field, jacobian_at

MAX_GRID = 400  # seeds per dimension; bounds the (B, n) Newton batch
_ACTIVE, _CONVERGED, _DIVERGED, _SINGULAR = range(4)  # Newton outcomes
_RESIDUAL_TOL = 1e-10
_CLASSIFY_RESIDUAL_TOL = 1e-8
_DEDUP_DISTANCE = 1e-6
_FALLBACK_BOX_HALF_WIDTH = 10.0
_DEGENERACY_TOL = 1e-9  # an eigenvalue this small (relative in 2-D) counts as zero

CLASSIFICATIONS = (
    "stable-node", "unstable-node", "saddle",
    "stable-spiral", "unstable-spiral", "center-linear", "degenerate",
)


@record(eq=False)
class CriticalPoint:
    """A classified fixed point.

    ``residual`` is the Euclidean norm of the field at ``location``.
    Points produced by ``fixed_points`` satisfy residual < 1e-10;
    ``classify`` also accepts hand-supplied locations up to 1e-8.  A
    point compares and hashes by identity.
    """

    location: np.ndarray
    eigenvalues: tuple[complex, ...]
    classification: str
    residual: float

    def __post_init__(self):
        _hold(self, "location", self.location)
        object.__setattr__(self, "eigenvalues",
                           tuple(complex(z) for z in self.eigenvalues))
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"unknown classification {self.classification!r}")


def _product_form(field: PolyVectorField):
    """Per-component (b_i, [a_i1, ..., a_in]) when every component is
    x_i * (b_i + sum_j a_ij x_j), read from the components' terms; None
    otherwise.  The coefficients are Python floats, so the closed forms
    built from them divide to inf without a numpy RuntimeWarning."""
    n = field.dimension
    parts = []
    for i, comp in enumerate(field.components):
        b, lin = 0.0, [0.0] * n
        for m, c in comp.terms.items():
            exps = list(m.exponents)
            if not exps[i] or sum(exps) > 2:
                return None
            exps[i] -= 1
            if sum(exps):
                lin[exps.index(1)] = c  # the x_j beside x_i
            else:
                b = c
        parts.append((b, lin))
    return parts


def _default_box(field: PolyVectorField) -> list[tuple[float, float]]:
    """[-0.1*S, S] per dimension with S = 2*max|b_i/a_ii| when the field
    is in product form with nonzero self-interaction; a fixed fallback
    box otherwise."""
    n = field.dimension
    parts = _product_form(field)
    if parts is not None and all(lin[i] != 0.0 for i, (_, lin) in enumerate(parts)):
        s = 2.0 * max(abs(b / lin[i]) for i, (b, lin) in enumerate(parts))
        if 0.0 < s < math.inf:
            return [(-0.1 * s, s)] * n
    w = _FALLBACK_BOX_HALF_WIDTH
    return [(-w, w)] * n


def _injected_seeds(field: PolyVectorField) -> list[np.ndarray]:
    """Closed-form fixed-point candidates for product-form fields: in 1-D
    the origin and -b/a when a is nonzero; in 2-D the origin, the two axis
    intercepts, and the interior solution of [[a_11, a_12], [a_21, a_22]]
    x = (-b_1, -b_2) when its determinant is nonzero (a NaN one is not),
    by Cramer's rule on Python floats as ``_newton_all`` takes its 2-D
    step."""
    parts = _product_form(field)
    if parts is None:
        return []
    if field.dimension == 1:
        (b, (a,)), = parts
        return [np.zeros(1)] + ([np.array([-b / a])] if a != 0.0 else [])
    (b1, (a, b)), (b2, (c, d)) = parts
    seeds = [np.zeros(2)]
    if d != 0.0:
        seeds.append(np.array([0.0, -b2 / d]))
    if a != 0.0:
        seeds.append(np.array([-b1 / a, 0.0]))
    det, f0, f1 = a * d - b * c, -b1, -b2
    if abs(det) > 0.0:
        seeds.append(np.array([(d * f0 - b * f1) / det, (a * f1 - c * f0) / det]))
    return seeds


def _newton_all(field: PolyVectorField, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton's method on all rows of ``xs`` (shape (B, n)) at once, in
    place, by the scalar rules, with f and J from the field's program run
    on the columns: a row converges when ||f|| < 1e-10 at the top of an
    iteration, and is dropped on a non-finite f or iterate, ||x|| > 1e12,
    det J == 0, or after 60 steps.  Returns each row's outcome and last
    ||f||; finished rows cost no further work."""
    n = field.dimension
    program = field._program_with_jacobian
    outcome = np.full(len(xs), _ACTIVE)
    residual = np.empty(len(xs))
    rows = np.arange(len(xs))
    with np.errstate(all="ignore"):  # diverging seeds overflow
        for _ in range(60):
            fj = program.run(list(xs[rows].T), np.empty((n + n * n, len(rows))))
            f, jac = np.split(fj, [n])
            bad = ~np.isfinite(f).all(axis=0)
            residual[rows] = np.sqrt((f * f).sum(axis=0))
            done = ~bad & (residual[rows] < _RESIDUAL_TOL)
            if n == 1:
                det, step = jac[0], f / jac[0]
            else:
                a, b, c, d = jac
                det = a * d - b * c
                step = np.array([d * f[0] - b * f[1], a * f[1] - c * f[0]]) / det
            go = ~bad & ~done & (det != 0)
            outcome[rows] = np.select([bad, done, ~go],
                                      [_DIVERGED, _CONVERGED, _SINGULAR], _ACTIVE)
            rows = rows[go]
            xs[rows] -= step[:, go].T
            # a NaN or inf iterate fails the test as well
            far = ~(np.sqrt((xs[rows] ** 2).sum(axis=1)) <= 1e12)
            outcome[rows[far]] = _DIVERGED
            rows = rows[~far]
            if not rows.size:
                break
    return outcome, residual


def fixed_points(field: PolyVectorField,
                 search_box: list[tuple[float, float]] | None = None,
                 grid: int = 25) -> list[np.ndarray]:
    """Locations of the field's fixed points, sorted lexicographically.

    Newton iterations are seeded with the closed-form candidates of
    ``_injected_seeds``, then a ``grid``-per-dimension lattice over
    ``search_box`` (default: a box derived from the model structure, see
    ``_default_box``), and all seeds iterate together as one array.  The
    box places seeds; converged roots are kept even if Newton wanders
    outside it.  In seed order, roots closer than 1e-6 are merged, the
    smaller residual ||f|| (as Newton computed it) winning; every returned
    root has ||f(x*)|| < 1e-10, and finding nothing returns an empty list.
    ``grid`` is an integer from 2 to MAX_GRID, and each interval needs
    finite lo < hi.
    """
    n = field.dimension
    if n not in (1, 2):
        raise ValueError("fixed_points supports dimensions 1 and 2 only")
    if search_box is None:
        search_box = _default_box(field)
    if len(search_box) != n:
        raise ValueError(f"search_box must have {n} intervals")
    for lo, hi in search_box:
        if not (lo < hi and math.isfinite(float(hi) - float(lo))):
            raise ValueError("each search interval needs finite lo < hi")
    if not isinstance(grid, (int, np.integer)) or not 2 <= grid <= MAX_GRID:
        raise ValueError(f"grid must be an integer from 2 to {MAX_GRID}")

    axes = np.meshgrid(*(np.linspace(lo, hi, grid) for lo, hi in search_box),
                       indexing="ij")
    xs = np.concatenate([np.reshape(_injected_seeds(field), (-1, n)),
                         np.stack([a.ravel() for a in axes], axis=1)])
    outcome, residual = _newton_all(field, xs)

    roots: list[tuple[list[float], float]] = []
    converged = outcome == _CONVERGED
    for x, res in zip(xs[converged].tolist(), residual[converged].tolist()):
        for idx, (known, known_res) in enumerate(roots):
            if math.dist(x, known) < _DEDUP_DISTANCE:
                if res < known_res:
                    roots[idx] = (x, res)
                break
        else:
            roots.append((x, res))
    count = np.bincount(outcome, minlength=4)
    if log := logger(__name__, DEBUG):
        log.debug("fixed_points: %d seeds, %d converged, %d dropped (%d non-finite "
                  "or diverged, %d singular, %d at the iteration cap), %d roots",
                  len(xs), count[_CONVERGED], len(xs) - count[_CONVERGED],
                  count[_DIVERGED], count[_SINGULAR], count[_ACTIVE], len(roots))
    return [np.array(x) for x, _ in sorted(roots, key=lambda r: r[0])]


def classify(field: PolyVectorField, location) -> CriticalPoint:
    """Classify a fixed point by the Jacobian eigenvalues at ``location``.

    Real pairs give nodes or saddles by sign; complex pairs give spirals
    by the sign of the real part, or center-linear when the real part is
    below 1e-9 relative to the imaginary part.  A vanishing, near-repeated,
    or relatively tiny eigenvalue makes the point degenerate.  Dimensions
    1 and 2 only.  Raises NotAFixedPointError when ||f(location)|| >= 1e-8,
    the residual sqrt(sum f_i^2) on floats that ``_newton_all`` computes.
    """
    if field.dimension not in (1, 2):
        raise ValueError("classify supports dimensions 1 and 2 only")
    x = np.asarray(location, dtype=float)
    if x.ndim != 1 or x.size != field.dimension:
        raise ValueError("location must be a state vector of the field's dimension")
    residual = math.sqrt(sum(v * v for v in eval_field(field, x).tolist()))
    if not residual < _CLASSIFY_RESIDUAL_TOL:  # NaN fails too
        raise NotAFixedPointError(
            f"residual {residual:.3e} at {x.tolist()} exceeds "
            f"{_CLASSIFY_RESIDUAL_TOL:.0e}")
    jac = jacobian_at(field, x)

    if field.dimension == 1:
        lam = float(jac[0, 0])
        if abs(lam) < _DEGENERACY_TOL:
            cls = "degenerate"
        else:
            cls = "stable-node" if lam < 0 else "unstable-node"
        return CriticalPoint(location=x, eigenvalues=(complex(lam),),
                             classification=cls, residual=residual)

    eigs = sorted(np.linalg.eigvals(jac), key=lambda z: (z.real, z.imag))
    lam1, lam2 = (complex(z) for z in eigs)
    scale = max(abs(lam1), abs(lam2))
    if scale == 0.0 or min(abs(lam1), abs(lam2)) < _DEGENERACY_TOL * scale:
        cls = "degenerate"
    elif max(abs(lam1.imag), abs(lam2.imag)) >= _DEGENERACY_TOL * scale:
        if abs(lam1.real) < _DEGENERACY_TOL * abs(lam1.imag):
            cls = "center-linear"
        elif lam1.real < 0:
            cls = "stable-spiral"
        else:
            cls = "unstable-spiral"
    else:
        r1, r2 = lam1.real, lam2.real
        if abs(r1 - r2) < _DEGENERACY_TOL * scale:
            cls = "degenerate"
        elif r1 < 0 < r2 or r2 < 0 < r1:
            cls = "saddle"
        elif r1 < 0:
            cls = "stable-node"
        else:
            cls = "unstable-node"
    return CriticalPoint(location=x, eigenvalues=(lam1, lam2),
                         classification=cls, residual=residual)
