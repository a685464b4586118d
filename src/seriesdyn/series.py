"""Truncated time-power-series machinery.

Two independent routes produce the same expansion of the solution of
dx/dt = f(x) about t = 0:

* :func:`taylor_solve` runs the direct coefficient recursion
  (j+1) x_{j+1} = [t^j] f(x(t)).
* :func:`hpm_solve` runs the order-by-order perturbation recursion for
  the embedded family dx/dt = lam * f(x), collecting powers of the dummy
  parameter lam and integrating each correction from x^(j)(0) = 0.

:func:`hpm_collapse_check` verifies numerically that the perturbation
corrections collapse onto single Taylor monomials, i.e. that the two
routes agree order by order.  :func:`radius_estimate` bounds where the
resulting partial sums can possibly be useful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientOrderError
from .model import InitialValueProblem, Polynomial

__all__ = [
    "TruncatedSeries",
    "TaylorSolution",
    "HpmExpansion",
    "RadiusEstimate",
    "series_mul",
    "poly_apply_series",
    "taylor_solve",
    "hpm_solve",
    "hpm_collapse_check",
    "series_eval",
    "radius_estimate",
]

# coefficients smaller than this are treated as structural zeros when
# forming ratios (exact zeros occur for odd/even symmetric solutions)
_ZERO_SKIP = 1e-300


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_K of a power series in t, truncated at order K."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        return series_eval(self, t)

    def derivative(self) -> "TruncatedSeries":
        c = self.coeffs
        if len(c) == 1:
            return TruncatedSeries(np.zeros(1))
        return TruncatedSeries(c[1:] * np.arange(1, len(c)))

    def integral(self) -> "TruncatedSeries":
        """Antiderivative with zero constant term (one order higher)."""
        c = self.coeffs
        return TruncatedSeries(np.concatenate(([0.0], c / np.arange(1, len(c) + 1))))


@dataclass(frozen=True)
class TaylorSolution:
    """Per-variable series x_i(t) = sum_j c_{i,j} t^j for one problem.

    ``overflow_order`` is the first order at which any coefficient became
    non-finite (None when all coefficients are finite); overflow is a
    diagnostic, not an error.
    """

    series: tuple[TruncatedSeries, ...]
    ivp: InitialValueProblem
    overflow_order: int | None = None

    @property
    def order(self) -> int:
        return self.series[0].order

    @property
    def dimension(self) -> int:
        return len(self.series)

    def eval(self, t) -> np.ndarray:
        """Partial-sum state at time(s) t, shape (..., n)."""
        return np.stack([series_eval(s, t) for s in self.series], axis=-1)


@dataclass(frozen=True)
class HpmExpansion:
    """Perturbation corrections x^(j)(t), each a polynomial in t of degree <= j.

    ``corrections[j][i]`` is the order-j correction of variable i, stored on
    the common length-(K+1) coefficient grid.  The dummy expansion parameter
    is represented only by the index j; it is set to one when summing.
    """

    corrections: tuple[tuple[TruncatedSeries, ...], ...]

    @property
    def order(self) -> int:
        return len(self.corrections) - 1

    @property
    def dimension(self) -> int:
        return len(self.corrections[0])

    def summed(self) -> tuple[TruncatedSeries, ...]:
        """Sum of all corrections (the expansion parameter set to one)."""
        n = self.dimension
        total = [np.zeros(self.order + 1) for _ in range(n)]
        for per_var in self.corrections:
            for i in range(n):
                c = per_var[i].coeffs
                total[i][: len(c)] += c
        return tuple(TruncatedSeries(t) for t in total)


@dataclass(frozen=True)
class RadiusEstimate:
    """Convergence-radius estimate plus the per-order sequence behind it."""

    value: float
    method: str
    diagnostics: np.ndarray


# -- the one truncated product ------------------------------------------------
#
# A coefficient grid is a flat array holding ``rows`` rows of t-coefficients
# stored row after row at a fixed ``stride``.  The Taylor route is the
# one-row case (stride = width = order + 1).  The perturbation route keeps
# one row per power of the dummy parameter lam at stride 2K+1: a product of
# two rows has t-degree <= 2K, so t-powers never collide across rows and one
# 1-D convolution of the flat grids is the exact bivariate product.

def _mul(a: np.ndarray, b: np.ndarray, rows: int, width: int,
         stride: int) -> np.ndarray:
    """Product of two flat grids, truncated to ``rows`` rows of ``width``
    t-coefficients each (the rest of every row is zero)."""
    full = np.convolve(a, b)
    out = np.zeros(rows * stride)
    m = min(len(out), len(full))
    out[:m] = full[:m]
    if width < stride:
        out.reshape(rows, stride)[:, width:] = 0.0
    return out


def _compose(p: Polynomial, grids: list[np.ndarray], rows: int, width: int,
             stride: int) -> np.ndarray:
    """p applied to per-variable flat grids, truncated as in :func:`_mul`.

    Walks the compiled term plan; powers of each variable are cached and
    reused across terms.
    """
    one = np.zeros(rows * stride)
    one[0] = 1.0
    powers = [[one] for _ in grids]

    def power(i: int, e: int) -> np.ndarray:
        cache = powers[i]
        while len(cache) <= e:
            cache.append(_mul(cache[-1], grids[i], rows, width, stride))
        return cache[e]

    out = np.zeros(rows * stride)
    for c, factors in p._plan:
        term = one
        for i, e in factors:
            term = _mul(term, power(i, e), rows, width, stride)
        out += c * term
    return out


def series_mul(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Cauchy product truncated at ``order``."""
    return TruncatedSeries(_mul(a.coeffs, b.coeffs, 1, order + 1, order + 1))


def poly_apply_series(p: Polynomial, variables, order: int) -> TruncatedSeries:
    """Compose a polynomial with per-variable series: p(x_1(t), ..., x_n(t)),
    truncated at ``order``."""
    if p.dimension != len(variables):
        raise DimensionError(
            f"polynomial has {p.dimension} variables, got {len(variables)} series"
        )
    arrays = [np.asarray(v.coeffs, dtype=float) for v in variables]
    return TruncatedSeries(_compose(p, arrays, 1, order + 1, order + 1))


def taylor_solve(ivp: InitialValueProblem, order: int) -> TaylorSolution:
    """Expansion of the solution about t = 0 via the direct recursion.

    Coefficient j+1 of every variable is the t^j coefficient of f applied
    to the partial series known so far, divided by j+1.  For polynomial f
    these are the exact Taylor coefficients of the true solution.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = ivp.dimension
    coeffs = np.zeros((n, order + 1))
    coeffs[:, 0] = ivp.x0
    overflow = None
    # overflow is reported through overflow_order, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(order):
            grids = [coeffs[v, : j + 1] for v in range(n)]
            for i, p in enumerate(ivp.field.components):
                coeffs[i, j + 1] = _compose(p, grids, 1, j + 1, j + 1)[j] / (j + 1)
            if overflow is None and not np.all(np.isfinite(coeffs[:, j + 1])):
                overflow = j + 1
    return TaylorSolution(
        series=tuple(TruncatedSeries(coeffs[i]) for i in range(n)),
        ivp=ivp,
        overflow_order=overflow,
    )


def hpm_solve(ivp: InitialValueProblem, order: int) -> HpmExpansion:
    """Literal order-by-order perturbation recursion for dx/dt = lam f(x).

    The zeroth correction is the constant x0.  For j >= 1 the t-derivative
    of x^(j) equals the lam^(j-1) coefficient of f applied to the expansion
    built so far, and x^(j) is its integral from 0 (so x^(j)(0) = 0).  Each
    correction comes out a polynomial in t of degree <= j.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = ivp.dimension
    K = order
    stride = 2 * K + 1
    # X[var, lam_order, t_power], each row padded from K+1 to the stride
    X = np.zeros((n, K + 1, stride))
    X[:, 0, 0] = ivp.x0
    for j in range(1, K + 1):
        grids = [X[v, :j].ravel() for v in range(n)]
        for i, p in enumerate(ivp.field.components):
            f = _compose(p, grids, j, K + 1, stride)
            g = f[(j - 1) * stride:]  # d/dt of correction j, a series in t
            X[i, j, 1: K + 1] = g[:K] / np.arange(1, K + 1)
    corrections = tuple(
        tuple(TruncatedSeries(X[i, j, : K + 1]) for i in range(n)) for j in range(K + 1)
    )
    return HpmExpansion(corrections)


def hpm_collapse_check(h: HpmExpansion, t: TaylorSolution,
                       tol: float) -> tuple[bool, float]:
    """Check that correction j is exactly the Taylor monomial x_j t^j.

    For every order j and variable i, all t^m coefficients with m != j must
    vanish and the t^j coefficient must equal the Taylor coefficient x_j,
    within ``tol`` relative to max(1, |x_j|).  Returns (passed, worst
    normalized deviation).
    """
    if h.dimension != t.dimension:
        raise DimensionError("expansion and series have different dimensions")
    if h.order != t.order:
        raise DimensionError("expansion and series have different orders")
    worst = 0.0
    for j, per_var in enumerate(h.corrections):
        for i in range(h.dimension):
            xj = t.series[i].coeffs[j]
            expect = np.zeros(h.order + 1)
            expect[j] = xj
            got = np.zeros(h.order + 1)
            c = per_var[i].coeffs
            got[: len(c)] = c
            dev = np.max(np.abs(got - expect)) / max(1.0, abs(xj))
            worst = max(worst, dev)
    return worst <= tol, worst


def series_eval(s: TruncatedSeries, t):
    """Horner evaluation of the partial sum at scalar or array t."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t) + s.coeffs[-1]
    for c in s.coeffs[-2::-1]:
        acc = acc * t + c
    return float(acc) if acc.ndim == 0 else acc


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line y = intercept + slope * x."""
    slope, intercept = np.polyfit(x, y, 1)
    return float(intercept), float(slope)


def radius_estimate(s: TruncatedSeries, method: str = "ratio") -> RadiusEstimate:
    """Estimate the distance from t = 0 to the nearest singularity.

    ratio:  Domb-Sykes style.  Ratios between consecutive non-negligible
            coefficients (gap-corrected as a geometric mean when zeros
            intervene) are fit against 1/j and extrapolated to j -> inf;
            the radius is the reciprocal of the limit ratio.
    root:   Cauchy-Hadamard style.  ln|c_j| is fit against j over the top
            half of orders; the radius is exp(-slope).

    A tail of structural zeros means the solution is a polynomial, which
    is entire: the radius is +inf.  Too few usable coefficients raise
    InsufficientOrderError.
    """
    c = np.abs(np.asarray(s.coeffs, dtype=float))
    K = len(c) - 1

    if method == "ratio":
        usable = np.flatnonzero(c > _ZERO_SKIP)
        if usable.size == 0 or usable[-1] <= max(0, (K + 1) // 2 - 1):
            # nothing but zeros in the top half: polynomial solution
            return RadiusEstimate(np.inf, "ratio", c)
        if usable.size < 4:
            raise InsufficientOrderError(
                f"ratio estimate needs >= 4 nonzero coefficients, found {usable.size}"
            )
        ratios = []
        absc = []
        # overflowed tails produce inf/inf here; the non-finite check below
        # turns that into a collapsed estimate instead of a warning
        with np.errstate(invalid="ignore", over="ignore"):
            for lo, hi in zip(usable[:-1], usable[1:]):
                gap = hi - lo
                ratios.append((c[hi] / c[lo]) ** (1.0 / gap))
                absc.append(1.0 / hi)
        ratios_arr = np.array(ratios[-5:])
        absc_arr = np.array(absc[-5:])
        if not np.all(np.isfinite(ratios_arr)):
            # overflowed coefficients: report collapse of the estimate
            return RadiusEstimate(0.0, "ratio", ratios_arr)
        if len(ratios_arr) >= 2:
            limit, _ = _linear_fit(absc_arr, ratios_arr)
        else:
            limit = float(ratios_arr[0])
        value = np.inf if limit <= 0.0 else 1.0 / limit
        return RadiusEstimate(float(value), "ratio", ratios_arr)

    if method == "root":
        if K < 8:
            raise InsufficientOrderError(f"root estimate needs order >= 8, got {K}")
        top = np.arange((K + 1) // 2, K + 1)
        keep = top[c[top] > _ZERO_SKIP]
        if keep.size == 0:
            return RadiusEstimate(np.inf, "root", c)
        if keep.size < 2:
            raise InsufficientOrderError(
                "root estimate needs >= 2 usable coefficients in the top half"
            )
        logs = np.log(c[keep])
        if not np.all(np.isfinite(logs)):
            return RadiusEstimate(0.0, "root", logs)
        _, slope = _linear_fit(keep.astype(float), logs)
        return RadiusEstimate(float(np.exp(-slope)), "root", logs)

    raise ValueError(f"unknown method {method!r}; expected 'ratio' or 'root'")
