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


def series_mul(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Cauchy product truncated at ``order``."""
    full = np.convolve(a.coeffs, b.coeffs)
    out = np.zeros(order + 1)
    m = min(order + 1, len(full))
    out[:m] = full[:m]
    return TruncatedSeries(out)


def _mul_arr(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    full = np.convolve(a, b)
    out = np.zeros(order + 1)
    m = min(order + 1, len(full))
    out[:m] = full[:m]
    return out


def _poly_apply_arrays(p: Polynomial, var_arrays: list[np.ndarray], order: int) -> np.ndarray:
    """p composed with per-variable coefficient arrays, truncated at ``order``.

    Powers of each variable series are cached and reused across terms.
    """
    one = np.zeros(order + 1)
    one[0] = 1.0
    pow_cache: dict[int, list[np.ndarray]] = {i: [one] for i in range(len(var_arrays))}

    def power(i: int, e: int) -> np.ndarray:
        cache = pow_cache[i]
        while len(cache) <= e:
            cache.append(_mul_arr(cache[-1], var_arrays[i], order))
        return cache[e]

    out = np.zeros(order + 1)
    for mono, c in p.terms.items():
        term = one
        for i, e in enumerate(mono.exponents):
            if e:
                term = _mul_arr(term, power(i, e), order)
        out += c * term
    return out


def poly_apply_series(p: Polynomial, variables, order: int) -> TruncatedSeries:
    """Compose a polynomial with per-variable series: p(x_1(t), ..., x_n(t)),
    truncated at ``order``."""
    if p.dimension != len(variables):
        raise DimensionError(
            f"polynomial has {p.dimension} variables, got {len(variables)} series"
        )
    arrays = [np.asarray(v.coeffs, dtype=float) for v in variables]
    return TruncatedSeries(_poly_apply_arrays(p, arrays, order))


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
            for i, p in enumerate(ivp.field.components):
                fj = _poly_apply_arrays(p, [coeffs[v, : j + 1] for v in range(n)], j)
                coeffs[i, j + 1] = fj[j] / (j + 1)
            if overflow is None and not np.all(np.isfinite(coeffs[:, j + 1])):
                overflow = j + 1
    return TaylorSolution(
        series=tuple(TruncatedSeries(coeffs[i]) for i in range(n)),
        ivp=ivp,
        overflow_order=overflow,
    )


# -- bivariate helpers for the perturbation route ---------------------------
#
# x(lam, t) is carried as an array X[var, lam_order, t_power].  Products are
# exact 2-D truncated polynomial products, done as one 1-D convolution of a
# strided flattening (t-degrees can never collide across lam rows because the
# stride exceeds twice the t truncation order).

def _bimul(a: np.ndarray, b: np.ndarray, lam_max: int, t_max: int) -> np.ndarray:
    la, ta = a.shape
    lb, tb = b.shape
    stride = 2 * t_max + 1
    fa = np.zeros(la * stride)
    fb = np.zeros(lb * stride)
    for p in range(la):
        fa[p * stride: p * stride + ta] = a[p]
    for q in range(lb):
        fb[q * stride: q * stride + tb] = b[q]
    flat = np.convolve(fa, fb)
    out = np.zeros((lam_max + 1, t_max + 1))
    rows = min(lam_max + 1, la + lb - 1)
    for r in range(rows):
        seg = flat[r * stride: r * stride + t_max + 1]
        out[r, : len(seg)] = seg
    return out


def _poly_apply_bivariate(p: Polynomial, var_grids: list[np.ndarray],
                          lam_max: int, t_max: int) -> np.ndarray:
    one = np.zeros((lam_max + 1, t_max + 1))
    one[0, 0] = 1.0
    pow_cache: dict[int, list[np.ndarray]] = {i: [one] for i in range(len(var_grids))}

    def power(i: int, e: int) -> np.ndarray:
        cache = pow_cache[i]
        while len(cache) <= e:
            cache.append(_bimul(cache[-1], var_grids[i], lam_max, t_max))
        return cache[e]

    out = np.zeros((lam_max + 1, t_max + 1))
    for mono, c in p.terms.items():
        term = one
        for i, e in enumerate(mono.exponents):
            if e:
                term = _bimul(term, power(i, e), lam_max, t_max)
        out += c * term
    return out


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
    # X[var, lam_order, t_power]
    X = np.zeros((n, K + 1, K + 1))
    X[:, 0, 0] = ivp.x0
    for j in range(1, K + 1):
        rhs = [
            _poly_apply_bivariate(p, [X[v, :j, :] for v in range(n)], j - 1, K)
            for p in ivp.field.components
        ]
        for i in range(n):
            g = rhs[i][j - 1]  # d/dt of correction j, a series in t
            X[i, j, 1:] = g[:-1] / np.arange(1, K + 1)
    corrections = tuple(
        tuple(TruncatedSeries(X[i, j, :]) for i in range(n)) for j in range(K + 1)
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
