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

import logging
import math
from functools import cached_property, lru_cache
from itertools import groupby

import numpy as np

from .errors import DimensionError, InsufficientOrderError, record
from .model import InitialValueProblem, Polynomial, _check_count, _sum_lines

logger = logging.getLogger("seriesdyn.series")

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


@record(eq=False)
class TruncatedSeries:
    """Coefficients c_0..c_K of a power series in t, truncated at order K.

    The coefficients are a read-only copy of the input.  Like every result
    object that holds an array, a series compares and hashes by identity.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float, ndmin=1)  # always a copy
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")
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


@record(eq=False)
class TaylorSolution:
    """Per-variable series x_i(t) = sum_j c_{i,j} t^j for one problem.

    ``overflow_order`` is the first order at which any coefficient became
    non-finite (None when all coefficients are finite); overflow is a
    diagnostic, not an error.  A solution compares and hashes by identity.
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


@record(eq=False)
class HpmExpansion:
    """Perturbation corrections x^(j)(t), each a polynomial in t of degree <= j.

    ``G[j, i, m]`` is the t^m coefficient of the order-j correction of
    variable i on the common (K+1, n, K+1) grid, read-only: the one array
    an expansion stores.  A writable ``G`` is copied, a read-only one kept
    as given, and any other shape raises DimensionError.  The dummy
    expansion parameter is represented only by the index j; it is set to
    one when summing.  ``corrections[j][i]`` is row G[j, i] as a
    length-(K+1) TruncatedSeries, built on first read and then kept.  Like
    every result object that holds an array, an expansion compares and
    hashes by identity.
    """

    G: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        if G.ndim != 3 or len(G) == 0 or len(G) != G.shape[2]:
            raise DimensionError(f"the grid must have shape (K+1, n, K+1), not {G.shape}")
        if G.flags.writeable:
            G = G.copy()
            G.flags.writeable = False
        object.__setattr__(self, "G", G)

    @classmethod
    def from_corrections(cls, corrections) -> "HpmExpansion":
        """The expansion whose ``corrections[j][i]`` is the order-j
        correction of variable i.  Every order must hold the same number of
        variables, and no correction more than K+1 coefficients
        (DimensionError); a shorter one is read as zero-padded."""
        if not corrections:
            raise DimensionError("an expansion needs at least the zeroth correction")
        n = len(corrections[0])
        grid = len(corrections)
        G = np.zeros((grid, n, grid))
        for j, per_var in enumerate(corrections):
            if len(per_var) != n:
                raise DimensionError(
                    f"correction {j} has {len(per_var)} variables, correction 0 has {n}")
            for i, s in enumerate(per_var):
                if len(s.coeffs) > grid:
                    raise DimensionError(
                        f"correction {j} of variable {i} has {len(s.coeffs)} "
                        f"coefficients, more than the {grid} of order {grid - 1}")
                G[j, i, : len(s.coeffs)] = s.coeffs
        G.flags.writeable = False
        return cls(G)

    @cached_property
    def corrections(self) -> tuple[tuple[TruncatedSeries, ...], ...]:
        return tuple(tuple(TruncatedSeries(row) for row in per_var) for per_var in self.G)

    @property
    def order(self) -> int:
        return len(self.G) - 1

    @property
    def dimension(self) -> int:
        return self.G.shape[1]

    def summed(self) -> tuple[TruncatedSeries, ...]:
        """Sum of all corrections (the expansion parameter set to one)."""
        return tuple(TruncatedSeries(c) for c in self.G.sum(axis=0))


@record(eq=False)
class RadiusEstimate:
    """Convergence-radius estimate plus the per-order sequence behind it;
    it compares and hashes by identity."""

    value: float
    method: str
    diagnostics: np.ndarray


# -- truncated products ---------------------------------------------------------

def _mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Cauchy product of two coefficient arrays, truncated at ``order``."""
    full = np.convolve(a, b)
    out = np.zeros(order + 1)
    m = min(len(out), len(full))
    out[:m] = full[:m]
    return out


def series_mul(a: TruncatedSeries, b: TruncatedSeries, order: int) -> TruncatedSeries:
    """Cauchy product truncated at ``order``."""
    return TruncatedSeries(_mul(a.coeffs, b.coeffs, order))


def poly_apply_series(p: Polynomial, variables, order: int) -> TruncatedSeries:
    """Compose a polynomial with per-variable series: p(x_1(t), ..., x_n(t)),
    truncated at ``order``."""
    if p.dimension != len(variables):
        raise DimensionError(
            f"polynomial has {p.dimension} variables, got {len(variables)} series"
        )
    products, ((constant, terms),) = p._program
    # one truncated product per node of p's product graph
    nodes = [_mul(v.coeffs, [1.0], order) for v in variables]  # cut or padded
    for a, b in products:
        nodes.append(_mul(nodes[a], nodes[b], order))
    out = np.zeros(order + 1)
    out[0] = constant
    for c, k in terms:
        out += c * nodes[k]
    return TruncatedSeries(out)


# -- the series routes -----------------------------------------------------------
#
# Both routes and poly_apply_series walk the program a field (or polynomial)
# built on first use (model._compile), multiplying the operands of every
# node, a power x_i^e as x_i^ceil(e/2) * x_i^floor(e/2), as eval_field
# does: coefficient 1 is f(x0) bit for bit.  A node depends only on
# earlier nodes, so each yields one new coefficient per order (Taylor mode).

def _first_overflow(finite: np.ndarray) -> int | None:
    """The first order whose coefficients are not all finite, from the
    per-order flags of orders 1..K, or None."""
    return None if finite.all() else int(np.argmin(finite)) + 1


def _taylor_source(shape) -> list[str]:
    """The body of the Taylor recursion's factory for a field of this shape
    (see ``model._factory``).

    ``taylor(x0, order)`` returns the work array S[row, j] whose first n
    rows are the variables' coefficients 0..order.  It is one loop over
    the orders j, with one line per level of the product graph (a
    variable is level 0, a product one more than its operands' larger
    level), each yielding the order-j coefficients of all of the level's
    nodes, and the field's term sums (see ``model._sum_lines``, the
    constant only at j = 0) into w{i}, from which every variable's
    order-(j + 1) coefficient is stored after all components have read
    order j.

    A level's nodes, ordered by their operands, take one call
    ``vecdot(S[a0:a0 + m, :j + 1], S[b0:b0 + m, j::-1]).tolist()``: row
    i of the first block holds the first operand of node i, row i of the
    second its second operand.  A block is the variables' own rows when
    its operands are consecutive variables, and otherwise m slot rows of
    its own, into which every operand's coefficient is also written as
    it is made, so S has at most n + 2P rows for P products.  The second
    block has a negative stride, so numpy runs its own dot loop, not
    BLAS: ``s = 0; s += a[i] * b[i]`` for i = 0..j, left to right.  The
    term sums run on the Python floats of ``tolist``, the same IEEE
    operations.
    """
    n, products, components = shape
    level = [0] * n
    for a, b in products:
        level.append(1 + max(level[a], level[b]))
    rows = n
    copies = {k: [] for k in range(len(level))}  # node -> its slot rows
    calls = []
    for _, group in groupby(sorted(range(n, len(level)),
                                   key=lambda k: (level[k], products[k - n])),
                            key=level.__getitem__):
        nodes = list(group)
        starts = []
        for operands in zip(*(products[k - n] for k in nodes)):
            if operands[-1] < n and operands == tuple(range(operands[0], operands[-1] + 1)):
                starts.append(operands[0])
            else:
                starts.append(rows)
                for k in operands:
                    copies[k].append(rows)
                    rows += 1
        a0, b0 = starts
        m = len(nodes)
        calls.append((nodes, f"vecdot(S[{a0}:{a0 + m}, :j + 1], S[{b0}:{b0 + m}, j::-1])"))

    def store(k, column):
        return "".join(f"r{row}[{column}] = " for row in copies[k])

    return ["from numpy import vecdot, zeros",
            "def taylor(x0, order):",
            f"    S = zeros(({rows}, order + 1))",
            f"    S[:{n}, 0] = x0",
            "    " + "".join(f"r{row}, " for row in range(rows)) + "= S",
            "    " + "".join(f"v{i}, " for i in range(n)) + f"= S[:{n}, 0].tolist()",
            *(f"    {store(i, 0)}v{i}" for i in range(n) if copies[i]),
            "    for j in range(order):",
            *(line for nodes, call in calls for line in (
                "        " + "".join(f"v{k}, " for k in nodes) + f"= {call}.tolist()",
                *(f"        {store(k, 'j')}v{k}" for k in nodes if copies[k]))),
            *("        " + line for line in _sum_lines(
                components, [f"w{i}" for i in range(n)], "k{} if j == 0 else 0.0")),
            *(f"        v{i} = r{i}[j + 1] = {store(i, 'j + 1')}w{i} / (j + 1)"
              for i in range(n)),
            "    return S",
            "return taylor"]


def taylor_solve(ivp: InitialValueProblem, order: int) -> TaylorSolution:
    """Expansion of the solution about t = 0 via the direct recursion.

    Coefficient j+1 of every variable is the t^j coefficient of f applied
    to the partial series known so far, divided by j+1.  For polynomial f
    these are the exact Taylor coefficients of the true solution.  Each
    product node of the field's graph yields its t^j coefficient as one
    length-(j+1) dot product, so the cost is O(K^2) per node; the nodes
    of one level of the graph share one numpy call per order.  The loop
    is generated once per field shape (see ``_taylor_source``).
    """
    _check_count(order, "order")
    n = ivp.dimension
    program = ivp.field._program
    # overflow is reported through overflow_order, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        C = program.bound(_taylor_source)(ivp.x0, order)[:n]
    overflow_order = _first_overflow(np.isfinite(C[:, 1:]).all(axis=0))
    logger.debug("taylor_solve: order %d, %d graph nodes, overflow_order %s",
                 order, n + len(program[0]), overflow_order)
    return TaylorSolution(
        series=tuple(TruncatedSeries(C[i]) for i in range(n)),
        ivp=ivp,
        overflow_order=overflow_order,
    )


def _hpm_source(shape) -> list[str]:
    """The body of the perturbation recursion's factory for a field of this
    shape (see ``model._factory``).

    ``hpm(X, orders)`` fills X[node, lam_power, t_power], given X zero but
    for the variables' x0 at [i, 0, 0], for the steps (j, d, divisor) in
    ``orders`` (see ``_hpm_step``).  It unpacks the node views r{k} = X[k]
    once, and binds the transposed view A{a} of every first operand before
    the loop.  Step j computes row r = j - 1 of every product node in node
    order, ``bincount(d, (A{a}[:j, :j] @ r{b}[r::-1, :j]).ravel())[:j]``:
    entry (k, l) of the matrix product is the sum over q of
    A_q[k] * B_(r-q)[l], a term of t-power k + l, and the bincount sums
    each anti-diagonal left to right.  The reversed operand has a negative
    stride, so ``@`` runs numpy's own loop, not BLAS.  A product's row is
    stored in X only where the node is an operand.  Then come the field's
    term sums on those rows (see ``model._sum_lines``, the constant only at
    j = 1), the t-derivative of correction j, whose integral from 0 is
    stored as every variable's row j.
    """
    n, products, components = shape
    operands = {k for product in products for k in product}
    terms = {k for nodes in components for k in nodes}
    return ["from numpy import bincount",
            "def hpm(X, orders):",
            "    " + "".join(f"r{k}, " for k in range(n + len(products))) + "= X",
            *(f"    A{a} = r{a}.T" for a in sorted({a for a, b in products})),
            "    for j, d, divisor in orders:",
            "        r = j - 1",
            *(f"        v{i} = r{i}[r, :j]" for i in range(n) if i in terms),
            *(f"        v{k} = {f'r{k}[r, :j] = ' if k in operands else ''}"
              f"bincount(d, (A{a}[:j, :j] @ r{b}[r::-1, :j]).ravel())[:j]"
              for k, (a, b) in enumerate(products, start=n)),
            *("        " + line for line in _sum_lines(
                components, [f"w{i}" for i in range(n)], "k{} if j == 1 else 0.0")),
            *(f"        r{i}[j, 1:j + 1] = w{i} / divisor" for i in range(n)),
            "    return X",
            "return hpm"]


@lru_cache(maxsize=64)
def _hpm_step(j: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Step j of the perturbation recursion as ``(j, d, divisor)``: d[k * j
    + l] = k + l, the t-power of entry (k, l) of a step-j product, and the
    divisors 1..j that integrate the t-powers 0..j-1; read-only, since
    every call shares them.  The 64 most recently used steps are kept:
    0.7 MB while no order exceeds 64."""
    d = np.add.outer(np.arange(j), np.arange(j)).ravel()
    divisor = np.arange(1.0, j + 1)
    d.flags.writeable = divisor.flags.writeable = False
    return j, d, divisor


def hpm_solve(ivp: InitialValueProblem, order: int) -> HpmExpansion:
    """Literal order-by-order perturbation recursion for dx/dt = lam f(x).

    The zeroth correction is the constant x0.  For j >= 1 the t-derivative
    of x^(j) equals the lam^(j-1) coefficient of f applied to the expansion
    built so far, and x^(j) is its integral from 0 (so x^(j)(0) = 0).  Each
    correction comes out a polynomial in t of degree <= j.

    The recursion runs over the same product graph as :func:`taylor_solve`
    but graded by powers of lam: every node keeps one t-polynomial per lam
    power, and step j computes only row j-1 of each product, the sum over q
    of A_q * B_(j-1-q).  That costs O(j^3) per node, O(K^4) in all.  It
    reads no Taylor coefficient and never assumes a correction is a
    monomial, so the collapse check compares two routes.  The loop is
    generated once per field shape (see ``_hpm_source``).  The variables'
    rows of its work array, copied once, are the result's read-only grid
    G; no correction becomes a TruncatedSeries until ``corrections`` is
    read.
    """
    _check_count(order, "order")
    n = ivp.dimension
    K = order
    program = ivp.field._program
    # X[node, lam_power, t_power]; row p is a polynomial in t of degree <= p
    X = np.zeros((n + len(program[0]), K + 1, K + 1))
    X[:n, 0, 0] = ivp.x0
    # corrections that overflow stay inf/nan, without numpy warnings, as in
    # taylor_solve
    with np.errstate(over="ignore", invalid="ignore"):
        program.bound(_hpm_source)(X, [_hpm_step(j) for j in range(1, K + 1)])
    if logger.isEnabledFor(logging.DEBUG):  # the overflow scan only for the log
        logger.debug("hpm_solve: order %d, %d graph nodes, overflow_order %s", K,
                     len(X), _first_overflow(np.isfinite(X[:n, 1:]).all(axis=(0, 2))))
    G = X[:n].transpose(1, 0, 2).copy()  # G[j, i, m] = X[i, j, m]
    G.flags.writeable = False
    return HpmExpansion(G)


def hpm_collapse_check(h: HpmExpansion, t: TaylorSolution,
                       tol: float) -> tuple[bool, float]:
    """Check that correction j is exactly the Taylor monomial x_j t^j.

    For every order j and variable i, all t^m coefficients with m != j must
    vanish and the t^j coefficient must equal the Taylor coefficient x_j,
    within ``tol`` relative to |x_j|, floored at the smallest normal float,
    so a small coefficient is judged at its own scale.  Returns (passed,
    worst normalized deviation); an overflowed expansion, with any compared
    coefficient non-finite, fails with deviation inf, and so does a
    deviation too large to scale.
    """
    if h.dimension != t.dimension:
        raise DimensionError("expansion and series have different dimensions")
    if h.order != t.order:
        raise DimensionError("expansion and series have different orders")
    G = h.G.copy()
    X = np.array([s.coeffs for s in t.series]).T  # X[j, i] = x_j of variable i
    # a non-finite coefficient makes its deviation inf or nan
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = np.arange(h.order + 1)
        G[diagonal, :, diagonal] -= X
        scale = np.maximum(np.finfo(float).tiny, np.abs(X))
        worst = float(np.max(np.max(np.abs(G), axis=2) / scale))
    if not math.isfinite(worst):
        return False, math.inf
    return bool(worst <= tol), worst


def series_eval(s: TruncatedSeries, t):
    """Horner evaluation of the partial sum at scalar or array t."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t) + s.coeffs[-1]
    for c in s.coeffs[-2::-1]:
        acc *= t
        acc += c
    return float(acc) if acc.ndim == 0 else acc


def _line(xs: list, ys: list) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through the points
    (xs[i], ys[i]), in closed form on Python floats, so no BLAS or LAPACK
    kernel chooses the digits.  The xs must not all be equal."""
    xm = sum(xs) / len(xs)
    ym = sum(ys) / len(ys)
    slope = (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
             / sum((x - xm) * (x - xm) for x in xs))
    return slope, ym - slope * xm


def radius_estimate(s: TruncatedSeries, method: str = "ratio") -> RadiusEstimate:
    """Estimate the distance from t = 0 to the nearest singularity.

    ratio:  Domb-Sykes style.  Ratios between consecutive non-negligible
            coefficients (gap-corrected as a geometric mean when zeros
            intervene) are fit against 1/j and extrapolated to j -> inf;
            the radius is the reciprocal of the limit ratio.
    root:   Cauchy-Hadamard style.  ln|c_j| is fit against j over the top
            half of orders; the radius is exp(-slope).

    A tail of structural zeros means the solution is a polynomial, which
    is entire: the radius is +inf.  An overflowed tail (inf or NaN
    coefficients) reports the collapse value 0.0.  Too few usable
    coefficients raise InsufficientOrderError.
    """
    c = np.abs(np.asarray(s.coeffs, dtype=float))
    K = len(c) - 1

    # nothing but zeros in the top half: a polynomial solution, entire;
    # an overflowed NaN coefficient counts as nonzero (NaN > skip is false)
    nonzero = ~(c <= _ZERO_SKIP)
    polynomial = not np.any(nonzero[max(1, (K + 1) // 2):])

    if method == "ratio":
        if polynomial:
            return RadiusEstimate(np.inf, "ratio", c)
        usable = np.flatnonzero(nonzero)
        if usable.size < 4:
            raise InsufficientOrderError(
                f"ratio estimate needs >= 4 nonzero coefficients, found {usable.size}"
            )
        last = usable[-6:]  # the last five gaps
        lo, hi = last[:-1], last[1:]
        # overflowed tails produce inf/inf here; the non-finite check below
        # turns that into a collapsed estimate instead of a warning
        with np.errstate(invalid="ignore", over="ignore"):
            ratios = np.float_power(c[hi] / c[lo], 1.0 / (hi - lo))
        if not np.all(np.isfinite(ratios)):
            # overflowed coefficients: report collapse of the estimate
            return RadiusEstimate(0.0, "ratio", ratios)
        _, limit = _line((1.0 / hi).tolist(), ratios.tolist())
        value = np.inf if limit <= 0.0 else 1.0 / limit
        return RadiusEstimate(float(value), "ratio", ratios)

    if method == "root":
        if K < 8:
            raise InsufficientOrderError(f"root estimate needs order >= 8, got {K}")
        if polynomial:
            return RadiusEstimate(np.inf, "root", c)
        top = np.arange((K + 1) // 2, K + 1)
        keep = top[nonzero[top]]
        if keep.size < 2:
            raise InsufficientOrderError(
                "root estimate needs >= 2 usable coefficients in the top half"
            )
        logs = np.log(c[keep])
        if not np.all(np.isfinite(logs)):
            return RadiusEstimate(0.0, "root", logs)
        slope, _ = _line(keep.tolist(), logs.tolist())
        return RadiusEstimate(float(np.exp(-slope)), "root", logs)

    raise ValueError(f"unknown method {method!r}; expected 'ratio' or 'root'")
