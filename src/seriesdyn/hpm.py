"""The perturbation (HPM) route, and truncated products of series.

:func:`hpm_solve` runs the order-by-order perturbation recursion for the
embedded family dx/dt = lam * f(x), collecting powers of the dummy
parameter lam and integrating each correction from x^(j)(0) = 0.
:func:`hpm_collapse_check` verifies numerically that the corrections
collapse onto single Taylor monomials, i.e. that this route and
:func:`seriesdyn.series.taylor_solve` agree order by order.
:func:`series_mul` and :func:`poly_apply_series` compose series with
truncated Cauchy products, apart from both routes' generated code.

The route logs under ``seriesdyn.hpm``.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from .errors import DEBUG, DimensionError, logger, record
from .model import InitialValueProblem, Polynomial, _check_count, _hold, _sum_lines
from .series import TaylorSolution, TruncatedSeries, _first_overflow


@record(eq=False)
class HpmExpansion:
    """Perturbation corrections x^(j)(t), each a polynomial in t of degree <= j.

    ``G[j, i, m]`` is the t^m coefficient of the order-j correction of
    variable i on the common (K+1, n, K+1) grid: the one array an
    expansion stores, a read-only copy of the input, so no later write to
    the caller's array reaches it.  Any other shape raises DimensionError.
    The dummy expansion parameter is represented only by the index j; it
    is set to one when summing.  ``corrections[j][i]`` is row G[j, i] as a
    length-(K+1) TruncatedSeries, built on first read and then kept.  Like
    every result object that holds an array, an expansion compares and
    hashes by identity.
    """

    G: np.ndarray

    def __post_init__(self):
        G = _hold(self, "G", self.G)
        if G.ndim != 3 or len(G) == 0 or len(G) != G.shape[2]:
            raise DimensionError(f"the grid must have shape (K+1, n, K+1), not {G.shape}")

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
    _check_count(order, "order", 0)
    return TruncatedSeries(_mul(a.coeffs, b.coeffs, order))


def poly_apply_series(p: Polynomial, variables, order: int) -> TruncatedSeries:
    """Compose a polynomial with per-variable series: p(x_1(t), ..., x_n(t)),
    truncated at ``order``."""
    _check_count(order, "order", 0)
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


# -- the perturbation route -------------------------------------------------------

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
    generated once per field shape (see ``_hpm_source``).  The result
    copies the variables' rows of its work array, transposed, once into
    its grid G; no correction becomes a TruncatedSeries until
    ``corrections`` is read.
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
    if log := logger(__name__, DEBUG):  # the overflow scan only for the log
        log.debug("hpm_solve: order %d, %d graph nodes, overflow_order %s", K,
                  len(X), _first_overflow(np.isfinite(X[:n, 1:]).all(axis=(0, 2))))
    return HpmExpansion(X[:n].transpose(1, 0, 2))  # G[j, i, m] = X[i, j, m]


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
