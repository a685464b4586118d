"""Truncated time-power-series machinery: the direct Taylor route.

:func:`taylor_solve` expands the solution of dx/dt = f(x) about t = 0 by
the coefficient recursion (j+1) x_{j+1} = [t^j] f(x(t)).
:func:`series_eval` sums the partial series, and :func:`radius_estimate`
bounds where those partial sums can possibly be useful.  The
perturbation (HPM) route, which must collapse onto the same series, is
:mod:`seriesdyn.hpm`; no command runs it, so a command never loads it.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .errors import DEBUG, InsufficientOrderError, logger, record
from .model import InitialValueProblem, _check_count, _hold, _sum_lines

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
        c = _hold(self, "coeffs", self.coeffs)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-D sequence")

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
class RadiusEstimate:
    """Convergence-radius estimate plus the per-order sequence behind it,
    held as a read-only copy; it compares and hashes by identity."""

    value: float
    method: str
    diagnostics: np.ndarray

    def __post_init__(self):
        _hold(self, "diagnostics", self.diagnostics)


# -- the Taylor route ------------------------------------------------------------
#
# Both series routes (this one and hpm_solve) and poly_apply_series walk the
# program a field (or polynomial) built on first use (model._compile),
# multiplying the operands of every node, a power x_i^e as
# x_i^ceil(e/2) * x_i^floor(e/2), as eval_field does: coefficient 1 is f(x0)
# bit for bit.  A node depends only on earlier nodes, so each yields one new
# coefficient per order (Taylor mode).

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
    if log := logger(__name__, DEBUG):
        log.debug("taylor_solve: order %d, %d graph nodes, overflow_order %s",
                  order, n + len(program[0]), overflow_order)
    return TaylorSolution(
        series=tuple(TruncatedSeries(C[i]) for i in range(n)),
        ivp=ivp,
        overflow_order=overflow_order,
    )


def series_eval(s: TruncatedSeries, t):
    """Horner evaluation of the partial sum at scalar or array t."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros_like(t) + s.coeffs[-1]
    for c in s.coeffs[-2::-1]:
        acc *= t
        acc += c
    return float(acc) if acc.ndim == 0 else acc


def _total(values) -> float:
    """The sum of floats added left to right from 0.0, the same bits on
    every Python: the builtin ``sum`` compensates its rounding from 3.12 on."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _line(xs: list, ys: list) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through the points
    (xs[i], ys[i]), in closed form on Python floats summed by ``_total``,
    so no BLAS or LAPACK kernel and no Python version chooses the digits.
    The xs must not all be equal."""
    xm = _total(xs) / len(xs)
    ym = _total(ys) / len(ys)
    slope = (_total((x - xm) * (y - ym) for x, y in zip(xs, ys))
             / _total((x - xm) * (x - xm) for x in xs))
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
