"""Autonomous polynomial ODE systems and the three built-in population models.

A system is ``dx/dt = f(x)`` with ``x(0) = x0`` where every component of
``f`` is a sparse multivariate polynomial.  Everything here is immutable
and purely functional, so instances can be shared freely.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError

logger = logging.getLogger("seriesdyn.model")

__all__ = [
    "Monomial",
    "Polynomial",
    "PolyVectorField",
    "InitialValueProblem",
    "Logistic",
    "TwoSpecies",
    "Spiral",
    "ModelPreset",
    "eval_field",
    "field_jacobian",
    "preset_ivp",
]


@dataclass(frozen=True)
class Monomial:
    """Product of variable powers, e.g. exponents (2, 1) is x^2 y."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def dimension(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __call__(self, x) -> float:
        v = 1.0
        for xi, e in zip(x, self.exponents):
            if e:
                v *= xi ** e
        return v


@dataclass(frozen=True)
class Polynomial:
    """Sparse real polynomial in n variables: map from Monomial to coefficient.

    Zero coefficients are dropped and terms are kept in a canonical
    (sorted) order so that evaluation is bit-reproducible no matter how
    the polynomial was assembled.
    """

    terms: dict[Monomial, float]
    dimension: int

    def __post_init__(self):
        acc: dict[Monomial, float] = {}
        for mono, c in self.terms.items():
            if not isinstance(mono, Monomial):
                mono = Monomial(tuple(mono))
            if mono.dimension != self.dimension:
                raise DimensionError(
                    f"monomial {mono.exponents} has {mono.dimension} variables, "
                    f"polynomial has {self.dimension}"
                )
            acc[mono] = acc.get(mono, 0.0) + float(c)
        clean = {m: c for m, c in sorted(acc.items(), key=lambda kv: kv[0].exponents)
                 if c != 0.0}
        object.__setattr__(self, "terms", clean)

    @property
    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    @cached_property
    def _plan(self) -> tuple[tuple[float, tuple[tuple[int, int], ...]], ...]:
        """Evaluation plan, built once: per term in canonical order, its
        coefficient and its (variable, exponent) pairs with exponent > 0."""
        return tuple((c, tuple((i, e) for i, e in enumerate(m.exponents) if e))
                     for m, c in self.terms.items())

    def __call__(self, x) -> float:
        if len(x) != self.dimension:
            raise DimensionError(
                f"state has length {len(x)}, polynomial has {self.dimension} variables"
            )
        return _evaluate(self._plan, np.asarray(x, dtype=float).tolist())

    def diff(self, var: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``var``."""
        out: dict[Monomial, float] = {}
        for mono, c in self.terms.items():
            e = mono.exponents[var]
            if e == 0:
                continue
            lowered = list(mono.exponents)
            lowered[var] = e - 1
            key = Monomial(tuple(lowered))
            out[key] = out.get(key, 0.0) + c * e
        return Polynomial(out, self.dimension)

    @staticmethod
    def from_coeffs(coeffs: dict[tuple[int, ...], float], dimension: int) -> "Polynomial":
        return Polynomial({Monomial(k): v for k, v in coeffs.items()}, dimension)


@dataclass(frozen=True)
class PolyVectorField:
    """Right-hand side f(x) of an autonomous system dx/dt = f(x)."""

    components: tuple[Polynomial, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise DimensionError("field needs at least one component")
        n = comps[0].dimension
        if any(p.dimension != n for p in comps):
            raise DimensionError("all components must share the same dimension")
        if len(comps) != n:
            raise DimensionError(
                f"{len(comps)} components but polynomials in {n} variables"
            )
        object.__setattr__(self, "components", comps)

    @property
    def dimension(self) -> int:
        return len(self.components)

    @cached_property
    def _plans(self) -> tuple:
        """Each component's evaluation plan, bound once for every later
        evaluation of f."""
        return tuple(p._plan for p in self.components)

    @cached_property
    def _jacobian(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Exact Jacobian, entry (i, j) the polynomial d f_i / d x_j, built
        on first use and kept for every later Newton step."""
        n = self.dimension
        return tuple(tuple(p.diff(j) for j in range(n)) for p in self.components)

    def __call__(self, x) -> np.ndarray:
        return eval_field(self, x)


@dataclass(frozen=True)
class InitialValueProblem:
    """A polynomial field together with the initial state x(0)."""

    field: PolyVectorField
    x0: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.field.dimension,):
            raise DimensionError(
                f"x0 has shape {x0.shape}, field dimension is {self.field.dimension}"
            )
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be finite, got {x0.tolist()}")
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)

    @property
    def dimension(self) -> int:
        return self.field.dimension


def _evaluate(plan, xs: list[float]) -> float:
    """Sum over a polynomial's terms, left to right, of coefficient times
    the product of variable powers.

    ``xs`` holds Python floats, whose ``**`` gives the same bits as numpy
    float64 scalars.  Where a power overflows Python raises instead of
    returning inf, so the terms are evaluated again on numpy scalars,
    whose overflow gives ±inf (or nan from inf - inf) without a warning.
    """
    try:
        total = 0.0
        for c, powers in plan:
            v = 1.0
            for i, e in powers:
                v *= xs[i] ** e
            total += c * v
        return total
    except OverflowError:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(_evaluate(plan, [np.float64(v) for v in xs]))


def _evaluate_rows(plans, xs: np.ndarray) -> np.ndarray:
    """``_evaluate`` of every plan on every row of ``xs`` (shape (B, n)),
    as an array of shape (len(plans), B), bit for bit.

    Each power is computed once per call with ``np.float_power``, which
    calls the C library's ``pow`` as Python's float ``**`` does (numpy's
    ``np.power`` may use a SIMD power with other last bits).  Products
    and sums run in ``_evaluate``'s order.  Overflow gives ±inf; callers
    silence the warning with ``np.errstate``.
    """
    powers: dict[tuple[int, int], np.ndarray] = {}
    out = np.empty((len(plans), len(xs)))
    for k, plan in enumerate(plans):
        total = np.zeros(len(xs))
        for c, factors in plan:
            v = 1.0
            for i, e in factors:
                if (i, e) not in powers:
                    powers[i, e] = np.float_power(xs[:, i], e)
                v = v * powers[i, e]
            total += c * v
        out[k] = total
    return out


def _state(field: PolyVectorField, x) -> list[float]:
    x = np.asarray(x, dtype=float)
    if x.shape != (field.dimension,):
        raise DimensionError(
            f"state has shape {x.shape}, field dimension is {field.dimension}"
        )
    return x.tolist()


def eval_field(field: PolyVectorField, x) -> np.ndarray:
    """Evaluate f(x): each component is the sum over its terms of
    coefficient times the product of variable powers."""
    xs = _state(field, x)
    return np.array([_evaluate(plan, xs) for plan in field._plans])


def field_jacobian(field: PolyVectorField) -> list[list[Polynomial]]:
    """Exact Jacobian: entry (i, j) is the polynomial d f_i / d x_j."""
    return [list(row) for row in field._jacobian]


def jacobian_at(field: PolyVectorField, x) -> np.ndarray:
    """Jacobian matrix of f evaluated at a state vector."""
    xs = _state(field, x)
    return np.array([[_evaluate(d._plan, xs) for d in row]
                     for row in field._jacobian])


# ---------------------------------------------------------------------------
# Model presets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Logistic:
    """One-species growth dx/dt = x(b + a x)."""

    b: float
    a: float

    dimension = 1

    @property
    def in_reference_regime(self) -> bool:
        # the studied regime is b >= 0 with a < 0
        return self.b >= 0 and self.a < 0

    def build_field(self) -> PolyVectorField:
        p = Polynomial.from_coeffs({(1,): self.b, (2,): self.a}, 1)
        return PolyVectorField((p,))


@dataclass(frozen=True)
class TwoSpecies:
    """Competing populations:

    dx/dt = x(b1 + a11 x + a12 y)
    dy/dt = y(b2 + a21 x + a22 y)
    """

    b1: float
    b2: float
    a11: float
    a12: float
    a21: float
    a22: float

    dimension = 2

    @property
    def in_reference_regime(self) -> bool:
        return (self.b1 >= 0 and self.b2 >= 0
                and self.a11 < 0 and self.a12 < 0
                and self.a21 < 0 and self.a22 < 0)

    def build_field(self) -> PolyVectorField:
        fx = Polynomial.from_coeffs(
            {(1, 0): self.b1, (2, 0): self.a11, (1, 1): self.a12}, 2)
        fy = Polynomial.from_coeffs(
            {(0, 1): self.b2, (1, 1): self.a21, (0, 2): self.a22}, 2)
        return PolyVectorField((fx, fy))

    @staticmethod
    def reference() -> "TwoSpecies":
        """The parameter set studied throughout: b1=0.1, b2=0.08,
        a11=-0.0014, a12=-0.0012, a21=-0.0009, a22=-0.001."""
        return TwoSpecies(b1=0.1, b2=0.08, a11=-0.0014, a12=-0.0012,
                          a21=-0.0009, a22=-0.001)


@dataclass(frozen=True)
class Spiral:
    """Exactly solvable planar cubic system:

    dx/dt = -y + a x (x^2 + y^2)
    dy/dt =  x + a y (x^2 + y^2)
    """

    a: float

    dimension = 2

    @property
    def in_reference_regime(self) -> bool:
        return self.a != 0

    def build_field(self) -> PolyVectorField:
        fx = Polynomial.from_coeffs({(0, 1): -1.0, (3, 0): self.a, (1, 2): self.a}, 2)
        fy = Polynomial.from_coeffs({(1, 0): 1.0, (2, 1): self.a, (0, 3): self.a}, 2)
        return PolyVectorField((fx, fy))


ModelPreset = Logistic | TwoSpecies | Spiral


def preset_ivp(preset: ModelPreset, x0) -> InitialValueProblem:
    """Initial-value problem for a preset, with the factored model form
    expanded into explicit polynomial terms.

    Out-of-regime parameters are accepted; a warning is logged so the
    caller knows the run leaves the regime the models were studied in.
    """
    ivp = InitialValueProblem(preset.build_field(), x0)  # checks x0 first
    if not preset.in_reference_regime:
        logger.warning("preset %r is outside the reference parameter regime", preset)
    return ivp
