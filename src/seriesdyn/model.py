"""Autonomous polynomial ODE systems, the three built-in population models
and the integrator's settings.

A system is ``dx/dt = f(x)`` with ``x(0) = x0`` where every component of
``f`` is a sparse multivariate polynomial.  Everything here is immutable
and purely functional, so instances can be shared freely.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import WARNING, DimensionError, logger, record


@record
class Monomial:
    """Product of variable powers, e.g. exponents (2, 1) is x^2 y."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        given = tuple(self.exponents)
        try:
            exps = tuple(map(int, given))
        except (OverflowError, ValueError):  # inf or nan
            exps = None
        if exps != given:
            raise ValueError(f"non-integral exponent in {given}")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def dimension(self) -> int:
        return len(self.exponents)


@record
class Polynomial:
    """Sparse real polynomial in n variables: map from Monomial to coefficient.

    Zero coefficients are dropped and terms are kept in a canonical
    (sorted) order so that evaluation is bit-reproducible no matter how
    the polynomial was assembled.  ``terms`` is a read-only mapping, so
    the program compiled on first use always matches it.
    """

    terms: dict[Monomial, float]
    dimension: int

    def __post_init__(self):
        _check_count(self.dimension, "dimension")
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
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __reduce__(self):
        # a mappingproxy does not pickle, and the cached program need not
        return Polynomial, (dict(self.terms), self.dimension)

    @cached_property
    def _program(self):
        """This polynomial's program (see ``_compile``), built on first use."""
        return _compile((self,))

    def __call__(self, x) -> float:
        return self._program.run(_state(x, self.dimension), [0.0])[0]

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
            try:
                d = c * e
            except OverflowError:  # e itself is beyond the float range
                d = math.inf
            if math.isinf(d) and math.isfinite(c):
                raise ValueError(f"the derivative by variable {var} of a term with "
                                 f"exponent {e} has a coefficient beyond the float range")
            out[key] = out.get(key, 0.0) + d
        return Polynomial(out, self.dimension)

    @staticmethod
    def from_coeffs(coeffs: dict[tuple[int, ...], float], dimension: int) -> "Polynomial":
        return Polynomial({Monomial(k): v for k, v in coeffs.items()}, dimension)


@record
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
    def _jacobian(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Exact Jacobian, entry (i, j) the polynomial d f_i / d x_j, built
        on first use and kept for every later Newton step."""
        n = self.dimension
        return tuple(tuple(p.diff(j) for j in range(n)) for p in self.components)

    @cached_property
    def _program(self):
        """The program of f (see ``_compile``), built on first use."""
        return _compile(self.components)

    @cached_property
    def _program_with_jacobian(self):
        """The program of f followed by its n^2 Jacobian entries, row by row."""
        return _compile(self.components + sum(self._jacobian, ()))


def _hold(owner, name: str, values) -> np.ndarray:
    """Store a read-only, C-ordered float64 copy of ``values`` as the field
    ``name`` of the record ``owner``, and return it.  Every record that
    holds an array owns it this way, so the caller's array is neither
    frozen nor aliased."""
    held = np.array(values, dtype=float, order="C")
    held.flags.writeable = False
    object.__setattr__(owner, name, held)
    return held


@record(eq=False)
class InitialValueProblem:
    """A polynomial field together with the initial state x(0); it compares
    and hashes by identity, as every result object holding an array does."""

    field: PolyVectorField
    x0: np.ndarray

    def __post_init__(self):
        x0 = _hold(self, "x0", self.x0)
        if x0.shape != (self.field.dimension,):
            raise DimensionError(
                f"x0 has shape {x0.shape}, field dimension is {self.field.dimension}"
            )
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be finite, got {x0.tolist()}")

    @property
    def dimension(self) -> int:
        return self.field.dimension


# Below this relative tolerance the error norm asks for more digits than
# a double carries: the steps shrink to nothing and the budget is spent.
_REL_TOL_FLOOR = 100 * math.ulp(1.0)  # 100 machine epsilons


@record
class IntegrationConfig:
    """Tolerances and step budget of ``integrate``: positive finite
    tolerances, ``rel_tol`` at least 100 machine epsilons, and
    ``max_steps`` (attempts) an integer >= 1.  It lives here, beside the
    problem it integrates, so a model file and the commands that never
    integrate need not load the integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.rel_tol, self.abs_tol)):
            raise ValueError("tolerances must be positive and finite")
        # stored as Python floats (and max_steps as an int below), so the
        # step loop never runs on numpy scalars
        object.__setattr__(self, "rel_tol", float(self.rel_tol))
        object.__setattr__(self, "abs_tol", float(self.abs_tol))
        if self.rel_tol < _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol must be at least {_REL_TOL_FLOOR!r} "
                             "(100 machine epsilons)")
        _check_count(self.max_steps, "max_steps")
        object.__setattr__(self, "max_steps", int(self.max_steps))


class _Program(tuple):
    """The pair (products, components) that ``_compile`` builds for
    polynomials in n variables.  Its code is generated from its ``shape``
    by a source emitter (``_run_source`` for f, the integrator's
    ``_loop_source`` for the whole DP5 run, which calls ``run`` for f(x0)
    and the first step's probe, ``series._taylor_source`` and
    ``hpm._hpm_source`` for the Taylor and perturbation recursions), all
    built on ``_field_lines`` or its term sums, compiled once per shape by
    ``_factory`` and bound to the program's coefficients by ``bound`` on
    first use: ``run`` on the first evaluation, the DP5 loop (then
    ``run``) on the first integration, each recursion on its first
    expansion.
    ``poly_apply_series`` reads only the pair, so it never pays for the
    code."""

    def __new__(cls, n: int, products, components):
        program = super().__new__(cls, (products, components))
        program.n = n
        program.functions = {}
        return program

    @cached_property
    def shape(self):
        """Everything the generated code depends on: n, the products and
        each polynomial's term nodes, but no coefficient."""
        products, components = self
        return (self.n, tuple(products),
                tuple(tuple(k for c, k in terms) for constant, terms in components))

    def bound(self, source):
        """The function that ``source`` generates for this program's shape
        (see ``_factory``), with this program's coefficients bound; bound on
        the first call and kept in ``functions``."""
        if source not in self.functions:
            self.functions[source] = _factory(source, self.shape)(
                [v for constant, terms in self[1] for v in (constant, *(c for c, k in terms))])
        return self.functions[source]

    @cached_property
    def run(self):
        """The program as one function ``run(xs, out)`` that writes
        polynomial i at the state ``xs`` (n floats, or n columns of states
        with the same products bit for bit) into ``out[i]`` and returns
        ``out`` (see ``_run_source``).  An overflow gives ±inf or nan and
        never raises; columns need the caller's ``np.errstate``."""
        return self.bound(_run_source)


def _field_lines(shape, outs) -> list[str]:
    """Straight-line code that evaluates a program of the given shape on
    the names v0, v1, ... of its variables and assigns polynomial i to
    ``outs[i]``: a line ``v{k} = v{a} * v{b}`` per node in node order,
    then the term sums (see ``_sum_lines``).  No line holds more than
    ``_TERMS_PER_LINE`` terms, so a field of any size compiles without
    deep recursion."""
    n, products, components = shape
    return ([f"v{k} = v{a} * v{b}" for k, (a, b) in enumerate(products, start=n)]
            + _sum_lines(components, outs))


# Terms per generated line: each ``+`` nests the sum before it, and Python
# 3.11 compiles one expression of 2000 terms but raises RecursionError on
# one of 5000.
_TERMS_PER_LINE = 256


def _sum_lines(components, outs, constant="k{}") -> list[str]:
    """The term sums of polynomials whose term nodes are ``components``
    (the last entry of a program's shape): per polynomial i, one
    expression ``outs[i] = (k{i}) + c{i}_0 * v{a} + c{i}_1 * v{b} + ...``
    (``constant`` formatted with i) over its terms in canonical order,
    which Python evaluates left to right.  A sum of more than
    ``_TERMS_PER_LINE`` terms is split into lines of that many, ``t =
    (k{i}) + ...``, ``t = t + ...`` and ``outs[i] = t + ...``, with the
    same additions in the same order."""
    lines = []
    for i, (nodes, out) in enumerate(zip(components, outs)):
        terms = [f" + c{i}_{j} * v{k}" for j, k in enumerate(nodes)]
        chunks = [terms[j:j + _TERMS_PER_LINE]
                  for j in range(0, len(terms), _TERMS_PER_LINE)] or [[]]
        left = f"({constant.format(i)})"
        for j, chunk in enumerate(chunks):
            target = out if j == len(chunks) - 1 else "t"
            lines.append(f"{target} = {left}{''.join(chunk)}")
            left = "t"
    return lines


def _run_source(shape) -> list[str]:
    """The body of ``_Program.run``'s factory."""
    n, _, components = shape
    return ["def run(xs, out):",
            "    " + "".join(f"v{i}, " for i in range(n)) + "= xs",
            *("    " + line for line in
              _field_lines(shape, [f"out[{i}]" for i in range(len(components))])),
            "    return out",
            "return run"]


@lru_cache(maxsize=256)
def _factory(source, shape):
    """Compile the factory ``factory(coefficients)`` whose body
    ``source(shape)`` generates.  The first line of each function the body
    defines unpacks the coefficients of a program of this shape into the
    names k{i} (constant of polynomial i) and c{i}_{j} (coefficient of its
    term j), so the function reads them as fast locals and only
    ``coefficients`` is a closure cell: CPython 3.11 to 3.13 compile a
    function in time quadratic in its closure cells, and linear in its
    locals.  Fields of one shape share the code; only what is the same for
    every field, such as the DP5 tableau, is a literal.  ``run`` pays one
    store per coefficient per call, a whole-run function once per run.  For
    the two-variable presets, on 2 shared cores with Python 3.11,
    generating and compiling takes about 0.1 ms (f), 0.25 to 0.4 ms (the
    Taylor recursion, one line per graph level, or the perturbation
    recursion, one per node) and 1.6 ms (the DP5 step loop), and calling
    the factory about 1.5 µs, so each (source, shape) is compiled once and
    the 256 most recently used are kept."""
    names = "".join(f"k{i}, " + "".join(f"c{i}_{j}, " for j in range(len(nodes)))
                    for i, nodes in enumerate(shape[2]))
    lines = ["def factory(coefficients):"]
    for line in source(shape):
        lines.append("    " + line)
        if line.startswith("def "):
            lines.append(f"        {names}= coefficients")
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["factory"]


def _compile(polynomials: tuple[Polynomial, ...]):
    """The program of polynomials in the same n variables: a product graph
    ``products``, and per polynomial its constant and its other terms as
    (coefficient, node) pairs in canonical order.

    Nodes 0..n-1 are the variables; node n + k is ``products[k]`` =
    (a, b), the product of the earlier nodes a and b.  A power x_i^e is
    x_i^ceil(e/2) times x_i^floor(e/2), about 2 log2(e) nodes, and a term is
    the left-to-right product of its factor powers, so f, its Jacobian and
    both series routes share one arithmetic.  Nodes are keyed by their
    factors, so the polynomials share powers and prefixes.  The result is a
    ``_Program``, whose code is generated only when it is first evaluated.
    """
    n = polynomials[0].dimension
    nodes = {((i, 1),): i for i in range(n)}
    products: list[tuple[int, int]] = []

    def operands(factors):
        if len(factors) > 1:
            return factors[:-1], factors[-1:]
        (i, e), = factors
        return ((i, e - e // 2),), ((i, e // 2),)

    def node(factors) -> int:
        # the depth-first, operands-first numbering of a recursion, kept on
        # an explicit stack: an exponent of 2^1000 is 1000 halvings deep
        stack = [factors]
        while stack:
            top = stack[-1]
            if top in nodes:
                stack.pop()
                continue
            pair = operands(top)
            missing = [f for f in pair if f not in nodes]
            if missing:
                stack += reversed(missing)
            else:
                nodes[stack.pop()] = n + len(products)
                products.append((nodes[pair[0]], nodes[pair[1]]))
        return nodes[factors]

    components = []
    for p in polynomials:
        terms = [(c, tuple((i, e) for i, e in enumerate(m.exponents) if e))
                 for m, c in p.terms.items()]
        components.append((sum((c for c, factors in terms if not factors), 0.0),
                           tuple((c, node(factors)) for c, factors in terms if factors)))
    return _Program(n, products, tuple(components))


def _check_count(value, name: str, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least``; a bool
    is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")


def _state(x, n: int) -> list[float]:
    """A state of n variables as Python floats."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionError(f"state has shape {x.shape}, expected ({n},)")
    return x.tolist()


def eval_field(field: PolyVectorField, x) -> np.ndarray:
    """Evaluate f(x): each component is the sum over its terms of
    coefficient times the product of variable powers.  Returns a new
    array; ``DimensionError`` for a state of another shape than (n,)."""
    program = field._program
    n = program.n
    return program.run(_state(x, n), np.empty(n))


def jacobian_at(field: PolyVectorField, x) -> np.ndarray:
    """Jacobian matrix of f evaluated at a state vector, a new (n, n)
    array; ``DimensionError`` for a state of another shape than (n,)."""
    program = field._program_with_jacobian
    n = program.n
    out = program.run(_state(x, n), np.empty(n + n * n))
    return out[n:].reshape(n, n)


# ---------------------------------------------------------------------------
# Model presets
# ---------------------------------------------------------------------------

@record
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


@record
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


@record
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


@lru_cache(maxsize=64)
def _preset_field(preset: ModelPreset) -> PolyVectorField:
    """The field of a preset value, built once: equal presets share it, and
    with it its programs, their bound code and its Jacobian.  Equal presets
    of different form, such as Logistic(1, -3) and Logistic(1.0, -3.0) or
    Spiral(0.0) and Spiral(-0.0), build equal fields, since coefficients
    become floats and zeros are dropped.  The 64 most recently used are
    kept."""
    return preset.build_field()


def preset_ivp(preset: ModelPreset, x0) -> InitialValueProblem:
    """Initial-value problem for a preset, with the factored model form
    expanded into explicit polynomial terms.  Every call with an equal
    preset shares one field (``build_field`` builds a new one each time).

    Out-of-regime parameters are accepted; a warning is logged so the
    caller knows the run leaves the regime the models were studied in.
    """
    ivp = InitialValueProblem(_preset_field(preset), x0)
    if not preset.in_reference_regime and (log := logger(__name__, WARNING)):
        log.warning("preset %r is outside the reference parameter regime", preset)
    return ivp
