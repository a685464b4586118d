"""JSON model-file ingestion for the command-line front end.

A model file is a single JSON object selecting either a named preset
with parameters or an explicit per-component monomial term list, plus
the initial state and optional series order, output time grid, and
integrator tolerances:

    {
      "model": "logistic",            // "two-species", "spiral", "terms"
      "params": {"b": 1.0, "a": -3.0},
      "x0": [1.0],
      "order": 10,                    // optional, default 10, <= MAX_ORDER
      "grid": {"end": 1.0, "count": 11},  // count <= MAX_SAMPLES
      "tolerances": {"rel": 1e-10, "abs": 1e-12}
    }

The "terms" form replaces "params" with "terms": a list of components,
each a list of {"exponents": [..], "coeff": c} objects.  Every parse or
validation failure raises ModelFileError carrying a location, so the CLI
can report line/column or key-path diagnostics and exit with code 2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ModelFileError
from .model import (
    InitialValueProblem,
    Logistic,
    ModelPreset,
    Polynomial,
    PolyVectorField,
    Spiral,
    TwoSpecies,
    preset_ivp,
)

DEFAULT_ORDER = 10
DEFAULT_GRID_END = 1.0
DEFAULT_GRID_COUNT = 11
# caps on the work one request can ask for: a series order, and a count of
# output times (model-file grid points, CLI --samples)
MAX_ORDER = 1000
MAX_SAMPLES = 100_000

_PRESET_PARAMS = {
    "logistic": ("b", "a"),
    "two-species": ("b1", "b2", "a11", "a12", "a21", "a22"),
    "spiral": ("a",),
}
_TOP_KEYS = {"model", "params", "terms", "x0", "order", "grid", "tolerances"}


@dataclass(frozen=True)
class ModelFile:
    """A parsed and validated model definition.

    ``preset`` is the originating preset when the model named one (None
    for explicit term lists); commands use it to look up closed forms.
    """

    kind: str
    ivp: InitialValueProblem
    preset: ModelPreset | None
    order: int
    grid_end: float
    grid_count: int
    rel_tol: float
    abs_tol: float


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFileError("expected a number", where)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ModelFileError("expected a finite number", where)
    return number


def _positive_int(value, where: str, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFileError("expected an integer", where)
    if value < minimum:
        raise ModelFileError(f"must be >= {minimum}", where)
    if value > maximum:
        raise ModelFileError(f"must be <= {maximum}", where)
    return value


def _parse_terms(raw, n: int) -> PolyVectorField:
    if not isinstance(raw, list) or len(raw) != n:
        raise ModelFileError(
            f"'terms' must list exactly {n} components (one per variable)",
            "key 'terms'")
    comps = []
    for i, comp in enumerate(raw):
        where = f"key 'terms'[{i}]"
        if not isinstance(comp, list):
            raise ModelFileError("each component must be a list of terms", where)
        coeffs: dict[tuple, float] = {}
        for j, term in enumerate(comp):
            twhere = f"{where}[{j}]"
            if not isinstance(term, dict) or set(term) != {"exponents", "coeff"}:
                raise ModelFileError(
                    "each term must be {\"exponents\": [...], \"coeff\": c}", twhere)
            exps = term["exponents"]
            if (not isinstance(exps, list) or len(exps) != n
                    or any(isinstance(e, bool) or not isinstance(e, int) or e < 0
                           for e in exps)):
                raise ModelFileError(
                    f"'exponents' must be {n} non-negative integers", twhere)
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, 0.0) + _number(term["coeff"], twhere)
        comps.append(Polynomial.from_coeffs(coeffs, n))
    return PolyVectorField(tuple(comps))


def parse_model(doc) -> ModelFile:
    """Validate a decoded JSON document into a ModelFile."""
    if not isinstance(doc, dict):
        raise ModelFileError("top level must be a JSON object", "document root")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ModelFileError(f"unknown keys {sorted(unknown)}", "document root")
    for key in ("model", "x0"):
        if key not in doc:
            raise ModelFileError(f"missing required key '{key}'", "document root")

    kind = doc["model"]
    if kind not in (*_PRESET_PARAMS, "terms"):
        raise ModelFileError(
            f"model must be one of {sorted((*_PRESET_PARAMS, 'terms'))}",
            "key 'model'")

    raw_x0 = doc["x0"]
    if (not isinstance(raw_x0, list) or not raw_x0):
        raise ModelFileError("'x0' must be a non-empty list of numbers", "key 'x0'")
    x0 = [_number(v, f"key 'x0'[{i}]") for i, v in enumerate(raw_x0)]

    preset: ModelPreset | None = None
    if kind == "terms":
        if "params" in doc:
            raise ModelFileError("'params' is not allowed with model 'terms'",
                                 "key 'params'")
        if "terms" not in doc:
            raise ModelFileError("model 'terms' requires key 'terms'",
                                 "document root")
        field = _parse_terms(doc["terms"], len(x0))
        ivp = InitialValueProblem(field, x0)
    else:
        if "terms" in doc:
            raise ModelFileError("'terms' is only allowed with model 'terms'",
                                 "key 'terms'")
        params = doc.get("params")
        wanted = _PRESET_PARAMS[kind]
        if not isinstance(params, dict) or set(params) != set(wanted):
            raise ModelFileError(
                f"model '{kind}' requires params {list(wanted)}", "key 'params'")
        values = {name: _number(params[name], f"key 'params.{name}'")
                  for name in wanted}
        preset = {"logistic": Logistic, "two-species": TwoSpecies,
                  "spiral": Spiral}[kind](**values)
        if len(x0) != preset.dimension:
            raise ModelFileError(
                f"model '{kind}' needs {preset.dimension} initial values,"
                f" got {len(x0)}", "key 'x0'")
        ivp = preset_ivp(preset, x0)

    order = DEFAULT_ORDER
    if "order" in doc:
        order = _positive_int(doc["order"], "key 'order'", 1, MAX_ORDER)

    grid_end, grid_count = DEFAULT_GRID_END, DEFAULT_GRID_COUNT
    if "grid" in doc:
        grid = doc["grid"]
        if not isinstance(grid, dict) or set(grid) - {"end", "count"}:
            raise ModelFileError("'grid' must be {\"end\": t, \"count\": n}",
                                 "key 'grid'")
        if "end" in grid:
            grid_end = _number(grid["end"], "key 'grid.end'")
            if grid_end <= 0:
                raise ModelFileError("grid end must be > 0", "key 'grid.end'")
        if "count" in grid:
            grid_count = _positive_int(grid["count"], "key 'grid.count'", 2, MAX_SAMPLES)

    rel_tol, abs_tol = 1e-10, 1e-12
    if "tolerances" in doc:
        tols = doc["tolerances"]
        if not isinstance(tols, dict) or set(tols) - {"rel", "abs"}:
            raise ModelFileError("'tolerances' must be {\"rel\": r, \"abs\": a}",
                                 "key 'tolerances'")
        if "rel" in tols:
            rel_tol = _number(tols["rel"], "key 'tolerances.rel'")
        if "abs" in tols:
            abs_tol = _number(tols["abs"], "key 'tolerances.abs'")
        if rel_tol <= 0 or abs_tol <= 0:
            raise ModelFileError("tolerances must be positive", "key 'tolerances'")

    return ModelFile(kind=kind, ivp=ivp, preset=preset, order=order,
                     grid_end=grid_end, grid_count=grid_count,
                     rel_tol=rel_tol, abs_tol=abs_tol)


def loads_model(text: str) -> ModelFile:
    """Parse model-file text, converting JSON errors to ModelFileError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(exc.msg, f"line {exc.lineno}, column {exc.colno}") \
            from exc
    return parse_model(doc)


def load_model(path: str) -> ModelFile:
    """Read and parse a model file from disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFileError(str(exc), path) from exc
    return loads_model(text)
