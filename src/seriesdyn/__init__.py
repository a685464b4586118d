"""Truncated time-power-series solutions of polynomial ODE systems.

The library solves autonomous systems dx/dt = f(x) with polynomial f by
direct Taylor recursion about t = 0, builds the homotopy-style
order-by-order expansion and verifies that it collapses onto that same
Taylor series, and then quantifies where the local series stops being
useful: coefficient-based radius-of-convergence estimates, closed-form
oracles with their movable singularities, an adaptive Runge-Kutta
integrator as the global reference, and fixed-point classification for
the phase-plane structure no local series can see.

Importing the package loads none of its modules: each public name (and
each module below) is imported the first time it is read (PEP 562), so
a command-line run loads only the layers it calls.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": ("SeriesDynError", "DimensionError", "SingularityError", "DegenerateError",
               "InsufficientOrderError", "NotAFixedPointError", "RangeError",
               "ModelFileError", "IntegrationFailedError"),
    "model": ("Monomial", "Polynomial", "PolyVectorField", "InitialValueProblem",
              "IntegrationConfig", "Logistic", "TwoSpecies", "Spiral",
              "eval_field", "field_jacobian", "jacobian_at", "preset_ivp"),
    "series": ("TruncatedSeries", "TaylorSolution", "RadiusEstimate",
               "taylor_solve", "series_eval", "radius_estimate"),
    "hpm": ("HpmExpansion", "series_mul", "poly_apply_series", "hpm_solve",
            "hpm_collapse_check"),
    "exact": ("Singularity", "PolarInit", "logistic_exact", "logistic_singularity",
              "polar_init", "spiral_exact", "spiral_singularity"),
    "dp5": ("Trajectory", "integrate", "sample"),
    "phase": ("CLASSIFICATIONS", "CriticalPoint", "fixed_points", "classify"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later reads skip this function
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

