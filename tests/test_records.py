"""The record contract of the package's 18 frozen classes: fields,
``replace``, repr, signature, frozen instances, argument errors, value or
identity equality, no method generated with ``exec``, and a read-only
copy of every array a record holds."""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from seriesdyn.errors import DimensionError
from seriesdyn.exact import PolarInit, Singularity, logistic_singularity, polar_init
from seriesdyn.dp5 import Trajectory, integrate
from seriesdyn.hpm import HpmExpansion, hpm_solve
from seriesdyn.model import (
    InitialValueProblem,
    IntegrationConfig,
    Logistic,
    Monomial,
    Polynomial,
    PolyVectorField,
    Spiral,
    TwoSpecies,
    preset_ivp,
)
from seriesdyn.modelfile import ModelFile, loads_model
from seriesdyn.phase import CriticalPoint, classify
from seriesdyn.report import ComparisonRow
from seriesdyn.series import (
    RadiusEstimate,
    TaylorSolution,
    TruncatedSeries,
    radius_estimate,
    taylor_solve,
)

def spiral_ivp():
    return preset_ivp(Spiral(-0.5), [2.0, 2.0])


# class: (its fields in order, a maker of one instance)
RECORDS = {
    Monomial: (("exponents",), lambda: Monomial((2, 1))),
    Polynomial: (("terms", "dimension"),
                 lambda: Polynomial.from_coeffs({(1, 0): 2.0, (0, 3): -1.0}, 2)),
    PolyVectorField: (("components",), lambda: Spiral(-0.5).build_field()),
    Logistic: (("b", "a"), lambda: Logistic(1.0, -3.0)),
    TwoSpecies: (("b1", "b2", "a11", "a12", "a21", "a22"), TwoSpecies.reference),
    Spiral: (("a",), lambda: Spiral(-0.5)),
    IntegrationConfig: (("rel_tol", "abs_tol", "max_steps"), IntegrationConfig),
    Singularity: (("location", "modulus", "kind", "degenerate"),
                  lambda: logistic_singularity(1.0, -3.0, 0.1)),
    PolarInit: (("r0", "theta0"), lambda: polar_init(2.0, 2.0)),
    ComparisonRow: (("t", "series4", "exact", "numerical", "log_error"),
                    lambda: ComparisonRow(0.1, 1.1, 1.2, 1.3, -4.5)),
    InitialValueProblem: (("field", "x0"), spiral_ivp),
    TruncatedSeries: (("coeffs",), lambda: TruncatedSeries([1.0, 2.0, 3.0])),
    TaylorSolution: (("series", "ivp", "overflow_order"),
                     lambda: taylor_solve(spiral_ivp(), 8)),
    HpmExpansion: (("G",), lambda: hpm_solve(spiral_ivp(), 4)),
    RadiusEstimate: (("value", "method", "diagnostics"),
                     lambda: radius_estimate(taylor_solve(spiral_ivp(), 12).series[0])),
    Trajectory: (("ts", "states", "derivs", "step_sizes", "error_estimates", "status",
                  "rhs_evals", "rejected_steps", "stop_reason"),
                 lambda: integrate(spiral_ivp(), 1.0)),
    CriticalPoint: (("location", "eigenvalues", "classification", "residual"),
                    lambda: classify(TwoSpecies.reference().build_field(), [12.5, 68.75])),
    ModelFile: (("kind", "ivp", "preset", "order", "grid_end", "grid_count", "cfg"),
                lambda: loads_model('{"model": "spiral", "params": {"a": -0.5}, '
                                    '"x0": [2.0, 2.0]}')),
}
VALUES = [Monomial, Polynomial, PolyVectorField, Logistic, TwoSpecies, Spiral,
          IntegrationConfig, Singularity, PolarInit, ComparisonRow]
IDENTITIES = [cls for cls in RECORDS if cls not in VALUES]
MODULES = ["errors", "model", "dp5", "series", "hpm", "exact", "phase", "modelfile",
           "report", "cli"]


def same(a, b) -> bool:
    """Field values are equal: arrays elementwise, the rest by ==."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a is b or a == b


def values_of(obj) -> list:
    return [getattr(obj, name) for name in type(obj).__match_args__]


def test_eighteen_records_ten_by_value():
    assert len(RECORDS) == 18 and len(VALUES) == 10 and len(IDENTITIES) == 8


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_fields_and_match_args_are_pinned(cls):
    names, make = RECORDS[cls]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == names
    assert dataclasses.is_dataclass(make())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_replace_round_trips(cls):
    obj = RECORDS[cls][1]()
    copy = dataclasses.replace(obj)
    assert type(copy) is cls
    assert all(same(a, b) for a, b in zip(values_of(copy), values_of(obj)))
    # the keyword call of replace and a positional call build the same record
    again = cls(*values_of(obj))
    assert all(same(a, b) for a, b in zip(values_of(again), values_of(obj)))


def test_replace_changes_one_field():
    assert dataclasses.replace(Spiral(-0.5), a=0.5) == Spiral(0.5)
    cfg = dataclasses.replace(IntegrationConfig(), abs_tol=1e-9)
    assert (cfg.rel_tol, cfg.abs_tol, cfg.max_steps) == (1e-10, 1e-9, 1_000_000)
    with pytest.raises(ValueError, match="tolerances"):
        dataclasses.replace(IntegrationConfig(), rel_tol=-1.0)  # __post_init__ runs


def test_reprs_are_pinned():
    assert repr(Spiral(-0.5)) == "Spiral(a=-0.5)"
    assert repr(IntegrationConfig()) == (
        "IntegrationConfig(rel_tol=1e-10, abs_tol=1e-12, max_steps=1000000)")
    assert repr(Monomial((2, 1))) == "Monomial(exponents=(2, 1))"
    assert repr(Singularity(1 + 2j, 2.0, "pole")) == (
        "Singularity(location=(1+2j), modulus=2.0, kind='pole', degenerate=False)")
    assert repr(Polynomial.from_coeffs({(1,): 2.0}, 1)) == (
        "Polynomial(terms=mappingproxy({Monomial(exponents=(1,)): 2.0}), dimension=1)")


def test_signatures_are_pinned():
    def sig(obj):
        return str(inspect.signature(obj))

    assert sig(Logistic) == "(b: 'float', a: 'float') -> None"
    assert sig(Spiral) == "(a: 'float') -> None"
    assert sig(TwoSpecies) == ("(b1: 'float', b2: 'float', a11: 'float', a12: 'float', "
                               "a21: 'float', a22: 'float') -> None")
    assert sig(IntegrationConfig) == ("(rel_tol: 'float' = 1e-10, abs_tol: 'float' = 1e-12, "
                                      "max_steps: 'int' = 1000000) -> None")
    # a callable record keeps the signature of its __call__
    assert sig(Monomial((1,))) == "(x) -> 'float'"
    assert sig(TruncatedSeries([1.0])) == "(t)"


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_instances_are_frozen(cls):
    obj = RECORDS[cls][1]()
    before = values_of(obj)
    for name in cls.__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
            delattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    assert all(a is b for a, b in zip(values_of(obj), before))


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_a_missing_extra_or_repeated_argument_is_a_type_error(cls):
    values = values_of(RECORDS[cls][1]())
    names = cls.__match_args__
    required = [f for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)
    with pytest.raises(TypeError, match="multiple values for argument"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(**dict(zip(names[1:], values[1:])), bogus=1)  # as many keywords as fields
    if required:
        with pytest.raises(TypeError, match=f"missing 1 required .*'{required[-1].name}'"):
            cls(*values[:len(required) - 1])
        with pytest.raises(TypeError, match="missing"):
            cls(**dict(zip(names[1:], values[1:])))


def test_defaults_fill_every_call_form():
    want = IntegrationConfig(1e-9, 1e-12, 1_000_000)
    assert IntegrationConfig(1e-9) == want
    assert IntegrationConfig(rel_tol=1e-9) == want
    assert IntegrationConfig(1e-9, max_steps=1_000_000) == want
    assert IntegrationConfig(max_steps=1_000_000, abs_tol=1e-12, rel_tol=1e-9) == want
    sing = Singularity(location=1j, modulus=1.0, kind="pole")
    assert sing.degenerate is False and sing == Singularity(1j, 1.0, "pole", False)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_classes_compare_and_hash_by_field_tuple(cls):
    a, b = RECORDS[cls][1](), RECORDS[cls][1]()
    assert a is not b and a == b and not a != b
    assert a == dataclasses.replace(a)
    assert (a == object()) is False and a != object()
    try:
        key = hash(tuple(values_of(a)))
    except TypeError:  # a Polynomial holds a mapping, and hashing it raises
        with pytest.raises(TypeError):
            hash(a)
    else:
        # the hash is that of the field tuple, as the generated __hash__ gave
        assert hash(a) == hash(b) == key
        assert len({a, b}) == 1


def test_value_equality_needs_the_same_class():
    assert Logistic(1.0, -3.0) != PolarInit(1.0, -3.0)
    assert Spiral(0.0) == Spiral(-0.0) and Logistic(1, -3) == Logistic(1.0, -3.0)
    nan = float("nan")
    # fields compare as a tuple: the same nan object is equal to itself
    assert Spiral(nan) == Spiral(nan) and Spiral(nan) != Spiral(float("nan"))


@pytest.mark.parametrize("cls", IDENTITIES, ids=lambda cls: cls.__name__)
def test_identity_classes_compare_and_hash_by_identity(cls):
    assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    a = RECORDS[cls][1]()
    assert a == a and a != dataclasses.replace(a) and hash(a) == object.__hash__(a)
    assert len({a, dataclasses.replace(a), a}) == 2


def test_equal_presets_share_one_field():
    first = preset_ivp(Logistic(1, -3), [1.0])
    assert preset_ivp(Logistic(1.0, -3.0), [0.5]).field is first.field
    assert preset_ivp(dataclasses.replace(TwoSpecies.reference()), [4.0, 10.0]).field is (
        preset_ivp(TwoSpecies.reference(), [1.0, 1.0]).field)
    assert preset_ivp(Spiral(0.5), [1.0, 1.0]).field is not preset_ivp(
        Spiral(-0.5), [1.0, 1.0]).field


def test_post_init_checks_every_call_form():
    for call in (lambda: InitialValueProblem(Spiral(-0.5).build_field(), [1.0]),
                 lambda: InitialValueProblem(field=Spiral(-0.5).build_field(), x0=[1.0]),
                 lambda: HpmExpansion(G=np.zeros((2, 1, 3)))):
        with pytest.raises(DimensionError):
            call()
    with pytest.raises(ValueError):
        Monomial(exponents=(-1,))


# dataclasses compiles each method it generates with exec, from the file
# name "<string>"; a cold process imports all ten modules, so a record class
# built with @dataclass anywhere would show here
GENERATED = ("import dataclasses, importlib, inspect\n"
             f"modules = [importlib.import_module('seriesdyn.' + m) for m in {MODULES!r}]\n"
             "records, generated = set(), []\n"
             "for module in modules:\n"
             "    for cls in vars(module).values():\n"
             "        if inspect.isclass(cls) and dataclasses.is_dataclass(cls):\n"
             "            records.add(cls)\n"
             "for cls in records:\n"
             "    for name, value in vars(cls).items():\n"
             "        function = getattr(value, '__func__', value)\n"
             "        code = getattr(function, '__code__', None)\n"
             "        if code is not None and code.co_filename == '<string>':\n"
             "            generated.append(f'{cls.__name__}.{name}')\n"
             "print(len(records), sorted(generated))\n")
COLD = {"generated": (["-c", GENERATED], {})}


def test_no_record_method_is_generated_code(cold_run):
    child = cold_run("generated")
    assert child.stdout.decode().split(None, 1) == ["18", "[]\n"]


# every array a record holds: (class, field)
ARRAYS = [(InitialValueProblem, "x0"), (TruncatedSeries, "coeffs"), (HpmExpansion, "G"),
          (RadiusEstimate, "diagnostics"), (CriticalPoint, "location"),
          *((Trajectory, name) for name in ("ts", "states", "derivs", "step_sizes",
                                            "error_estimates"))]


def given_forms(values):
    """The caller's array in three forms, each with the writable array whose
    later writes must not reach the record: ``values`` itself, a
    Fortran-ordered copy, and a read-only strided view of a writable base."""
    fortran = np.array(values, order="F")
    base = np.stack([values, values], axis=-1)
    view = base[..., 0]
    view.flags.writeable = False
    return [(values, values), (fortran, fortran), (view, base)]


@pytest.mark.parametrize(("cls", "name"), ARRAYS, ids=lambda v: getattr(v, "__name__", v))
def test_a_record_holds_a_read_only_c_ordered_copy(cls, name):
    made = RECORDS[cls][1]()
    original = np.array(getattr(made, name))
    for given, writable in given_forms(original.copy()):
        held = getattr(dataclasses.replace(made, **{name: given}), name)
        # the caller's array keeps its flags and is not the stored object
        assert held is not given and not np.shares_memory(held, writable)
        assert writable.flags.writeable and given.flags.writeable == (given is writable)
        assert held.dtype == np.float64 and held.flags.c_contiguous
        with pytest.raises(ValueError):
            held[(0,) * held.ndim] = 1.0
        writable += 1.0
        assert held.tobytes() == original.tobytes()


@pytest.mark.parametrize(("cls", "name"), ARRAYS, ids=lambda v: getattr(v, "__name__", v))
def test_a_copied_or_unpickled_record_still_holds_a_read_only_array(cls, name):
    # both are rebuilt through the constructor, not from a copy of __dict__
    made = RECORDS[cls][1]()
    for copied in (copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
        held = getattr(copied, name)
        assert not held.flags.writeable and held.flags.c_contiguous
        assert held.tobytes() == getattr(made, name).tobytes()
