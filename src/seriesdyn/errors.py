"""Exception types, the frozen-record decorator and the on-demand logger,
shared across the package."""

import sys
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from inspect import Parameter, Signature
from operator import attrgetter


class SeriesDynError(Exception):
    """Base class for all seriesdyn errors."""


class DimensionError(SeriesDynError):
    """State/field/series dimensions do not match."""


class SingularityError(SeriesDynError):
    """Closed-form solution evaluated at (or too close to) a singularity."""


class DegenerateError(SeriesDynError):
    """Input lies on a degenerate configuration (e.g. the origin of the
    spiral model, or parameters for which no finite singularity exists)."""


class InsufficientOrderError(SeriesDynError):
    """Too few usable series coefficients for the requested radius estimate."""


class NotAFixedPointError(SeriesDynError):
    """classify() was called at a point whose residual is too large."""


class RangeError(SeriesDynError):
    """Requested sample time outside the integrated interval."""


class IntegrationFailedError(SeriesDynError):
    """Integration ended with a non-completed status, so the requested
    output grid cannot be produced."""


class ModelFileError(SeriesDynError):
    """Model description file failed to parse or validate.

    ``location`` carries a human-readable position: either ``line L, column C``
    for JSON syntax errors or the offending key path for semantic errors.
    """

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{message} ({location})"
        super().__init__(message)


# -- frozen records ---------------------------------------------------------------
# ``dataclass(frozen=True)`` compiles each method it generates with its own
# ``exec``, at every import: about 0.5-0.9 ms per class on Python 3.11.  A
# record takes only the field table from ``dataclass``; its methods below are
# compiled once, with this module, and ``record`` binds them to each class.

def record(cls=None, /, *, eq=True):
    """``dataclass(frozen=True)``, or ``dataclass(frozen=True, eq=False)``
    with ``eq=False``, that generates no code.  The class keeps the same
    fields, ``dataclasses.fields`` and ``replace``, ``__match_args__``,
    repr, ``inspect.signature``, ``FrozenInstanceError`` and TypeErrors,
    and calls ``__post_init__`` (looked up at each call) when it defines
    one.  A copy or a pickle is rebuilt through the constructor, unless the
    class defines its own ``__reduce__``.  A value class compares and
    hashes by its field tuple, an ``eq=False`` class by identity."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    names = cls.__match_args__
    named, by_position = frozenset(names), tuple(enumerate(names))
    defaults = tuple(f.default for f in fields(cls) if f.default is not MISSING)
    least, post = len(names) - len(defaults), hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        state = self.__dict__
        if not args and kwargs.keys() == named:
            state.update(kwargs)
        else:
            if kwargs or not least <= len(args) <= len(names):
                args = _bind(self, names, defaults, args, kwargs)
            elif len(args) < len(names):
                args += defaults[len(args) - len(names):]
            for i, name in by_position:
                state[name] = args[i]
        if post:
            self.__post_init__()

    cls.__init__, cls.__repr__ = __init__, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    cls.__signature__ = _SIGNATURE
    if "__reduce__" not in vars(cls):
        cls.__reduce__ = _reduce
    if eq:
        get = attrgetter(*names)
        key = get if len(names) > 1 else lambda obj: (get(obj),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
    return cls


def _bind(self, names, defaults, args, kwargs) -> list:
    """The field values of a call that is not all positional or all
    keywords, or the TypeError Python raises for it."""
    call = f"{type(self).__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{call} takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if name in names[:len(args)]:
            raise TypeError(f"{call} got multiple values for argument {name!r}")
    values = dict(zip(names[len(names) - len(defaults):], defaults))
    values.update(zip(names, args), **kwargs)
    missing = [name for name in names if name not in values]
    if missing:
        raise TypeError(f"{call} missing {len(missing)} required positional argument"
                        f"{'s' * (len(missing) > 1)}: " + ", ".join(map(repr, missing)))
    return [values[name] for name in names]


def _repr(self):
    text = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({text})"


def _reduce(self):
    return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Signature:
    """A record class's ``__signature__``: its fields, as ``inspect.signature``
    showed the generated ``__init__``.  An instance has none, so a callable
    record keeps the signature of its ``__call__``."""

    def __get__(self, obj, cls):
        if obj is not None:
            raise AttributeError("__signature__")
        return Signature([Parameter(f.name, Parameter.POSITIONAL_OR_KEYWORD, annotation=f.type,
                                    default=Parameter.empty if f.default is MISSING else f.default)
                          for f in fields(cls)], return_annotation=None)


_SIGNATURE = _Signature()


# -- logging ----------------------------------------------------------------------
# A command that logs nothing never imports ``logging`` (with its ``traceback``
# and ``string``, about 2.6 ms of a cold start).  Until something imports it,
# no handler exists: a line below WARNING could reach no one, and a WARNING
# reaches stderr through Python's last-resort handler once ``logging`` is in.

DEBUG, WARNING = 10, 30  # logging's levels
_LOGGERS = {}  # name -> its Logger, kept from the first line that needs one


def logger(name: str, level: int):
    """The logger ``name`` if a line at ``level`` would be handled, else
    None: ``if log := logger(name, DEBUG): log.debug(...)``.  A line below
    WARNING imports ``logging`` only when something else already has (the
    CLI under SERIESDYN_LOG, or any caller that set up handlers)."""
    log = _LOGGERS.get(name)
    if log is None:
        if level < WARNING and "logging" not in sys.modules:
            return None
        import logging
        log = _LOGGERS[name] = logging.getLogger(name)
    return log if log.isEnabledFor(level) else None
