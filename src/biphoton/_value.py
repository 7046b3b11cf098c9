"""Frozen value classes with no code generated at import.

``dataclasses`` writes and ``exec``s an ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and ``__setattr__`` for every class it decorates:
18-28 ms of every start-up for the package's 27 classes on a 2-core host,
against 0.3-0.6 ms for the same classes here. A subclass of :class:`Value`
has its fields read from its annotations once, when the class is made, and
shares the generic methods below, with the semantics of
``@dataclass(frozen=True)``:

- fields in declaration order, base-class fields first; a class attribute
  assigned in the body is the field's default; construction takes them
  positionally or by keyword;
- ``__post_init__`` is looked up on the instance after the fields are set,
  so a wrapper installed on the class sees every construction; it may
  normalize a field with ``object.__setattr__``;
- assignment and deletion raise AttributeError;
- ``==`` and ``hash`` compare the class and the tuple of field values, or,
  with ``class C(Value, eq=False)``, identity (array-holding classes);
- ``repr`` is ``Name(field=value, ...)``.

:func:`fields` and :func:`asdict` stand in for their ``dataclasses``
namesakes. :func:`lazy_oracles` keeps the test oracles, which no run uses,
off the import path while the few old module names ``perfbench`` reaches
still resolve.
"""
from __future__ import annotations

from typing import Callable

MISSING = object()  # the default of a field that has none


class Field:
    """One field of a value class: its name and its default (or ``MISSING``)."""

    __slots__ = ("name", "default")

    def __init__(self, name: str, default):
        self.name = name
        self.default = default


class Value:
    """Base of the package's frozen value classes; see the module docstring."""

    _fields: tuple = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        merged = {f.name: f for f in cls._fields}
        merged.update((name, Field(name, cls.__dict__.get(name, MISSING)))
                      for name in cls.__annotations__)  # the class's own, in order
        cls._fields = tuple(merged.values())
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        put = object.__setattr__
        for f, value in zip(fields, args):
            put(self, f.name, value)
        for f in fields[len(args):]:
            value = kwargs.pop(f.name, f.default)
            if value is MISSING:
                raise TypeError(f"{type(self).__name__}() missing required argument "
                                f"{f.name!r}")
            put(self, f.name, value)
        if kwargs:  # unknown, or also given by position
            raise TypeError(f"{type(self).__name__}() got an unexpected or repeated "
                            f"keyword argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        """Checks and normalizations of one class; none by default."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen value")


def fields(value) -> tuple:
    """The :class:`Field` entries of a value or value class, in declared order."""
    return value._fields


def asdict(value):
    """A value as a dict of its fields, recursing into fields that are values."""
    if not isinstance(value, Value):
        return value
    return {f.name: asdict(getattr(value, f.name)) for f in value._fields}


def lazy_oracles(module: str, names) -> Callable:
    """A module ``__getattr__`` (PEP 562) that takes each of ``names`` from
    ``biphoton.oracles``, importing it on first use; other names raise
    AttributeError."""
    names = frozenset(names)

    def __getattr__(name):
        if name in names:
            from . import oracles
            return getattr(oracles, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__
