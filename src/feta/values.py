"""Immutable value classes, declared without generated code.

Plain records are named tuples. `Value` is the base of the classes a named
tuple cannot be: those that validate their fields, or that keep derived
results as attributes (expression nodes). A subclass declares its fields
once, in `__match_args__`.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter

# Sets a field in `__init__`, past the frozen `__setattr__`.
init_field = object.__setattr__


def kept(fn):
    """Keep `fn(value)` on the value itself, so a shared value is done once.

    Family conditions share their sync and reach factors, which are large
    disjunctions of products; the result, never None, lives and dies with
    the value. It is an attribute because reading `__dict__` would give the
    value a dictionary of its own (66 bytes per node on CPython 3.11).
    """
    key = f"_{fn.__name__}"

    @wraps(fn)
    def keep(value):
        result = getattr(value, key, None)
        if result is None:
            result = fn(value)
            init_field(value, key, result)
        return result

    return keep


class Value:
    """Immutable; equal to a value of the same class whose `_key()` is equal.

    A subclass declares its fields once, in `__match_args__`, in the order
    of its constructor's parameters, and sets each in its `__init__` with
    `init_field`. `repr` shows them, pickling passes them back, `_key()`
    returns them as a tuple, whose hash is the value's, worked out once
    (`kept`), and `__eq__` compares them as `_fields_of` reads them, which
    costs no Python call.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__match_args__")
        if fields:
            get = attrgetter(*fields)
            cls._fields_of = staticmethod(get)
            # `attrgetter` of one name gives the field itself, not a tuple.
            cls._key = (lambda self: (get(self),)) if len(fields) == 1 else lambda self: get(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._fields_of
            return get(self) == get(other)
        return NotImplemented

    @kept
    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # Rebuilt through `__init__`, so no kept result crosses a pickle:
        # a string's hash differs between processes.
        return (self.__class__, self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
