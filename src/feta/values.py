"""Immutable value classes, declared without generated code.

Plain records are named tuples. `Value` is the base of the classes a named
tuple cannot be: those that validate their fields, or that keep derived
results as attributes (expression nodes).
"""

from __future__ import annotations

from functools import wraps

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

    A subclass names its fields in `__match_args__`, in the order of its
    constructor's parameters, which `repr` shows and pickling passes back;
    sets each in its `__init__` with `init_field`; and returns the compared
    ones from `_key`, whose hash is the value's, worked out once (`kept`).
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    @kept
    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # Rebuilt through `__init__`, so no kept result crosses a pickle:
        # a string's hash differs between processes.
        return (self.__class__, tuple(getattr(self, name) for name in self.__match_args__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
