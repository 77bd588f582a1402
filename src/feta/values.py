"""Immutable value classes, declared without generated code.

Plain records are named tuples. `Value` is the base of the classes a named
tuple cannot be: those that validate their fields, that keep derived
results as attributes (expression nodes), or that leave a field out of
comparison, which a tuple's own `!=` and ordering would still compare.
"""

from __future__ import annotations

# Sets a field in `__init__`, past the frozen `__setattr__`.
init_field = object.__setattr__


class Value:
    """Immutable; equal to a value of the same class whose `_key()` is equal.

    A subclass names its fields in `__match_args__`, which `repr` shows,
    sets each in its `__init__` with `init_field`, and returns the compared
    ones from `_key`, whose hash is the value's.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
