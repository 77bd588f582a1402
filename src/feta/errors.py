"""Exception types shared across the package, and the resource budget."""

from __future__ import annotations

from collections import namedtuple


class FetaError(Exception):
    """Base class for all errors raised by this package."""


class SpecificationError(FetaError):
    """An ill-formed model: unknown names, broken invariants, bad references."""


class InvalidProductError(FetaError):
    """A product was used that does not satisfy the feature model."""


class TotalityError(FetaError):
    """A synchronisation type specification leaves some (product, action) pair uncovered."""


class ResourceLimitError(FetaError):
    """An analysis would exceed a bound of its `Budget`; `bound` names the field."""

    def __init__(self, message: str, bound: str) -> None:
        super().__init__(message)
        self.bound = bound


class Budget(
    namedtuple("Budget", "states participants products", defaults=(10**6, 20, 1 << 16))
):
    """The resource bounds of an analysis, one field per `--max-*` flag.

    `states` bounds the team states a builder materialises, `participants`
    the ready participants (or senders) of one action at a state, and
    `products` the products of a feature space, valid or not; its default
    is also the ceiling of the bit-mask encoding.
    """

    __slots__ = ()

    def check(self, bound: str, count: int, counted: str) -> None:
        """Refuse `count` items against the named bound; `counted` says what they are."""
        limit = getattr(self, bound)
        if count > limit:
            raise ResourceLimitError(f"{counted}: {count}, above the bound {limit}", bound)
