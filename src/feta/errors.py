"""Exception types shared across the package."""

from __future__ import annotations


class FetaError(Exception):
    """Base class for all errors raised by this package."""


class SpecificationError(FetaError):
    """An ill-formed model: unknown names, broken invariants, bad references."""


class InvalidProductError(FetaError):
    """A product was used that does not satisfy the feature model."""


class TotalityError(FetaError):
    """A synchronisation type specification leaves some (product, action) pair uncovered."""


class ResourceLimitError(FetaError):
    """An analysis would exceed a configured state, product or participant bound."""
