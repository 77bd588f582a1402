"""Synchronisation types and their featured specifications.

A synchronisation type is a pair of intervals constraining how many senders
and how many receivers a system transition may have; `[1,*]` means one or
more. A plain specification assigns a type to every action. A featured
specification is an ordered list of guarded rules; the type of an action in
a given product is taken from the first rule whose guard the product
satisfies and whose action set covers the action. The specification must be
total: every valid product and every action must hit some rule.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .errors import InvalidProductError, SpecificationError, TotalityError
from .features import (
    FeatureExpr,
    FeatureSpace,
    Product,
    evaluate,
    format_expr,
    valid_products,
)
from .values import Value, init_field

# Upper bound of an interval without a finite maximum.
STAR = None


class Interval(Value):
    """A closed integer interval [lo, hi]; hi may be STAR for "no maximum"."""

    __match_args__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int | None) -> None:
        if lo < 0:
            raise SpecificationError(f"interval minimum {lo} is negative")
        if hi is not STAR and hi < lo:
            raise SpecificationError(f"empty interval [{lo},{hi}]")
        init_field(self, "lo", lo)
        init_field(self, "hi", hi)

    def _key(self) -> tuple:
        return (self.lo, self.hi)

    def contains(self, value: int) -> bool:
        return value >= self.lo and (self.hi is STAR or value <= self.hi)

    def __str__(self) -> str:
        hi = "*" if self.hi is STAR else str(self.hi)
        return f"[{self.lo},{hi}]"


class SyncType(NamedTuple):
    """How many senders and receivers a transition of one action may have."""

    senders: Interval
    receivers: Interval

    def __str__(self) -> str:
        return f"{self.senders} -> {self.receivers}"


def transition_satisfies(transition, sync_type: SyncType) -> bool:
    """Whether the transition's participant counts fit the type."""
    return sync_type.senders.contains(len(transition.label.senders)) and (
        sync_type.receivers.contains(len(transition.label.receivers))
    )


class SyncTypeSpec:
    """A total map from actions to synchronisation types (one product's view)."""

    __match_args__ = ("types",)

    def __init__(self, types: Mapping[str, SyncType]) -> None:
        self.types = dict(types)

    def for_action(self, action: str) -> SyncType:
        try:
            return self.types[action]
        except KeyError:
            raise TotalityError(f"no synchronisation type for action {action!r}") from None

    def actions(self) -> frozenset[str]:
        return frozenset(self.types)


class SyncRule(NamedTuple):
    """One guarded rule; actions is None for a rule covering every action."""

    guard: FeatureExpr
    actions: frozenset[str] | None
    sync_type: SyncType

    def covers(self, action: str) -> bool:
        return self.actions is None or action in self.actions

    def __str__(self) -> str:
        names = "default" if self.actions is None else ",".join(sorted(self.actions))
        return f"{names}: {self.sync_type} when {format_expr(self.guard)}"


class FeaturedSyncSpec:
    """An ordered, guarded rule list assigning types per product and action."""

    __match_args__ = ("rules", "alphabet", "space", "feature_model")

    def __init__(
        self, rules: tuple[SyncRule, ...], alphabet: frozenset[str], space: FeatureSpace,
        feature_model: FeatureExpr,
    ) -> None:
        self.rules = tuple(rules)
        self.alphabet = frozenset(alphabet)
        self.space = space
        self.feature_model = feature_model
        for rule in self.rules:
            if rule.actions is not None and not rule.actions <= self.alphabet:
                unknown = sorted(rule.actions - self.alphabet)
                raise SpecificationError(f"sync rule names unknown actions {unknown}")
        self._allowed: dict[tuple[str, int, int], tuple[Product, ...]] = {}
        self._missing: tuple[tuple[Product, str], ...] | None = None

    def lookup(self, product: Product, action: str) -> SyncType:
        """First-match rule lookup for one product and action."""
        if action not in self.alphabet:
            raise SpecificationError(f"unknown action {action!r}")
        for rule in self.rules:
            if rule.covers(action) and evaluate(rule.guard, product):
                return rule.sync_type
        raise TotalityError(
            f"no synchronisation type for product {product} and action {action!r}"
        )

    def validate_total(self) -> tuple[tuple[Product, str], ...]:
        """The (product, action) pairs left uncovered; empty when total.

        Memoised on the instance, like `allowed_products`.
        """
        if self._missing is None:
            missing = []
            for product in valid_products(self.feature_model, self.space):
                for action in sorted(self.alphabet):
                    if not any(
                        rule.covers(action) and evaluate(rule.guard, product)
                        for rule in self.rules
                    ):
                        missing.append((product, action))
            self._missing = tuple(missing)
        return self._missing

    def find_overlaps(self) -> tuple[tuple[Product, str, SyncType, SyncType], ...]:
        """Pairs where a later rule would assign a different type than the match."""
        out = []
        for product in valid_products(self.feature_model, self.space):
            for action in sorted(self.alphabet):
                hits = [
                    rule.sync_type
                    for rule in self.rules
                    if rule.covers(action) and evaluate(rule.guard, product)
                ]
                for later in hits[1:]:
                    if later != hits[0]:
                        out.append((product, action, hits[0], later))
                        break
        return tuple(out)

    def project(self, product: Product) -> SyncTypeSpec:
        """The per-action type map seen by one valid product."""
        if not evaluate(self.feature_model, product):
            raise InvalidProductError(f"product {product} does not satisfy the feature model")
        return SyncTypeSpec({a: self.lookup(product, a) for a in sorted(self.alphabet)})

    def allowed_products(
        self, action: str, n_senders: int, n_receivers: int
    ) -> tuple[Product, ...]:
        """Valid products whose type for the action admits these participant counts.

        Memoised on the instance, so the memo lives exactly as long as the spec.
        """
        key = (action, n_senders, n_receivers)
        if key not in self._allowed:
            out = []
            for product in valid_products(self.feature_model, self.space):
                st = self.lookup(product, action)
                if st.senders.contains(n_senders) and st.receivers.contains(n_receivers):
                    out.append(product)
            self._allowed[key] = tuple(out)
        return self._allowed[key]
