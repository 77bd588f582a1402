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

from collections import namedtuple
from collections.abc import Mapping

from .errors import InvalidProductError, SpecificationError, TotalityError
from .features import (
    FeatureExpr,
    FeatureSpace,
    Product,
    evaluate,
    expr_mask,
    format_expr,
    mask_union,
    model_mask,
    product_bits,
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


class SyncType(namedtuple("SyncType", "senders receivers")):
    """How many senders and receivers a transition of one action may have."""

    __slots__ = ()

    def admits(self, n_senders: int, n_receivers: int) -> bool:
        """Whether these participant counts fit the type."""
        return self.senders.contains(n_senders) and self.receivers.contains(n_receivers)

    def __str__(self) -> str:
        return f"{self.senders} -> {self.receivers}"


def transition_satisfies(transition, sync_type: SyncType) -> bool:
    """Whether the transition's participant counts fit the type."""
    label = transition.label
    return sync_type.admits(len(label.senders), len(label.receivers))


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


class SyncRule(namedtuple("SyncRule", "guard actions sync_type")):
    """One guarded rule; actions is None for a rule covering every action."""

    __slots__ = ()

    def covers(self, action: str) -> bool:
        return self.actions is None or action in self.actions

    def __str__(self) -> str:
        names = "default" if self.actions is None else ",".join(sorted(self.actions))
        return f"{names}: {self.sync_type} when {format_expr(self.guard)}"


class ActionTable(namedtuple("ActionTable", "rules uncovered")):
    """One action's first match for all valid products, as `expr_mask` bits.

    `rules` has a (type, matches, decides) triple per covering rule, in order:
    the valid products satisfying its guard, and those of them that no earlier
    covering rule matches. No covering rule matches those in `uncovered`.
    """

    __slots__ = ()


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
        self._tables: dict[str, ActionTable] | None = None

    def lookup(self, product: Product, action: str) -> SyncType:
        """First-match rule lookup for one product and action (the per-product route)."""
        if action not in self.alphabet:
            raise SpecificationError(f"unknown action {action!r}")
        for rule in self.rules:
            if rule.covers(action) and evaluate(rule.guard, product):
                return rule.sync_type
        raise TotalityError(
            f"no synchronisation type for product {product} and action {action!r}"
        )

    def project(self, product: Product) -> SyncTypeSpec:
        """The per-action type map seen by one valid product."""
        if not evaluate(self.feature_model, product):
            raise InvalidProductError(f"product {product} does not satisfy the feature model")
        return SyncTypeSpec({a: self.lookup(product, a) for a in sorted(self.alphabet)})

    def table(self, action: str) -> ActionTable:
        """The action's first match for all products at once (the family route),
        built for all actions on first use and kept on the instance.
        """
        if action not in self.alphabet:
            raise SpecificationError(f"unknown action {action!r}")
        if self._tables is None:
            valid = model_mask(self.feature_model, self.space)
            guards = [expr_mask(rule.guard, self.space) & valid for rule in self.rules]
            self._tables = {}
            for name in self.alphabet:
                rows, left = [], valid
                for rule, guard in zip(self.rules, guards):
                    if rule.covers(name):
                        rows.append((rule.sync_type, guard, guard & left))
                        left &= ~guard
                self._tables[name] = ActionTable(tuple(rows), left)
        return self._tables[action]

    def allowed_products(self, action: str, n_senders: int, n_receivers: int) -> int:
        """The valid products whose type for the action admits these participant counts."""
        return mask_union(
            decides for st, _, decides in self.table(action).rules
            if st.admits(n_senders, n_receivers)
        )

    def validate_total(self) -> tuple[tuple[Product, str], ...]:
        """The (product, action) pairs that no rule covers, by product in
        `valid_products` order, then by action; empty when the spec is total.
        """
        return self._by_product([(a, self.table(a).uncovered) for a in sorted(self.alphabet)])

    def find_overlaps(self) -> tuple[tuple[Product, str, SyncType, SyncType], ...]:
        """(product, action, first, later) where a later matching rule gives
        another type than the first match; per pair the first such rule, in
        the order of `validate_total`.
        """
        found = []
        for action in sorted(self.alphabet):
            rows = self.table(action).rules
            for idx, (first, _, left) in enumerate(rows):
                for later, matches, _ in rows[idx + 1:]:
                    if later != first and left & matches:
                        found.append((action, left & matches, first, later))
                        left &= ~matches
        return self._by_product(found)

    def _by_product(self, found) -> tuple:
        """`(product, action, *rest)` per `(action, mask, *rest)` and product in `mask`."""
        union = mask_union(mask for _, mask, *_ in found)
        return tuple(
            (product, action, *rest)
            for product, bit in product_bits(union, self.feature_model, self.space)
            for action, mask, *rest in found
            if mask >> bit & 1
        )
