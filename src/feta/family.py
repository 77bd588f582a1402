"""Family-level receptiveness, decided once over the featured team.

A family requirement pairs a sender group and action at a team state with an
application condition: the products in which the group is locally ready (its
guards can fire), the specification expects the send to be received, and the
state is actually reachable. The featured team complies when, within the
condition, some suitably guarded team transition lets the group send; it
complies weakly when every product satisfying the condition has a group-free
warm-up leading to such a send. All products are answered at once on the
team's guard and reachability masks (`Fts.guard_masks`, `Fts.reachable_masks`)
and on each condition's mask, built from the same three factors; the
expressions are kept for display and for the per-product route. This must
agree with checking each valid product's own team separately; the
crosscheck functions at the bottom compare results their caller has built
on the two routes, and only they evaluate products one by one.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from typing import NamedTuple

from .automata import Fts, state_key
from .errors import Budget
from .features import (
    And,
    FeatureExpr,
    Product,
    conj,
    disj,
    evaluate,
    format_expr,
    product_index,
    product_set_expr,
    products_mask,
    valid_products,
)
from .receptiveness import (
    STRICT,
    VIOLATED,
    WEAK,
    Requirement,
    ReceptivenessReport,
    _check_mode,
    ready_senders,
    search_weak_compliance,
    sends,
)
from .synctypes import FeaturedSyncSpec
from .system import FeaturedSystem
from .values import Value, init_field

FEATURED_COMPLIANT = "featured-compliant"
FEATURED_WEAKLY_COMPLIANT = "featured-weakly-compliant"


class FamilyRequirement(Value):
    """A sender group, action and state with their application condition.

    `mask` holds the bits of the products satisfying the condition, as
    `expr_mask` would compile it; it follows from the condition, so `==` and
    `hash` leave it out.
    """

    __match_args__ = (
        "state", "senders", "action", "condition", "enabling", "sync_condition",
        "reach_condition", "mask",
    )

    def __init__(
        self, state: tuple, senders: frozenset[str], action: str, condition: FeatureExpr,
        enabling: FeatureExpr, sync_condition: FeatureExpr, reach_condition: FeatureExpr,
        mask: int,
    ) -> None:
        init_field(self, "state", state)
        init_field(self, "senders", senders)
        init_field(self, "action", action)
        init_field(self, "condition", condition)
        init_field(self, "enabling", enabling)
        init_field(self, "sync_condition", sync_condition)
        init_field(self, "reach_condition", reach_condition)
        init_field(self, "mask", mask)

    def _key(self) -> tuple:
        return (
            self.state, self.senders, self.action, self.condition, self.enabling,
            self.sync_condition, self.reach_condition,
        )

    def sort_key(self):
        return (state_key(self.state), self.action, tuple(sorted(self.senders)))

    def __str__(self) -> str:
        group = ",".join(sorted(self.senders))
        st = "(" + ",".join(self.state) + ")"
        return f"[{format_expr(self.condition)}] rcp({{{group}}}, {self.action}) @ {st}"


class FamilyVerdict(NamedTuple):
    """How one family requirement fared across the whole family."""

    requirement: FamilyRequirement
    status: str
    witnesses: tuple
    violation_product: Product | None


class FamilyReport(NamedTuple):
    mode: str
    entries: tuple[FamilyVerdict, ...]
    warnings: tuple[str, ...]

    @property
    def holds(self) -> bool:
        if self.mode == STRICT:
            return all(e.status == FEATURED_COMPLIANT for e in self.entries)
        return all(e.status != VIOLATED for e in self.entries)

    @property
    def violations(self) -> tuple[FamilyVerdict, ...]:
        if self.mode == STRICT:
            return tuple(e for e in self.entries if e.status != FEATURED_COMPLIANT)
        return tuple(e for e in self.entries if e.status == VIOLATED)


def _products_in(feta: Fts, mask: int) -> tuple[Product, ...]:
    """The valid products whose bit is set in the mask, in lexicographic order."""
    return tuple(
        p for p in valid_products(feta.feature_model, feta.space)
        if mask >> product_index(p) & 1
    )


def _union(masks) -> int:
    out = 0
    for mask in masks:
        out |= mask
    return out


def reachable_products(feta: Fts, state) -> tuple[Product, ...]:
    """Valid products under which the state is reachable in the featured team."""
    return _products_in(feta, feta.reachable_masks.get(state, 0))


def _local_sends(fsys: FeaturedSystem, name: str, action: str, state: tuple):
    """The local transitions on the action from the component's part of the state."""
    comp = fsys.components[name]
    local = state[fsys.names.index(name)]
    return comp, [t for t in comp.successors_from(local) if t[1] == action]


def senders_guard(
    fsys: FeaturedSystem, group: frozenset[str], action: str, state: tuple
) -> FeatureExpr:
    """Products in which every group member can locally fire the action."""
    parts = []
    for name in fsys.names:
        if name in group:
            comp, steps = _local_sends(fsys, name, action, state)
            parts.append(disj(comp.guards[t] for t in steps))
    return conj(parts)


def products_for_group(
    fspec: FeaturedSyncSpec, group: frozenset[str], action: str
) -> tuple[Product, ...]:
    """Valid products whose type lets this group send and forbids zero receivers."""
    out = []
    for product in valid_products(fspec.feature_model, fspec.space):
        st = fspec.lookup(product, action)
        if st.senders.contains(len(group)) and not st.receivers.contains(0):
            out.append(product)
    return tuple(out)


def derive_family_requirements(
    feta: Fts,
    fsys: FeaturedSystem,
    fspec: FeaturedSyncSpec,
    budget: Budget = Budget(),
) -> tuple[FamilyRequirement, ...]:
    """All family requirements with a satisfiable application condition.

    Groups are drawn from components that output the action and are locally
    ready for it ignoring guards; readiness of the guards, fit with the
    synchronisation types and reachability of the state each contribute one
    conjunct of the condition. States no valid product can reach yield
    nothing. The condition's mask is the AND of the factors' masks: the
    members' local guard masks, the bits of the products whose type admits
    the group and the state's reachability mask. The sync factor is worked
    out once per group size and action; the enabling and reach expressions
    only for the groups that remain.
    """
    out: list[FamilyRequirement] = []
    sync: dict[tuple[int, str], tuple[FeatureExpr, int]] = {}
    for q in feta.states:
        reach_mask = feta.reachable_masks[q]
        if not reach_mask:
            continue
        reach_condition = None
        for action in sorted(fsys.actions):
            ready = ready_senders(fsys, q, action, budget)
            enabling_masks = {}
            for name in ready:
                comp, steps = _local_sends(fsys, name, action, q)
                enabling_masks[name] = _union(comp.guard_masks[t] for t in steps)
            for size in range(1, len(ready) + 1):
                key = (size, action)
                if key not in sync:
                    allowed = products_for_group(fspec, ready[:size], action)
                    sync[key] = (product_set_expr(allowed, feta.space), products_mask(allowed))
                sync_condition, sync_mask = sync[key]
                size_mask = sync_mask & reach_mask
                if not size_mask:
                    continue
                for names in itertools.combinations(ready, size):
                    mask = size_mask
                    for name in names:
                        mask &= enabling_masks[name]
                    if not mask:
                        continue
                    group = frozenset(names)
                    if reach_condition is None:
                        reach_condition = product_set_expr(
                            _products_in(feta, reach_mask), feta.space
                        )
                    enabling = senders_guard(fsys, group, action, q)
                    condition = And((enabling, sync_condition, reach_condition))
                    out.append(
                        FamilyRequirement(
                            q, group, action, condition,
                            enabling, sync_condition, reach_condition, mask,
                        )
                    )
    out.sort(key=FamilyRequirement.sort_key)
    return tuple(out)


def check_family_compliance(feta: Fts, freq: FamilyRequirement) -> FamilyVerdict:
    """Does the condition entail that some guarded send of the group fires?

    Decided on the candidate transitions' guard masks; the candidates are the
    witnesses. On violation, the first valid product satisfying the
    condition but none of the guards is reported.
    """
    candidates = [t for t in feta.successors_from(freq.state) if sends(t, freq)]
    uncovered = freq.mask & ~_union(feta.guard_masks[t] for t in candidates)
    if not uncovered:
        return FamilyVerdict(freq, FEATURED_COMPLIANT, tuple(candidates), None)
    culprit = next(iter(_products_in(feta, uncovered)), None)
    return FamilyVerdict(freq, VIOLATED, (), culprit)


def check_family_weak_compliance(feta: Fts, freq: FamilyRequirement) -> FamilyVerdict:
    """Per product satisfying the condition: warm up without the group, then send.

    Each product's shortest witness is searched on the team's transitions
    whose guard mask holds the product's bit. The verdict carries one witness
    path per product and, on failure, the first product with no witness.
    """
    req = Requirement(freq.state, freq.senders, freq.action)
    masks = feta.guard_masks
    witnesses = []
    for product in _products_in(feta, freq.mask):
        bit = 1 << product_index(product)

        def successors(state, bit=bit):
            return [t for t in feta.successors_from(state) if masks[t] & bit]

        verdict = search_weak_compliance(req, successors)
        if verdict.status == VIOLATED:
            return FamilyVerdict(freq, VIOLATED, tuple(witnesses), product)
        witnesses.append((product, verdict.witness))
    return FamilyVerdict(freq, FEATURED_WEAKLY_COMPLIANT, tuple(witnesses), None)


def check_family_receptiveness(
    feta: Fts,
    fsys: FeaturedSystem,
    fspec: FeaturedSyncSpec,
    mode: str = STRICT,
    budget: Budget = Budget(),
) -> FamilyReport:
    """Verdict over all family requirements, in strict or weak mode."""
    _check_mode(mode)
    warnings_: list[str] = []
    if not valid_products(feta.feature_model, feta.space):
        warnings_.append("the feature model has no valid products; receptiveness holds vacuously")
    entries = []
    for freq in derive_family_requirements(feta, fsys, fspec, budget):
        verdict = check_family_compliance(feta, freq)
        if verdict.status == VIOLATED and mode == WEAK:
            verdict = check_family_weak_compliance(feta, freq)
        entries.append(verdict)
    return FamilyReport(mode, tuple(entries), tuple(warnings_))


# --- cross-checks between the family route and the per-product route -------


class ProjectionAgreement(NamedTuple):
    """Per product: requirements read off the family versus derived directly."""

    product: Product
    only_in_family: tuple
    only_in_product: tuple

    @property
    def ok(self) -> bool:
        return not (self.only_in_family or self.only_in_product)


def crosscheck_requirement_projection(
    freqs: Iterable[FamilyRequirement], product: Product, own_reqs: Iterable[Requirement]
) -> ProjectionAgreement:
    """The family requirements whose condition the product satisfies must be
    exactly the product's own requirements, `own_reqs`, as `derive_requirements`
    gives them on the product's own team.
    """
    family_side = {(f.state, f.senders, f.action) for f in freqs if evaluate(f.condition, product)}
    product_side = {(r.state, r.senders, r.action) for r in own_reqs}
    return ProjectionAgreement(
        product,
        tuple(sorted(family_side - product_side, key=str)),
        tuple(sorted(product_side - family_side, key=str)),
    )


def crosscheck_compliance_unfolding(feta: Fts, verdict: FamilyVerdict) -> bool:
    """A strict family verdict must match product-by-product unfolding."""
    freq = verdict.requirement
    candidates = [t for t in feta.successors_from(freq.state) if sends(t, freq)]
    unfolded = all(
        any(evaluate(feta.guards[t], p) for t in candidates)
        for p in valid_products(feta.feature_model, feta.space)
        if evaluate(freq.condition, p)
    )
    return (verdict.status == FEATURED_COMPLIANT) == unfolded


class FamilyProductsAgreement(NamedTuple):
    """Family verdict versus the conjunction of per-product verdicts."""

    mode: str
    family_holds: bool
    product_verdicts: tuple[tuple[Product, bool], ...]

    @property
    def products_hold(self) -> bool:
        return all(holds for _, holds in self.product_verdicts)

    @property
    def ok(self) -> bool:
        return self.family_holds == self.products_hold


def crosscheck_family_vs_products(
    family_report: FamilyReport,
    product_reports: Iterable[tuple[Product, ReceptivenessReport]],
) -> FamilyProductsAgreement:
    """Family receptiveness must equal receptiveness of every product's team.

    `product_reports` pairs each valid product with `check_receptiveness` of
    its own team, in the family report's mode.
    """
    verdicts = tuple((product, report.holds) for product, report in product_reports)
    return FamilyProductsAgreement(family_report.mode, family_report.holds, verdicts)
