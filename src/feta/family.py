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
from collections import namedtuple
from collections.abc import Iterable

from .automata import Fts
from .errors import Budget
from .features import (
    And,
    FeatureExpr,
    Product,
    conj,
    disj,
    evaluator,
    first_product_in,
    format_expr,
    mask_union,
    product_bits,
    products_in,
    valid_products,
)
from .receptiveness import (
    FEATURED_COMPLIANT,
    FEATURED_WEAKLY_COMPLIANT,
    STRICT,
    VIOLATED,
    WEAK,
    Requirement,
    ReceptivenessReport,
    _check_mode,
    ready_senders,
    search_weak_compliance,
)
from .synctypes import FeaturedSyncSpec
from .system import FeaturedSystem


class FamilyRequirement(
    namedtuple(
        "FamilyRequirement",
        "state senders action mask enabling sync_condition reach_condition",
    )
):
    """A sender group, action and state with the three factors of their
    application condition and its mask, the bits of the products
    satisfying it, as `expr_mask` would compile it.
    """

    __slots__ = ()

    @property
    def condition(self) -> FeatureExpr:
        """The application condition, the factors' conjunction, built when read."""
        return And((self.enabling, self.sync_condition, self.reach_condition))

    sort_key = Requirement.sort_key

    def __str__(self) -> str:
        return f"[{format_expr(self.condition)}] {Requirement.__str__(self)}"


class FamilyVerdict(
    namedtuple("FamilyVerdict", "requirement status witnesses violation_product")
):
    """How one family requirement fared across the whole family."""

    __slots__ = ()


def reachable_products(feta: Fts, state) -> tuple[Product, ...]:
    """Valid products under which the state is reachable in the featured team."""
    return products_in(feta.reachable_masks.get(state, 0), feta.feature_model, feta.space)


def _enabling_part(comp, local, action: str) -> tuple[FeatureExpr, int]:
    """The disjunction of the component's local guards on the action from
    the local state, and the OR of their masks, from one scan of its steps."""
    steps = [t for t in comp.successors_from(local) if t[1] == action]
    return disj(comp.guards[t] for t in steps), mask_union(comp.guard_masks[t] for t in steps)


def products_for_group(fspec: FeaturedSyncSpec, group: frozenset[str], action: str) -> int:
    """The valid products whose type lets this group send and forbids zero receivers."""
    return mask_union(
        decides for st, _, decides in fspec.table(action).rules
        if st.senders.contains(len(group)) and not st.receivers.contains(0)
    )


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
    the group and the state's reachability mask. The sync and reach factors
    are the system's one expression per mask (`FeaturedSystem.products_expr`),
    shared with the teams' guards. A member's enabling part, its local
    guards' disjunction and mask, is worked out once per component, local
    state and action, so identical instances share it.
    """
    out: list[FamilyRequirement] = []
    sync: dict[tuple[int, str], int] = {}
    enabling_parts: dict[tuple, tuple[FeatureExpr, int]] = {}
    actions = sorted(fsys.actions)
    for q in feta.states:
        reach_mask = feta.reachable_masks[q]
        if not reach_mask:
            continue
        for action in actions:
            ready = ready_senders(fsys, q, action, budget)
            parts = {}
            for name in ready:
                key = (fsys.components[name], q[fsys.names.index(name)], action)
                if key not in enabling_parts:
                    enabling_parts[key] = _enabling_part(*key)
                parts[name] = enabling_parts[key]
            for size in range(1, len(ready) + 1):
                key = (size, action)
                if key not in sync:
                    sync[key] = products_for_group(fspec, ready[:size], action)
                sync_mask = sync[key]
                size_mask = sync_mask & reach_mask
                if not size_mask:
                    continue
                for names in itertools.combinations(ready, size):
                    mask = size_mask
                    for name in names:
                        mask &= parts[name][1]
                    if not mask:
                        continue
                    out.append(
                        FamilyRequirement(
                            q, frozenset(names), action, mask,
                            conj(parts[name][0] for name in names),
                            fsys.products_expr(sync_mask), fsys.products_expr(reach_mask),
                        )
                    )
    out.sort(key=FamilyRequirement.sort_key)
    return tuple(out)


def _candidates(feta: Fts, freq: FamilyRequirement) -> list:
    """The transitions from the requirement's state that let exactly its
    group send the action to someone (`sends`), in `successors_from` order;
    the team groups its sends once.
    """
    return feta._sends.get((freq.state, freq.senders, freq.action), [])


def check_family_compliance(feta: Fts, freq: FamilyRequirement) -> FamilyVerdict:
    """Does the condition entail that some guarded send of the group fires?

    Decided on the candidate transitions' guard masks; the candidates are the
    witnesses. On violation, the first valid product satisfying the
    condition but none of the guards is reported.
    """
    candidates = _candidates(feta, freq)
    uncovered = freq.mask & ~mask_union(feta.guard_masks[t] for t in candidates)
    if not uncovered:
        return FamilyVerdict(freq, FEATURED_COMPLIANT, tuple(candidates), None)
    culprit = first_product_in(uncovered, feta.feature_model, feta.space)
    return FamilyVerdict(freq, VIOLATED, (), culprit)


def check_family_weak_compliance(feta: Fts, freq: FamilyRequirement) -> FamilyVerdict:
    """Per product satisfying the condition: warm up without the group, then send.

    Each product's shortest witness is searched on the team's transitions
    whose guard mask holds the product's bit. The verdict carries one witness
    path per product and, on failure, the first product with no witness.
    """
    masks = feta.guard_masks
    witnesses = []
    for product, bit in product_bits(freq.mask, feta.feature_model, feta.space):

        def successors(state, bit=bit):
            return [t for t in feta.successors_from(state) if masks[t] >> bit & 1]

        verdict = search_weak_compliance(freq, successors)
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
) -> ReceptivenessReport:
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
    return ReceptivenessReport(mode, tuple(entries), tuple(warnings_))


# --- cross-checks between the family route and the per-product route -------


class ProjectionAgreement(
    namedtuple("ProjectionAgreement", "product only_in_family only_in_product")
):
    """Per product: requirements read off the family versus derived directly."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not (self.only_in_family or self.only_in_product)


def crosscheck_requirement_projection(
    freqs: Iterable[FamilyRequirement], product: Product, own_reqs: Iterable[Requirement]
) -> ProjectionAgreement:
    """The family requirements whose condition the product satisfies must be
    exactly the product's own requirements, `own_reqs`, as `derive_requirements`
    gives them on the product's own team. Each distinct factor of the
    conditions is evaluated once.
    """
    satisfied = evaluator(product)
    family_side = {(f.state, f.senders, f.action) for f in freqs if satisfied(f.condition)}
    product_side = {(r.state, r.senders, r.action) for r in own_reqs}
    return ProjectionAgreement(
        product,
        tuple(sorted(family_side - product_side, key=str)),
        tuple(sorted(product_side - family_side, key=str)),
    )


def crosscheck_compliance_unfolding(
    feta: Fts, verdicts: Iterable[FamilyVerdict]
) -> tuple[FamilyVerdict, ...]:
    """The verdicts, in their order, that disagree with the products: each
    must be featured-compliant exactly when every valid product satisfying
    its condition satisfies the guard of some transition that lets the group
    send. Weak mode keeps each strictly compliant entry's status and
    re-decides only the violated ones, so its verdicts serve as well as
    strict ones.

    Product by product, every distinct condition factor and candidate guard
    is evaluated once for all the verdicts.
    """
    rows = [
        (v, v.requirement.condition, [feta.guards[t] for t in _candidates(feta, v.requirement)])
        for v in verdicts
    ]
    unfolded = [True] * len(rows)
    for product in valid_products(feta.feature_model, feta.space):
        satisfied = evaluator(product)
        for idx, (_, condition, guards) in enumerate(rows):
            if (
                unfolded[idx]
                and satisfied(condition)
                and not any(satisfied(g) for g in guards)
            ):
                unfolded[idx] = False
    return tuple(
        verdict
        for (verdict, _, _), unfolds in zip(rows, unfolded)
        if (verdict.status == FEATURED_COMPLIANT) != unfolds
    )


class FamilyProductsAgreement(
    namedtuple("FamilyProductsAgreement", "mode family_holds product_verdicts")
):
    """Family verdict versus the conjunction of per-product verdicts."""

    __slots__ = ()

    @property
    def products_hold(self) -> bool:
        return all(holds for _, holds in self.product_verdicts)

    @property
    def ok(self) -> bool:
        return self.family_holds == self.products_hold


def crosscheck_family_vs_products(
    family_report: ReceptivenessReport,
    product_reports: Iterable[tuple[Product, ReceptivenessReport]],
) -> FamilyProductsAgreement:
    """Family receptiveness must equal receptiveness of every product's team.

    `product_reports` pairs each valid product with `check_receptiveness` of
    its own team, in the family report's mode.
    """
    verdicts = tuple((product, report.holds) for product, report in product_reports)
    return FamilyProductsAgreement(family_report.mode, family_report.holds, verdicts)
