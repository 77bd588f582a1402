"""Building team automata from systems and synchronisation specifications.

A plain team keeps exactly the induced system transitions whose participant
counts fit the type of their action. The featured team keeps every induced
transition and guards it instead: the guard is the conjunction of the local
guards of all participants and of the expression describing the set of valid
products whose synchronisation type admits the transition. Projecting the
featured team onto a valid product must coincide with first projecting the
system and the specification and then building the plain team; the
commutation check below compares the two constructions transition by
transition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .automata import Fts, Lts, state_key, transition_key
from .errors import TotalityError
from .features import (
    And,
    FeatureExpr,
    Product,
    conj,
    product_set_expr,
    products_mask,
)
from .synctypes import FeaturedSyncSpec, SyncTypeSpec, transition_satisfies
from .system import (
    DEFAULT_PARTICIPANT_LIMIT,
    DEFAULT_STATE_LIMIT,
    FeaturedSystem,
    System,
    SystemTransition,
)


class OpenSystemWarning(UserWarning):
    """A team is being built over a system with unmatched inputs or outputs."""


def _local_steps(fsys: FeaturedSystem, transition: SystemTransition):
    """(component, local transition) of every participant, in system order."""
    involved = transition.label.participants()
    for idx, name in enumerate(fsys.names):
        if name in involved:
            local = (transition.source[idx], transition.action, transition.target[idx])
            yield fsys.components[name], local


def participants_guard(fsys: FeaturedSystem, transition: SystemTransition) -> FeatureExpr:
    """Conjunction of the local guards of every participant's step."""
    return conj(comp.guards[local] for comp, local in _local_steps(fsys, transition))


def products_allowing(
    fspec: FeaturedSyncSpec, transition: SystemTransition
) -> tuple[Product, ...]:
    """Valid products whose type for the transition's action admits it."""
    return fspec.allowed_products(
        transition.action, len(transition.senders), len(transition.receivers)
    )


def _warn_if_open(sys) -> None:
    report = sys.validate_closed()
    if not report.ok:
        gaps = []
        if report.missing_senders:
            gaps.append(f"no sender for {', '.join(report.missing_senders)}")
        if report.missing_receivers:
            gaps.append(f"no receiver for {', '.join(report.missing_receivers)}")
        warnings.warn(f"system is not closed: {'; '.join(gaps)}", OpenSystemWarning, stacklevel=3)


def build_featured_team(
    fsys: FeaturedSystem,
    fspec: FeaturedSyncSpec,
    max_states: int = DEFAULT_STATE_LIMIT,
    max_participants: int = DEFAULT_PARTICIPANT_LIMIT,
) -> Fts:
    """The featured team automaton of a featured system and specification.

    Every induced transition is kept and receives the guard described above,
    stored as the plain two-part conjunction without simplification; all
    transitions with the same action and participant counts share one sync
    expression. The guard masks are built from the same two parts, the
    participants' local guard masks and the bits of the allowed products,
    without compiling the guards. The specification must be total over the
    valid products.
    """
    missing = fspec.validate_total()
    if missing:
        product, action = missing[0]
        raise TotalityError(
            f"specification misses {len(missing)} (product, action) pairs,"
            f" first {product} / {action!r}"
        )
    _warn_if_open(fsys)
    states, transitions = fsys.state_space(max_states, max_participants)
    sync: dict[tuple[str, int, int], tuple[FeatureExpr, int]] = {}
    guards, masks = {}, {}
    for t in transitions:
        key = (t.action, len(t.senders), len(t.receivers))
        if key not in sync:
            allowed = products_allowing(fspec, t)
            sync[key] = (product_set_expr(allowed, fsys.space), products_mask(allowed))
        sync_expr, mask = sync[key]
        guards[t] = And((participants_guard(fsys, t), sync_expr))
        for comp, local in _local_steps(fsys, t):
            mask &= comp.guard_masks[local]
        masks[t] = mask
    return Fts(
        states=states,
        initial=fsys.initial_states(),
        actions=fsys.actions,
        transitions=transitions,
        space=fsys.space,
        feature_model=fsys.feature_model,
        guards=guards,
        masks=masks,
    )


def build_team(
    sys: System,
    spec: SyncTypeSpec,
    max_states: int = DEFAULT_STATE_LIMIT,
    max_participants: int = DEFAULT_PARTICIPANT_LIMIT,
) -> Lts:
    """The plain team automaton: induced transitions filtered by the types."""
    _warn_if_open(sys)
    states, transitions = sys.state_space(max_states, max_participants)
    kept = tuple(
        t for t in transitions if transition_satisfies(t, spec.for_action(t.action))
    )
    return Lts(
        states=states,
        initial=sys.initial_states(),
        actions=sys.actions,
        transitions=kept,
    )


def product_team(
    fsys: FeaturedSystem,
    fspec: FeaturedSyncSpec,
    product: Product,
    max_states: int = DEFAULT_STATE_LIMIT,
    max_participants: int = DEFAULT_PARTICIPANT_LIMIT,
) -> tuple[Lts, SyncTypeSpec, System]:
    """The product's own team, specification and system: the per-product route.

    A projected system may be open where the family is closed; that warning is silenced.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OpenSystemWarning)
        sys_p = fsys.project(product)
        spec_p = fspec.project(product)
        return build_team(sys_p, spec_p, max_states, max_participants), spec_p, sys_p


def prune_for_display(feta: Fts) -> Fts:
    """A trimmed copy for presentation: no unsatisfiable guards, no unreachable states.

    Transitions whose guard no product (valid or not) can satisfy, that is
    whose guard mask is zero, are dropped, then states that the remaining
    transitions cannot reach from the initial states. Analyses never use this
    view; they work on the full team.
    """
    masks = feta.guard_masks
    live = tuple(t for t in feta.transitions if masks[t])
    trimmed = Lts(feta.states, feta.initial, feta.actions, live)
    keep = trimmed.reachable()
    kept = tuple(t for t in live if t[0] in keep)
    return Fts(
        states=tuple(sorted(keep, key=state_key)),
        initial=feta.initial,
        actions=feta.actions,
        transitions=kept,
        space=feta.space,
        feature_model=feta.feature_model,
        guards={t: feta.guards[t] for t in kept},
    )


@dataclass(frozen=True)
class CommutationResult:
    """Outcome of comparing team projection against per-product composition."""

    product: Product
    ok: bool
    only_in_projection: tuple
    only_in_composition: tuple
    states_agree: bool
    initial_agree: bool
    actions_agree: bool


def check_projection_commutes(
    fsys: FeaturedSystem,
    fspec: FeaturedSyncSpec,
    product: Product,
    feta: Fts | None = None,
) -> CommutationResult:
    """Compare the featured team's projection with the product's own team.

    The two sides are built along independent paths: the left projects the
    featured team, the right composes the projected components under the
    projected specification. They must agree exactly on states, initial
    states, actions and the transition set.
    """
    if feta is None:
        feta = build_featured_team(fsys, fspec)
    left = feta.project(product)
    right = product_team(fsys, fspec, product)[0]
    left_set, right_set = set(left.transitions), set(right.transitions)
    states_agree = left.states == right.states
    initial_agree = left.initial == right.initial
    actions_agree = left.actions == right.actions
    return CommutationResult(
        product=product,
        ok=states_agree and initial_agree and actions_agree and left_set == right_set,
        only_in_projection=tuple(sorted(left_set - right_set, key=transition_key)),
        only_in_composition=tuple(sorted(right_set - left_set, key=transition_key)),
        states_agree=states_agree,
        initial_agree=initial_agree,
        actions_agree=actions_agree,
    )
