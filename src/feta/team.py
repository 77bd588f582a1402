"""Building team automata from systems and synchronisation specifications.

A plain team keeps exactly the induced system transitions whose participant
counts fit the type of their action. The featured team keeps every induced
transition and guards it instead: the guard is the conjunction of the local
guards of all participants and of the expression describing the set of valid
products whose synchronisation type admits the transition. Projecting the
featured team onto a valid product must coincide with first projecting the
system and the specification and then building the plain team; the
commutation check below compares the two constructions transition by
transition, the featured side label class by label class.

Every verdict is decided on the guards' masks, and each mask a built team
carries has one source, the per-label walk `_TeamGuards.live`: the full
team runs it on a state each time that state's masks are asked for
(`Fts._leaving`), which its display walk (`prune_for_display`) does only
for the states it reaches; the reachable team runs it as it explores, and
that team's reachability masks are the fixpoint that built it. A guard
expression is only a view, for display and for the per-product check,
built when first read and shared by all transitions of its label class:
the label and its participants' local sources and targets, whatever the
idle components' states. The builders hand `Fts` their guard function, so
no guard is made twice. A guard's sync part is the system's one
expression per mask (`FeaturedSystem.products_expr`), the object the
family conditions with that mask hold too. The builders' teams are
correct by construction: states and transitions come in order and guards
name only declared features, so unlike a caller's they are not checked.

The family analyses only ask about team states that some valid product can
reach, so `reachable_featured_team` builds just that part, on the fly from
the initial states, and makes only the transitions whose mask is not 0;
`build_featured_team` builds the whole team over the full product of the
local state sets (`System.state_space`) and stays the reference. Every
mask reads the system's one label walk (`_ready_labels`), pruned by
mask, participant by participant, in `_TeamGuards.live`. The full
product's transitions, filtered by type for the plain team
(`_ComposeMixin._full_transitions`), and, for a product's projection and
its commutation check, the full team class by class
(`build_featured_classes`) are read off the local steps
(`_ComposeMixin._label_classes`), walking no state.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from collections import namedtuple

from .automata import Fts, Lts, check_product, reach_masks, state_key, transition_key
from .errors import Budget, TotalityError
from .features import And, FeatureExpr, Product, conj, holds, model_mask
from .synctypes import FeaturedSyncSpec, SyncTypeSpec
from .system import FeaturedSystem, System, SystemLabel, SystemTransition, _picker


class OpenSystemWarning(UserWarning):
    """A team is being built over a system with unmatched inputs or outputs."""


def participants_guard(fsys: FeaturedSystem, transition: SystemTransition) -> FeatureExpr:
    """Conjunction of the local guards of every participant's step, in system order."""
    src, label, dst = transition
    involved = label.participants()
    return conj(
        fsys.components[name].guards[(src[idx], label.action, dst[idx])]
        for idx, name in enumerate(fsys.names)
        if name in involved
    )


def _warn_if_open(sys, stacklevel: int = 3) -> None:
    report = sys.validate_closed()
    if not report.ok:
        gaps = []
        if report.missing_senders:
            gaps.append(f"no sender for {', '.join(report.missing_senders)}")
        if report.missing_receivers:
            gaps.append(f"no receiver for {', '.join(report.missing_receivers)}")
        message = f"system is not closed: {'; '.join(gaps)}"
        warnings.warn(message, OpenSystemWarning, stacklevel=stacklevel)


def _check_featured_inputs(fsys: FeaturedSystem, fspec: FeaturedSyncSpec) -> None:
    """Refuse a specification that is not total; warn about an open system."""
    missing = fspec.validate_total()
    if missing:
        product, action = missing[0]
        raise TotalityError(
            f"specification misses {len(missing)} (product, action) pairs,"
            f" first {product} / {action!r}"
        )
    _warn_if_open(fsys, stacklevel=4)


class _TeamGuards:
    """A team transition's guard and guard mask, from the same parts.

    The guard is the plain two-part conjunction of the participants' local
    guards and the sync expression, without simplification; the mask is the
    AND of the participants' local guard masks and the sync mask
    (`FeaturedSyncSpec.allowed_products`), so no guard is compiled. All
    transitions with the same action and participant counts share one sync
    mask, worked out once per build when first needed. The sync expression
    is the system's one view of that mask (`FeaturedSystem.products_expr`),
    asked for when a guard is first read: `live` reads only masks, so a
    team whose guards are never read asks for none. A guard depends only on
    its label class, the label and its participants' local sources and
    targets, never on the idle components' states, so the transitions of
    one class share one guard object.
    """

    def __init__(self, fsys: FeaturedSystem, fspec: FeaturedSyncSpec) -> None:
        self.fsys, self.fspec = fsys, fspec
        self._local = [fsys.components[name].guard_masks for name in fsys.names]
        self._masks: dict[tuple[str, int, int], int] = {}
        self._guards: dict[tuple, FeatureExpr] = {}

    def sync_mask(self, label: SystemLabel) -> int:
        key = (label.action, len(label.senders), len(label.receivers))
        if key not in self._masks:
            self._masks[key] = self.fspec.allowed_products(*key)
        return self._masks[key]

    def live(self, source: tuple, budget: Budget) -> list[tuple[SystemTransition, int]]:
        """The induced transitions from the state whose mask is not 0, with
        their masks, in `successors` order: the mask-pruned expansion.

        The label walk (`_ready_labels`) yields only the labels whose sync
        mask is not 0; their participants are added one at a time in index
        order, carrying the AND of their local guard masks, and a branch
        whose mask reaches 0 is abandoned, never expanded and then filtered.
        """
        out: list[tuple[SystemTransition, int]] = []
        for label, involved, targets in self.fsys._ready_labels(source, budget, self.sync_mask):
            action = label.action
            partial = [(source, self.sync_mask(label))]
            for idx, dests in zip(involved, targets):
                local = self._local[idx]
                step = [(dst, local[(source[idx], action, dst)]) for dst in dests]
                partial = [
                    (moved[:idx] + (dst,) + moved[idx + 1:], kept & own)
                    for moved, kept in partial
                    for dst, own in step
                    if kept & own
                ]
            out.extend((SystemTransition(source, label, moved), kept) for moved, kept in partial)
        return out

    def guard(self, t: SystemTransition) -> FeatureExpr:
        """The guard of one of the team's transitions, one object for its
        label class: the label and its participants' local sources and targets."""
        source, label, target = t
        get = self.fsys._step_table.involved[label]
        key = label, get(source), get(target)
        guard = self._guards.get(key)
        if guard is None:
            sync = self.fsys.products_expr(self.sync_mask(t.label))
            guard = self._guards[key] = And((participants_guard(self.fsys, t), sync))
        return guard


def build_featured_team(
    fsys: FeaturedSystem, fspec: FeaturedSyncSpec, budget: Budget = Budget()
) -> Fts:
    """The featured team automaton of a featured system and specification.

    Every induced transition over the full product of the local state sets
    is kept and receives the guard described above (`_TeamGuards`), so
    `budget.states` bounds that full product. A state's guard masks come
    from `_TeamGuards.live` on that state when asked for (`Fts._leaving`;
    a transition it does not make has mask 0), so `feta`'s display walk
    reads only the states it reaches, and `guard_masks` all of them when
    first read. This is the reference construction: `feta` displays it,
    and the battery checks the label classes against it. The
    specification must be total over the valid products.
    """
    _check_featured_inputs(fsys, fspec)
    # `state_space` emits the states and transitions in `Fts` order.
    states, transitions = fsys.state_space(budget)
    parts = _TeamGuards(fsys, fspec)
    return Fts._built(
        states, fsys.initial_states(), fsys.actions, transitions, fsys.space,
        fsys.feature_model, parts.guard, lambda q: parts.live(q, budget),
    )


def reachable_featured_team(
    fsys: FeaturedSystem, fspec: FeaturedSyncSpec, budget: Budget = Budget()
) -> Fts:
    """The reachable, realisable part of the featured team, built on the fly.

    The fixpoint of `Fts.reachable_masks` (`reach_masks`), seeded with the
    feature model's mask at the initial states, works out each newly
    reached state's induced transitions once, as it first leaves the state
    (the on-the-fly exploration of featured transition systems of Classen
    et al., ICSE 2010). It keeps exactly the full team's states that some valid
    product reaches and the transitions some product reaching their source
    can take, with the full team's guards and masks. Every family
    requirement, strict verdict, culprit and weak witness path depends only
    on this part. `budget.states` bounds the states reached. A state's
    transitions come from `_TeamGuards.live`, which never makes one whose
    mask is 0, and the team keeps each state's kept transitions as its
    masks (`Fts._leaving`). The fixpoint is the team's `reachable_masks`: a
    dropped transition passes on no product that reaches its source.
    """
    _check_featured_inputs(fsys, fspec)
    parts = _TeamGuards(fsys, fspec)
    initial = fsys.initial_states()
    leaving = functools.cache(lambda src: parts.live(src, budget))
    reach = reach_masks(
        initial,
        model_mask(fsys.feature_model, fsys.space),
        leaving,
        lambda count: budget.check("states", count, "states reached by the featured team"),
    )
    # Each state's successors come in `transition_key` order, so taking the
    # states in order gives the team's transitions in order.
    states = tuple(sorted(reach, key=state_key))
    kept = {q: [(t, mask) for t, mask in leaving(q) if mask & reach[q]] for q in states}
    team = Fts._built(
        states, initial, fsys.actions, tuple(t for q in states for t, _ in kept[q]),
        fsys.space, fsys.feature_model, parts.guard, kept.__getitem__,
    )
    team.reachable_masks = {q: reach[q] for q in states}
    return team


def build_team(sys: System, spec: SyncTypeSpec, budget: Budget = Budget()) -> Lts:
    """The plain team automaton: the induced transitions whose participant
    counts fit their action's type, over the full product of the local state
    sets.

    It equals `sys.state_space` with its transitions filtered by
    `transition_satisfies`, under the same budget checks, but expands only
    what it keeps: `_full_transitions` filters by the type check, once per
    label, before a label's classes are expanded. States and transitions
    come in `Lts` order.
    """
    _warn_if_open(sys)
    states = sys._full_states(budget)
    fits = functools.cache(
        lambda label: spec.for_action(label.action).admits(len(label.senders), len(label.receivers))
    )
    return Lts._built(
        states, sys.initial_states(), sys.actions, sys._full_transitions(states, budget, fits)
    )


def product_team(
    fsys: FeaturedSystem,
    fspec: FeaturedSyncSpec,
    product: Product,
    budget: Budget = Budget(),
) -> tuple[Lts, SyncTypeSpec, System]:
    """The product's own team, specification and system: the per-product route.

    A projected system may be open where the family is closed; that warning is silenced.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OpenSystemWarning)
        sys_p = fsys.project(product)
        spec_p = fspec.project(product)
        return build_team(sys_p, spec_p, budget), spec_p, sys_p


def prune_for_display(feta: Fts) -> Fts:
    """A trimmed copy for presentation: no unsatisfiable guards, no unreachable states.

    The states reachable from the initial states over the transitions whose
    guard some product (valid or not) satisfies, that is whose guard mask is
    not 0, and those transitions from them: a walk over `feta`'s masks state
    by state (`Fts._leaving`), which reads the masks of each kept state once
    and of no other state. States and transitions keep `feta`'s order. The kept
    guards come from `feta`'s guard function, each when first read here.
    Analyses never use this view; they work on the full team or on its
    reachable part (`reachable_featured_team`).
    """
    leaving = {}
    pending = list(feta.initial)
    seen = set(pending)
    while pending:
        q = pending.pop()
        leaving[q] = steps = feta._leaving(q)
        for t, _ in steps:
            if t[2] not in seen:
                seen.add(t[2])
                pending.append(t[2])
    states = tuple(q for q in feta.states if q in seen)
    return Fts._built(
        states, feta.initial, feta.actions, tuple(t for q in states for t, _ in leaving[q]),
        feta.space, feta.feature_model, feta._guard, leaving.__getitem__,
    )


class LabelClass(namedtuple("LabelClass", "label participants sources targets guard size")):
    """One label class of the full featured team: the label, its
    participants' indices in ascending order, their local sources and
    targets, the guard object that all the class's transitions share, and
    how many transitions it has, one per combination of the states of the
    components that do not take part.
    """

    __slots__ = ()


class FeaturedClasses(
    namedtuple(
        "FeaturedClasses", "states initial actions space feature_model local_states classes"
    )
):
    """The full featured team (`build_featured_team`) class by class, never
    expanded: its states, initial states, actions, feature space and model,
    each component's local states, and its label classes (`LabelClass`) in
    composition order. A class stands for all its transitions at once, so
    this costs the classes, not the transitions: the full team of the access
    example with seven users has 397,682 transitions in 7,070 classes.
    """

    __slots__ = ()

    def members(self, cls: LabelClass):
        """The class's transitions, in transition order."""
        choices = list(self.local_states)
        for idx, src in zip(cls.participants, cls.sources):
            choices[idx] = (src,)
        for source in itertools.product(*choices):
            target = list(source)
            for idx, dst in zip(cls.participants, cls.targets):
                target[idx] = dst
            yield SystemTransition(source, cls.label, tuple(target))

    def kept(self, product: Product) -> list[LabelClass]:
        """The classes whose guard a valid product satisfies (`holds`), in order."""
        check_product(product, self.space, self.feature_model)
        return [cls for cls in self.classes if holds(cls.guard, product)]

    def project(self, kept: list[LabelClass]) -> Lts:
        """The full team's projection (`Fts.project`) onto the product whose
        classes are `kept` (`self.kept(product)`): the full states and only
        the kept classes' members, sorted as for any caller's parts."""
        members = (t for cls in kept for t in self.members(cls))
        return Lts(self.states, self.initial, self.actions, members)


def build_featured_classes(
    fsys: FeaturedSystem, fspec: FeaturedSyncSpec, budget: Budget = Budget()
) -> FeaturedClasses:
    """The full featured team's label classes, read off the components'
    local steps (`_ComposeMixin._label_classes`) without walking a state.

    Inputs and bounds are checked as `build_featured_team` checks them, with
    the same errors in the same order: the specification's totality,
    `budget.states` against the full product, then `budget.participants`.
    Each class's guard is `_TeamGuards.guard` of one of its members, the
    object the full team's transitions of the class read, and every guard
    is made here, so comparing projections reads no mask.
    """
    _check_featured_inputs(fsys, fspec)
    states = fsys._full_states(budget)
    parts = _TeamGuards(fsys, fspec)
    local_states = tuple(fsys.components[name].states for name in fsys.names)
    classes = []
    for label, participants, sources, targets, size in fsys._label_classes(states, budget):
        source, target = list(states[0]), list(states[0])
        for idx, src, dst in zip(participants, sources, targets):
            source[idx], target[idx] = src, dst
        guard = parts.guard(SystemTransition(tuple(source), label, tuple(target)))
        classes.append(LabelClass(label, participants, sources, targets, guard, size))
    return FeaturedClasses(
        states, fsys.initial_states(), fsys.actions, fsys.space, fsys.feature_model,
        local_states, tuple(classes),
    )


class CommutationResult(
    namedtuple(
        "CommutationResult",
        "product ok only_in_projection only_in_composition"
        " states_agree initial_agree actions_agree",
    )
):
    """Outcome of comparing team projection against per-product composition."""

    __slots__ = ()


def check_projection_commutes(
    featured: FeaturedClasses, product: Product, kept: list[LabelClass], own: Lts
) -> CommutationResult:
    """Compare the featured team's projection with the product's own team.

    The two sides are built along independent paths: the left projects the
    full featured team, the right, `own`, composes the projected components
    under the projected specification (`product_team`). They must agree
    exactly on states, initial states, actions and the transition set.

    The full team comes class by class (`build_featured_classes`) and is
    never expanded whole. The projection keeps a class whole if the product
    satisfies its guard (`kept`, the caller's `featured.kept(product)`), else
    drops it. Each of `own`'s transitions is a member of a kept class or
    only in `own`; a kept class with as many members in `own` as its size
    is all there, as an `Lts`'s transitions are distinct. Only a class with
    fewer is expanded, to name the members `own` lacks.
    """
    states_agree = featured.states == own.states
    # `own`'s transitions join its states, so over the full team's states
    # any one can be a member; over others, only one between those states.
    declared = None if states_agree else frozenset(featured.states)
    # A transition belongs to the class of its label and its participants'
    # local sources and targets if the other components stay put.
    by_key, pick = {}, {}
    for cls in kept:
        if cls.label not in pick:
            idle = [i for i in range(len(featured.local_states)) if i not in cls.participants]
            pick[cls.label] = _picker(cls.participants), _picker(idle)
        by_key[cls.label, cls.sources, cls.targets] = cls

    def key(t):
        source, label, target = t
        if label not in pick or not (
            declared is None or source in declared and target in declared
        ):
            return None
        participants, idle = pick[label]
        if idle(source) != idle(target):
            return None
        return label, participants(source), participants(target)

    counts = dict.fromkeys(by_key, 0)
    only_in_composition = []
    for t in own.transitions:
        found = key(t)
        if found in counts:
            counts[found] += 1
        else:
            only_in_composition.append(t)
    short = {found for found, count in counts.items() if count != by_key[found].size}
    only_in_projection = []
    if short:
        present = {t for t in own.transitions if key(t) in short}
        for found in short:
            only_in_projection.extend(
                t for t in featured.members(by_key[found]) if t not in present
            )
    initial_agree = featured.initial == own.initial
    actions_agree = featured.actions == own.actions
    return CommutationResult(
        product=product,
        ok=states_agree and initial_agree and actions_agree
        and not (only_in_projection or only_in_composition),
        only_in_projection=tuple(sorted(only_in_projection, key=transition_key)),
        only_in_composition=tuple(sorted(only_in_composition, key=transition_key)),
        states_agree=states_agree,
        initial_agree=initial_agree,
        actions_agree=actions_agree,
    )
