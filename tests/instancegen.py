"""Seeded random featured systems and specifications for the property suites.

Instances are kept deliberately small (up to 3 components, 3 states each,
3 actions, 3 features) so that whole-family checks against every product
stay cheap. Every instance is closed by construction and its specification
is total thanks to a final catch-all rule. Guards use every binary
connective, so that the battery's comparison of bit-masks against direct
evaluation covers each of them.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from feta import (
    TRUE,
    And,
    Budget,
    ComplianceVerdict,
    FeaturedComponent,
    FeaturedSyncSpec,
    FeaturedSystem,
    FeatureExpr,
    FeatureSpace,
    Iff,
    Implies,
    Interval,
    Not,
    Or,
    SpecificationError,
    SyncRule,
    SyncType,
    SystemLabel,
    SystemTransition,
    Var,
    Xor,
    all_products,
    conj,
    evaluate,
    expr_mask,
    valid_products,
)
from feta.automata import state_key
from feta.receptiveness import COMPLIANT, VIOLATED


_SHAPES = (lambda a, b: And((a, b)), lambda a, b: Or((a, b)), Xor, Iff, Implies)


def random_guard(rng: random.Random, names) -> FeatureExpr:
    roll = rng.random()
    if roll < 0.35:
        return TRUE
    first = Var(rng.choice(names))
    if roll < 0.6:
        return first
    if roll < 0.75:
        return Not(first)
    second = Var(rng.choice(names))
    if rng.random() < 0.5:
        second = Not(second)
    shape = _SHAPES[int(rng.random() * len(_SHAPES))]
    return shape(first, second)


def random_model(rng: random.Random, space: FeatureSpace) -> FeatureExpr:
    if rng.random() < 0.4:
        return TRUE
    model = random_guard(rng, space.names)
    if not valid_products(model, space):
        return TRUE
    return model


def random_sync_type(rng: random.Random) -> SyncType:
    send_lo = 1 if rng.random() < 0.7 else 2
    send_hi = rng.choice([send_lo, send_lo + 1, None])
    recv_lo = rng.randint(0, 1)
    recv_hi = rng.choice([max(recv_lo, 1), recv_lo + 1, None])
    return SyncType(Interval(send_lo, send_hi), Interval(recv_lo, recv_hi))


def random_instance(seed: int) -> tuple[FeaturedSystem, FeaturedSyncSpec]:
    rng = random.Random(seed)
    space = FeatureSpace.of(*[f"f{i + 1}" for i in range(rng.randint(1, 3))])
    model = random_model(rng, space)
    actions = [f"a{i + 1}" for i in range(rng.randint(1, 3))]
    count = rng.randint(2, 3)
    names = tuple(f"C{i + 1}" for i in range(count))

    # Every action gets one fixed sender and one distinct receiver so the
    # system is closed; the remaining components take a random role or none.
    direction: dict[tuple[int, str], str | None] = {}
    for action in actions:
        sender = rng.randrange(count)
        receiver = rng.choice([i for i in range(count) if i != sender])
        for i in range(count):
            if i == sender:
                direction[(i, action)] = "out"
            elif i == receiver:
                direction[(i, action)] = "in"
            else:
                direction[(i, action)] = rng.choice([None, "in", "out"])

    components = {}
    for i, name in enumerate(names):
        states = tuple(f"s{k}" for k in range(rng.randint(1, 3)))
        alphabet = [a for a in actions if direction[(i, a)]]
        transitions: dict = {}
        for src in states:
            for _ in range(rng.randint(1, 2)):
                if not alphabet:
                    break
                action = rng.choice(alphabet)
                dst = rng.choice(states)
                transitions[(src, action, dst)] = random_guard(rng, space.names)
        components[name] = FeaturedComponent(
            states=states,
            initial=frozenset({states[0]}),
            actions=frozenset(alphabet),
            transitions=tuple(transitions),
            space=space,
            feature_model=model,
            guards=transitions,
            inputs=frozenset(a for a in alphabet if direction[(i, a)] == "in"),
            outputs=frozenset(a for a in alphabet if direction[(i, a)] == "out"),
        )

    fsys = FeaturedSystem(names, components, space, model)
    rules = []
    for _ in range(rng.randint(0, 2)):
        chosen = frozenset(rng.sample(actions, rng.randint(1, len(actions))))
        rules.append(SyncRule(random_guard(rng, space.names), chosen, random_sync_type(rng)))
    rules.append(SyncRule(TRUE, None, random_sync_type(rng)))
    fspec = FeaturedSyncSpec(tuple(rules), frozenset(actions), space, model)
    return fsys, fspec


def warm_up_instance(seed: int) -> tuple[FeaturedSystem, FeaturedSyncSpec]:
    """A seeded instance whose send needs a group-free warm-up.

    `C1` outputs `a` from its initial state; `C2` receives `a` only at the
    end of a chain of one or two `w`s, which `C3` sends and in which `C1`
    takes no part, and now and then also at once, under a guard of its own.
    Every step's guard, the feature model and the types of `w` are drawn;
    `a` always needs one sender and a receiver, so the send at the initial
    state is a requirement that only a warm-up can meet in most products:
    its entries are featured-weakly-compliant where every product's warm-up
    succeeds, and violated where some product's does not.
    """
    rng = random.Random(seed)
    space = FeatureSpace.of(*[f"f{i + 1}" for i in range(rng.randint(1, 3))])
    model = random_model(rng, space)

    def component(states, steps, inputs=(), outputs=()):
        guards = {step: random_guard(rng, space.names) for step in steps}
        return FeaturedComponent(
            states=states, initial=frozenset({states[0]}), actions=frozenset(inputs + outputs),
            transitions=tuple(guards), space=space, feature_model=model, guards=guards,
            inputs=frozenset(inputs), outputs=frozenset(outputs),
        )

    chain = tuple(f"s{k}" for k in range(rng.randint(2, 3)))
    steps = [(src, "w", dst) for src, dst in zip(chain, chain[1:])]
    steps.append((chain[-1], "a", chain[0]))
    if rng.random() < 0.2:
        steps.append((chain[0], "a", chain[0]))
    components = {
        "C1": component(("s0", "s1"), [("s0", "a", "s1"), ("s1", "a", "s0")], outputs=("a",)),
        "C2": component(chain, steps, inputs=("a", "w")),
        "C3": component(("s0",), [("s0", "w", "s0")], outputs=("w",)),
    }
    fsys = FeaturedSystem(("C1", "C2", "C3"), components, space, model)
    rules = [
        SyncRule(random_guard(rng, space.names), frozenset({"w"}), random_sync_type(rng))
        for _ in range(rng.randint(0, 2))
    ]
    receivers = Interval(1, rng.choice([1, None]))
    rules.append(SyncRule(TRUE, None, SyncType(Interval(1, 1), receivers)))
    fspec = FeaturedSyncSpec(tuple(rules), frozenset({"a", "w"}), space, model)
    return fsys, fspec


# The warm-up slice's seeds start here, away from the population's.
WARM_UP_SEED = 5000


def zero_sender_instance(seed: int) -> tuple[FeaturedSystem, FeaturedSyncSpec]:
    """`random_instance(seed)`, except that its last (default) rule's type
    admits zero senders, up to the same maximum, and no zero receivers,
    which `random_sync_type` never draws."""
    fsys, fspec = random_instance(seed)
    *rules, last = fspec.rules
    senders, receivers = last.sync_type
    zero = SyncType(Interval(0, senders.hi), Interval(max(receivers.lo, 1), receivers.hi))
    rules.append(last._replace(sync_type=zero))
    return fsys, FeaturedSyncSpec(tuple(rules), fspec.alphabet, fspec.space, fspec.feature_model)


# The zero-sender slice's seeds start here.
ZERO_SENDER_SEED = 7000


def instances(count: int, first_seed: int = 1000, generate=random_instance):
    for offset in range(count):
        yield first_seed + offset, generate(first_seed + offset)


@dataclasses.dataclass
class BatteryResults:
    """Outcome of running every cross-check over the random instances.

    Each failure list holds (seed, detail) pairs; an empty list means the
    property held on every instance. `queries` counts the bits on which the
    mask a team stores for a guard (`Fts.guard_masks`) or a requirement
    carries for its condition (`FamilyRequirement.mask`) was compared with
    direct evaluation of the expression; `weak_checks` counts the weak
    witnesses and culprits of the family route compared with the search on a
    projection; `reachable_team_checks` counts the states, transitions and
    verdict entries of the reachable team compared with the full team;
    `built_team_checks` counts the transitions of the full, reachable and
    pruned teams whose order and guards were checked against what
    `Fts.__init__` would have checked; `plain_team_checks` counts the
    transitions of the products' own teams (`build_team`) compared with the
    filtered full composition (`reference_team`); `guard_class_checks`
    counts the transitions of the full, reachable and pruned teams whose
    label class, guard object and mask were checked
    (`guard_class_disagreements`); `successor_checks` counts the induced
    transitions of every full state of the featured and the products'
    systems compared with `reference_successors`, through `successors` and
    through `state_space`; `label_class_checks`
    counts the transitions of the full team rebuilt from its label classes
    and the class-level commutation results compared with a plain set
    comparison (`label_class_disagreements`); `class_projection_checks`
    counts the parts of the products' projections read off the label
    classes compared with the full team's (`class_projection_disagreements`);
    `display_checks` counts the states and transitions of the display team
    (`prune_for_display`) of the full team and of a caller's copy of it
    compared with `reference_display_team` (`display_disagreements`);
    `culprit_choices` counts the strict family violations whose culprit
    had more than one candidate product, so that only their order tells
    the right one (`culprit_disagreements`); `strict_reading_checks`
    counts the entries of the weak family report read in strict mode
    (`_replace(mode="strict")`, as `verify` reads it) whose verdict and
    violated requirements were compared with the strict report's;
    `featured_weak_entries` counts the weak family reports' entries that
    only a warm-up makes compliant; `weak_reference_checks` counts the
    products' requirements whose weak verdict (`check_weak_compliance`) was
    compared with the reference `weak_compliance`; and `planted_faults` how many
    faults of each kind were planted in the label-class checks and caught,
    or, under a family-route fault of `FAMILY_FAULTS` (`run_with_fault`),
    how many checks it tripped.
    """

    instances: int = 0
    requirements: int = 0
    queries: int = 0
    weak_checks: int = 0
    reachable_team_checks: int = 0
    built_team_checks: int = 0
    plain_team_checks: int = 0
    guard_class_checks: int = 0
    successor_checks: int = 0
    label_class_checks: int = 0
    class_projection_checks: int = 0
    display_checks: int = 0
    culprit_choices: int = 0
    strict_reading_checks: int = 0
    featured_weak_entries: int = 0
    weak_reference_checks: int = 0
    planted_faults: dict = dataclasses.field(default_factory=dict)
    projection_failures: list = dataclasses.field(default_factory=list)
    requirement_projection_failures: list = dataclasses.field(default_factory=list)
    unfolding_failures: list = dataclasses.field(default_factory=list)
    family_strict_failures: list = dataclasses.field(default_factory=list)
    culprit_failures: list = dataclasses.field(default_factory=list)
    family_weak_failures: list = dataclasses.field(default_factory=list)
    strict_reading_failures: list = dataclasses.field(default_factory=list)
    guard_model_failures: list = dataclasses.field(default_factory=list)
    reachability_failures: list = dataclasses.field(default_factory=list)
    monotonicity_failures: list = dataclasses.field(default_factory=list)
    mask_failures: list = dataclasses.field(default_factory=list)
    witness_failures: list = dataclasses.field(default_factory=list)
    reachable_team_failures: list = dataclasses.field(default_factory=list)
    built_team_failures: list = dataclasses.field(default_factory=list)
    plain_team_failures: list = dataclasses.field(default_factory=list)
    guard_class_failures: list = dataclasses.field(default_factory=list)
    successor_failures: list = dataclasses.field(default_factory=list)
    label_class_failures: list = dataclasses.field(default_factory=list)
    class_projection_failures: list = dataclasses.field(default_factory=list)
    display_failures: list = dataclasses.field(default_factory=list)
    weak_reference_failures: list = dataclasses.field(default_factory=list)

    def tripped(self) -> list[str]:
        """The names of the failure lists that are not empty."""
        return [
            field.name
            for field in dataclasses.fields(self)
            if field.name.endswith("_failures") and getattr(self, field.name)
        ]


def mask_disagreements(mask: int, expr: FeatureExpr, space: FeatureSpace) -> tuple[int, list]:
    """Compare a stored mask bit by bit with evaluating its expression on every product.

    Returns the number of comparisons and the products where they differ. The
    bit of a product is worked out here, independently of `product_index`.
    """
    products = all_products(space)
    wrong = [
        p
        for p in products
        if (mask >> sum(1 << space.names.index(n) for n in p.selected)) & 1 != evaluate(expr, p)
    ]
    return len(products), wrong


def weak_disagreements(team, freq, projections, products) -> tuple[int, list]:
    """Compare the family route's weak verdict with the search on each projection.

    Every (product, path) witness must be the projection's own shortest
    witness, the culprit must be violated on its projection, and the products
    decided must be the condition's products, in order, evaluated directly.
    Returns the number of witnesses and culprits compared and the mismatches.
    """
    from feta import Requirement, check_family_weak_compliance, check_weak_compliance
    from feta.receptiveness import VIOLATED

    verdict = check_family_weak_compliance(team, freq)
    req = Requirement(freq.state, freq.senders, freq.action)
    wrong = []
    decided = []
    for product, path in verdict.witnesses:
        decided.append(product)
        if check_weak_compliance(projections[product], req).witness != path:
            wrong.append(("witness", product))
    culprit = verdict.violation_product
    if culprit is not None:
        decided.append(culprit)
        if check_weak_compliance(projections[culprit], req).status != VIOLATED:
            wrong.append(("culprit", culprit))
    condition = freq.condition
    expected = [p for p in products if evaluate(condition, p)]
    if decided != (expected[: len(decided)] if culprit is not None else expected):
        wrong.append(("products", decided))
    return len(decided), wrong


def culprit_disagreements(report, products, violated) -> tuple[int, list]:
    """Compare each strict family verdict's culprit with the per-product route.

    The culprit must be the first valid product, in `products` order, that
    satisfies the requirement's condition, evaluated directly, and whose own
    team violates the requirement (`violated[product]` holds the
    requirements `check_compliance` finds violated there); a compliant
    verdict has none. Returns the number of culprits chosen among more than
    one candidate and the mismatches.
    """
    from feta import Requirement

    choices, wrong = 0, []
    for entry in report.entries:
        freq = entry.requirement
        req = Requirement(freq.state, freq.senders, freq.action)
        condition = freq.condition
        failing = [p for p in products if evaluate(condition, p) and req in violated[p]]
        choices += len(failing) > 1
        if entry.violation_product != next(iter(failing), None):
            wrong.append((req, entry.violation_product, failing))
    return choices, wrong


def _verdict_outcomes(report) -> list:
    """Requirement, mask, status, culprit and weak witness paths of every entry.

    A featured-compliant entry's witnesses are its candidate transitions,
    which a team without the unreachable or unrealisable part lacks; they
    are left out.
    """
    from feta.family import FEATURED_COMPLIANT

    return [
        (
            e.requirement,
            e.requirement.mask,
            e.status,
            e.violation_product,
            None if e.status == FEATURED_COMPLIANT else e.witnesses,
        )
        for e in report.entries
    ]


def reachable_team_disagreements(full, reachable, fsys, fspec) -> tuple[int, list]:
    """Compare the on-the-fly reachable team with the full team.

    Its states must be the full team's states with a non-zero reachability
    mask, with the same masks; its transitions the full team's transitions
    that some product reaching their source can take, with the same guards
    and guard masks, so none that the full team lacks (a transition whose
    mask the full team's walk gives but that it does not hold reads mask
    0); and strict and weak family receptiveness must give the
    same requirements, statuses, culprits and weak witness paths on both.
    Returns the number of items compared and the mismatches.
    """
    from feta import check_family_receptiveness

    reach, masks = full.reachable_masks, full.guard_masks
    wrong = []
    states = {q: reach[q] for q in full.states if reach[q]}
    if {q: reachable.reachable_masks[q] for q in reachable.states} != states:
        wrong.append(("states", reachable.states))
    known = set(full.transitions)
    missing = [t for t in reachable.transitions if t not in known]
    if missing:
        wrong.append(("missing from the full team", missing))
    transitions = [t for t in full.transitions if masks.get(t, 0) & reach[t[0]]]
    if list(reachable.transitions) != transitions:
        wrong.append(("transitions", reachable.transitions))
    for t in set(transitions) & set(reachable.transitions):
        if reachable.guards[t] != full.guards[t] or reachable.guard_masks[t] != masks[t]:
            wrong.append(("guard", t))
    compared = len(states) + len(transitions)
    for mode in ("strict", "weak"):
        expected, got = (
            _verdict_outcomes(check_family_receptiveness(team, fsys, fspec, mode))
            for team in (full, reachable)
        )
        compared += len(expected)
        if got != expected:
            wrong.append((mode, got, expected))
    return compared, wrong


def participants_guard(fsys, transition) -> FeatureExpr:
    """The local part of a team guard by its definition: the conjunction of
    the local guards of every participant's step, in system order."""
    src, label, dst = transition
    involved = label.participants()
    return conj(
        fsys.components[name].guards[(src[idx], label.action, dst[idx])]
        for idx, name in enumerate(fsys.names)
        if name in involved
    )


def built_team_disagreements(team, fsys, fspec) -> tuple[int, list]:
    """Check a builder-made team for what `Fts.__init__` checks of caller input.

    Its guards must equal the eager reference, the conjunction of
    `participants_guard` and the expression of the valid products whose
    synchronisation type admits the transition (by `lookup`, product by
    product), keyed by exactly the team's transitions in their order, and
    must name only features of the space; any other key raises `KeyError`.
    Its states must be sorted by `state_key` and its transitions strictly
    increase by `transition_key`, with declared states and actions.
    Returns the number of transitions checked and the mismatches.
    """
    from feta import product_set_expr, variables
    from feta.automata import label_action, state_key, transition_key

    products = valid_products(fsys.feature_model, fsys.space)
    sync_exprs = {}

    def sync_expr(t):
        key = (t.action, len(t.senders), len(t.receivers))
        if key not in sync_exprs:
            admitted = [
                p for p in products
                if fspec.lookup(p, t.action).admits(len(t.senders), len(t.receivers))
            ]
            sync_exprs[key] = product_set_expr(admitted, fsys.space)
        return sync_exprs[key]

    expected = {t: And((participants_guard(fsys, t), sync_expr(t))) for t in team.transitions}
    guards = dict(team.guards)
    wrong = []
    if guards != expected or list(guards) != list(expected):
        wrong.append(("guards", guards, expected))
    if len(team.guards) != len(team.transitions):
        wrong.append(("guard count", len(team.guards)))
    foreign = ("no state", "no action", "no state")
    try:
        team.guards[foreign]
        wrong.append(("foreign transition read", foreign))
    except KeyError:
        if foreign in team.guards:
            wrong.append(("foreign transition contained", foreign))
    if list(team.states) != sorted(set(team.states), key=state_key):
        wrong.append(("states", team.states))
    keys = [transition_key(t) for t in team.transitions]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        wrong.append(("transition order", team.transitions))
    declared = set(team.states)
    if not team.initial <= declared:
        wrong.append(("initial", team.initial))
    for src, label, dst in team.transitions:
        if src not in declared or dst not in declared or label_action(label) not in team.actions:
            wrong.append(("undeclared", (src, label, dst)))
    for t, guard in guards.items():
        if not variables(guard) <= team.space.name_set:
            wrong.append(("features", t))
    return len(team.transitions), wrong


def guard_class_disagreements(fsys, fspec) -> tuple[int, list]:
    """Check the guard objects of builder-made teams, as the builder's guard
    function (`Fts._guard`) hands them out.

    Each of a fresh full team, a fresh reachable team and the full team's
    pruned copy is projected onto its first valid product, which reads its
    guards through that function before its `guards` dict or the full
    team's masks are read. Projecting must leave that dict unbuilt. Grouped
    by the object the function hands out, the transitions must fall into
    their label classes (the label and its participants' local sources and
    targets), in the same order, and the dict must hold those objects; and
    the guard masks, read only then, must equal `expr_mask` of each guard.
    Returns the number of transitions checked and the mismatches.
    """
    from feta import build_featured_team, expr_mask, prune_for_display, reachable_featured_team

    first = valid_products(fsys.feature_model, fsys.space)[:1]
    compared, wrong = 0, []

    def check(name, team):
        nonlocal compared
        for product in first:
            team.project(product)
        if "guards" in vars(team):
            wrong.append((name, "guards dict made by projecting"))
        by_object, by_class = {}, {}
        for t in team.transitions:
            guard = team._guard(t)
            by_object.setdefault(id(guard), (guard, []))[1].append(t)
            src, label, dst = t
            involved = [i for i, n in enumerate(fsys.names) if n in label.participants()]
            key = label, tuple(src[i] for i in involved), tuple(dst[i] for i in involved)
            by_class.setdefault(key, []).append(t)
        if [group for _, group in by_object.values()] != list(by_class.values()):
            wrong.append((name, "partition", list(by_object.values())))
        for guard, group in by_object.values():
            wrong.extend((name, "guard", t) for t in group if team.guards[t] is not guard)
        masks = team.guard_masks
        for t in team.transitions:
            if masks[t] != expr_mask(team.guards[t], team.space):
                wrong.append((name, "mask", t))
        compared += len(team.transitions)

    full = build_featured_team(fsys, fspec)
    check("full", full)
    check("reachable", reachable_featured_team(fsys, fspec))
    check("pruned", prune_for_display(full))
    return compared, wrong


def reference_display_team(full) -> tuple[tuple, tuple]:
    """`prune_for_display` as first written, as its states and transitions:
    the transitions whose guard mask is not 0, then the states they reach
    from the initial states (`Lts.reachable`), then the kept transitions
    that leave those states, all in the full team's order."""
    from feta import Lts

    masks = full.guard_masks
    live = tuple(t for t in full.transitions if masks[t])
    keep = Lts._built(full.states, full.initial, full.actions, live).reachable()
    return tuple(q for q in full.states if q in keep), tuple(t for t in live if t[0] in keep)


def display_disagreements(full) -> tuple[int, list]:
    """Compare `prune_for_display` with `reference_display_team` on the
    builder's full team and on a caller's copy of it (`Fts(...)`, whose
    masks are compiled from its guards): the states, the transitions in
    order, and each kept transition's guard object and mask. Returns the
    number of states and transitions compared and the mismatches.
    """
    from feta import Fts, prune_for_display

    copy = Fts(
        full.states, full.initial, full.actions, full.transitions, full.space,
        full.feature_model, full.guards,
    )
    compared, wrong = 0, []
    for name, team in (("built", full), ("caller's", copy)):
        states, transitions = reference_display_team(team)
        pruned = prune_for_display(team)
        if pruned.states != states:
            wrong.append((name, "states", pruned.states))
        if pruned.transitions != transitions:
            wrong.append((name, "transitions", pruned.transitions))
        masks = team.guard_masks
        for t in set(pruned.transitions) & set(transitions):
            if pruned.guards[t] is not team.guards[t] or pruned.guard_masks[t] != masks[t]:
                wrong.append((name, "guard", t))
        compared += len(states) + len(transitions)
    return compared, wrong


def reference_commutation(projection, product, own):
    """`check_projection_commutes` as first written: the featured team's
    projection (an `Lts`) and the product's own team compared as plain
    sets of transitions."""
    from feta import CommutationResult
    from feta.automata import transition_key

    left, right = set(projection.transitions), set(own.transitions)
    agree = [getattr(projection, part) == getattr(own, part) for part in ("states", "initial", "actions")]
    return CommutationResult(
        product, all(agree) and left == right,
        tuple(sorted(left - right, key=transition_key)),
        tuple(sorted(right - left, key=transition_key)),
        *agree,
    )


def class_guard(cls):
    """The guard of a label class's transitions, rebuilt from its conjuncts
    as `_TeamGuards.guard` builds it: the participants' local guards'
    conjunction, then the sync expression."""
    return And((conj(cls.conjuncts[:-1]), cls.conjuncts[-1]))


def label_class_disagreements(
    fsys, fspec, team, own_teams, projections
) -> tuple[int, list, dict]:
    """Check the full team's label classes (`build_featured_classes`)
    against the full team `team`, and the class-level commutation check
    against the plain one (`reference_commutation`).

    Expanding every class over the idle components' states must give
    exactly the team's transitions, in order once sorted, each class as
    many as its size, and each member's guard must equal its class's guard.
    Per valid product and its own team in `own_teams`, the class-level
    result must equal the plain comparison of the team's projection (in
    `projections`, from `Fts.project`). So
    must it under four planted faults, each of which must also make it
    fail: the own team loses one transition; one of its transitions moves
    a component that takes no part; it gains a transition between two
    states outside the full product that differ from a member's ends only
    in a component taking no part (or in all); the featured side loses one
    class that the product keeps. Returns the number of items compared, the
    mismatches and the number of faults planted per kind.
    """
    from feta import Lts, build_featured_classes, check_projection_commutes
    from feta.automata import transition_key

    featured = build_featured_classes(fsys, fspec)
    wrong, planted = [], {}
    members = [(cls, list(featured.members(cls))) for cls in featured.classes]
    expanded = sorted((t for _, group in members for t in group), key=transition_key)
    if expanded != list(team.transitions):
        wrong.append(("expansion", len(expanded), len(team.transitions)))
    for cls, group in members:
        if len(group) != cls.size:
            wrong.append(("size", cls, len(group)))
        guard = class_guard(cls)
        wrong.extend(("guard", t) for t in group if team.guards[t] != guard)
    compared = len(expanded)

    def compare(kind, kept, projection, product, own):
        nonlocal compared
        got = check_projection_commutes(featured, product, kept, own)
        expected = reference_commutation(projection, product, own)
        compared += 1
        if got != expected:
            wrong.append((kind, product, got, expected))
        if kind != "plain":
            planted[kind] = planted.get(kind, 0) + 1
            if got.ok:
                wrong.append((kind, product, "fault not caught"))

    def rebuilt(own, transitions):
        return Lts(own.states, own.initial, own.actions, transitions)

    for product, own in own_teams.items():
        projection = projections[product]
        kept = featured.kept(product)
        compare("plain", kept, projection, product, own)
        if own.transitions:
            dropped = own.transitions[len(own.transitions) // 2]
            lacking = rebuilt(own, [t for t in own.transitions if t != dropped])
            compare("dropped transition", kept, projection, product, lacking)
            src, label, dst = dropped
            idle = [i for i, name in enumerate(fsys.names) if name not in label.participants()]
            astray = idle[:1] or range(len(fsys.names))

            def stray(state):
                return tuple("stray" if i in astray else q for i, q in enumerate(state))

            strayed = (stray(src), label, stray(dst))
            larger = Lts(
                own.states + (strayed[0], strayed[2]), own.initial, own.actions,
                own.transitions + (strayed,),
            )
            compare("stray state", kept, projection, product, larger)
        for t in own.transitions:
            src, label, dst = t
            idle = [
                i for i, name in enumerate(fsys.names)
                if name not in label.participants() and len(fsys.components[name].states) > 1
            ]
            if idle:
                local = fsys.components[fsys.names[idle[0]]].states
                moved = list(dst)
                moved[idle[0]] = local[(local.index(dst[idle[0]]) + 1) % len(local)]
                shifted = (src, label, tuple(moved))
                moves = [u for u in own.transitions if u != t] + [shifted]
                compare("moved idle component", kept, projection, product, rebuilt(own, moves))
                break
        lost = next(
            (cls for cls in featured.classes if evaluate(class_guard(cls), product)), None
        )
        if lost is not None:
            fewer = [cls for cls in kept if cls is not lost]
            gone = set(featured.members(lost))
            left = Lts(
                projection.states, projection.initial, projection.actions,
                [t for t in projection.transitions if t not in gone],
            )
            compare("lost class", fewer, left, product, own)
    return compared, wrong, planted


def class_projection(featured, kept):
    """The full team's projection (`Fts.project`) onto the product whose
    label classes are `kept` (`FeaturedClasses.kept`), read off the classes:
    the full states and only the kept classes' members."""
    from feta import Lts

    members = (t for cls in kept for t in featured.members(cls))
    return Lts(featured.states, featured.initial, featured.actions, members)


def class_projection_disagreements(featured, projections) -> tuple[int, list, int]:
    """Compare each valid product's projection read off the label classes
    (`class_projection` of `FeaturedClasses.kept`) with the full team's in
    `projections` (`Fts.project`), part by part. A planted fault, the kept
    classes without their last, must make every product that keeps a class
    differ. Returns the number of parts compared, the mismatches and the
    number of faults planted.
    """
    parts = ("states", "initial", "actions", "transitions")
    compared, wrong, planted = 0, [], 0
    for product, expected in projections.items():
        kept = featured.kept(product)
        got = class_projection(featured, kept)
        differ = [part for part in parts if getattr(got, part) != getattr(expected, part)]
        compared += len(parts)
        if differ:
            wrong.append((product, differ))
        if kept:
            planted += 1
            if class_projection(featured, kept[:-1]).transitions == expected.transitions:
                wrong.append((product, "fault not caught"))
    return compared, wrong, planted


def reference_successors(sys, state, budget=Budget()):
    """`successors` as first written: per action, the components' ready
    targets are read off `successors_from`, every nonempty choice of ready
    senders and receivers gets a fresh label, and the whole list is sorted
    at the end.
    """
    if len(state) != len(sys.names):
        raise SpecificationError(f"state {state!r} has wrong arity")
    local = dict(zip(sys.names, state))
    out = []
    for action in sorted(sys.actions):
        targets, senders, receivers = {}, [], []
        for name in sys.names:
            comp = sys.components[name]
            if action not in comp.actions:
                continue
            dests = sorted(
                (dst for src, act, dst in comp.successors_from(local[name]) if act == action),
                key=state_key,
            )
            if not dests:
                continue
            targets[name] = dests
            (senders if action in comp.outputs else receivers).append(name)
        budget.check(
            "participants", len(senders) + len(receivers), f"ready participants of {action!r}"
        )
        for size_s in range(len(senders) + 1):
            for chosen_s in itertools.combinations(senders, size_s):
                for size_r in range(len(receivers) + 1):
                    for chosen_r in itertools.combinations(receivers, size_r):
                        involved = chosen_s + chosen_r
                        if not involved:
                            continue
                        label = SystemLabel(frozenset(chosen_s), action, frozenset(chosen_r))
                        for combo in itertools.product(*(targets[n] for n in involved)):
                            moved = dict(zip(involved, combo))
                            target = tuple(moved.get(n, local[n]) for n in sys.names)
                            out.append(SystemTransition(state, label, target))
    out.sort(key=lambda t: (t.label.sort_key(), state_key(t.target)))
    return tuple(out)


def successor_disagreements(sys) -> tuple[int, list]:
    """Compare `successors` with `reference_successors` on every state of
    the full product of the local state sets, in order, and `state_space`,
    which expands the label classes instead, with the states and all their
    reference successors in that order.
    """
    compared, wrong, composed = 0, [], []
    states = tuple(itertools.product(*(sys.components[n].states for n in sys.names)))
    for state in states:
        expected = reference_successors(sys, state)
        if sys.successors(state) != expected:
            wrong.append(state)
        compared += len(expected)
        composed.extend(expected)
    if sys.state_space() != (states, tuple(composed)):
        wrong.append("state_space")
    return compared, wrong


def reference_team(sys, spec):
    """The plain team by its definition: every induced transition over the
    full product of local states (`reference_successors` of each state),
    filtered by the types of the actions; no label class is read.
    """
    from feta import Lts

    states = tuple(itertools.product(*(sys.components[n].states for n in sys.names)))
    kept = [
        t for q in states for t in reference_successors(sys, q)
        if spec.for_action(t.action).admits(len(t.senders), len(t.receivers))
    ]
    return Lts(states, sys.initial_states(), sys.actions, kept)


def check_compliance(team, req) -> ComplianceVerdict:
    """The strict reference, by its definition: whether exactly the
    requirement's group can send its action from its state, with someone
    receiving. The first such transition is the witness. It shares no code
    with the library, whose strict route reads the first step of its weak
    search.
    """
    for t in team.successors_from(req.state):
        label = t[1]
        if label.action == req.action and label.senders == req.senders and label.receivers:
            return ComplianceVerdict(req, COMPLIANT, (t,))
    return ComplianceVerdict(req, VIOLATED, None)


def weak_compliance(team, req) -> bool:
    """The weak reference, by its definition: whether, from some state
    reachable from the requirement's state by transitions in which no
    sender takes part (its own state included), exactly the group can send
    its action to at least one receiver. It shares no code with the
    library's breadth-first search (`search_weak_compliance`).
    """
    leaving = {}
    for t in team.transitions:
        leaving.setdefault(t[0], []).append(t)
    warmed, pending = {req.state}, [req.state]
    while pending:
        for _, label, target in leaving.get(pending.pop(), ()):
            free = req.senders.isdisjoint(label.senders | label.receivers)
            if free and target not in warmed:
                warmed.add(target)
                pending.append(target)
    return any(
        label.action == req.action and label.senders == req.senders and label.receivers
        for state in warmed for _, label, _ in leaving.get(state, ())
    )


def equivalent(lhs: FeatureExpr, rhs: FeatureExpr, space: FeatureSpace) -> bool:
    """Whether the two expressions hold on exactly the same products of the
    space, valid or not: their `expr_mask`s are equal."""
    return expr_mask(lhs, space) == expr_mask(rhs, space)


def plain_team_disagreements(team, sys, spec) -> tuple[int, list]:
    """Compare `build_team`'s team, part by part and in order, with `reference_team`."""
    reference = reference_team(sys, spec)
    wrong = [
        (part, getattr(team, part))
        for part in ("states", "initial", "actions", "transitions")
        if getattr(team, part) != getattr(reference, part)
    ]
    return len(reference.transitions), wrong


def run_battery(
    count: int = 200, first_seed: int = 1000, until_tripped: bool = False,
    generate=random_instance,
) -> BatteryResults:
    """Every cross-check over `count` instances of `generate` from
    `first_seed` on; with `until_tripped`, none after the first instance on
    which a check fails."""
    from feta import (
        build_featured_classes,
        build_featured_team,
        check_family_receptiveness,
        check_projection_commutes,
        check_receptiveness,
        check_weak_compliance,
        crosscheck_compliance_unfolding,
        crosscheck_family_vs_products,
        crosscheck_requirement_projection,
        entails,
        product_team,
        prune_for_display,
        reachable_featured_team,
        reachable_products,
    )
    from feta.receptiveness import FEATURED_WEAKLY_COMPLIANT

    results = BatteryResults()
    for seed, (fsys, fspec) in instances(count, first_seed, generate):
        if until_tripped and results.tripped():
            break
        results.instances += 1
        compared, wrong = successor_disagreements(fsys)
        results.successor_checks += compared
        if wrong:
            results.successor_failures.append((seed, wrong))
        team = build_featured_team(fsys, fspec)
        featured = build_featured_classes(fsys, fspec)
        products = valid_products(fsys.feature_model, fsys.space)
        family = {
            mode: check_family_receptiveness(team, fsys, fspec, mode)
            for mode in ("strict", "weak")
        }
        freqs = tuple(v.requirement for v in family["strict"].entries)
        product_reports = {mode: [] for mode in family}
        # Each product's own team is built once and feeds every
        # per-product check.
        own_teams, violated = {}, {}
        for product in products:
            own, spec_p, sys_p = product_team(fsys, fspec, product)
            own_teams[product] = own
            compared, wrong = successor_disagreements(sys_p)
            results.successor_checks += compared
            if wrong:
                results.successor_failures.append((seed, product, wrong))
            compared, wrong = plain_team_disagreements(own, sys_p, spec_p)
            results.plain_team_checks += compared
            if wrong:
                results.plain_team_failures.append((seed, product, wrong))
            if not check_projection_commutes(featured, product, featured.kept(product), own).ok:
                results.projection_failures.append((seed, product))
            # The entries do not depend on the mode, only `holds` does.
            verdicts = check_receptiveness(own, spec_p, sys_p)
            own_reqs = [entry.requirement for entry in verdicts.entries]
            if not crosscheck_requirement_projection(freqs, product, own_reqs).ok:
                results.requirement_projection_failures.append((seed, product))
            for mode, reports in product_reports.items():
                reports.append((product, verdicts._replace(mode=mode)))
            violated[product] = set()
            for req in own_reqs:
                strict = check_compliance(own, req).status
                weak = check_weak_compliance(own, req).status
                if strict == COMPLIANT and weak == VIOLATED:
                    results.monotonicity_failures.append((seed, req))
                if strict == VIOLATED:
                    violated[product].add(req)
                results.weak_reference_checks += 1
                if (weak != VIOLATED) != weak_compliance(own, req):
                    results.weak_reference_failures.append((seed, product, req))
        results.requirements += len(freqs)
        projections = {p: team.project(p) for p in products}
        compared, wrong, planted = label_class_disagreements(
            fsys, fspec, team, own_teams, projections
        )
        results.label_class_checks += compared
        for kind, count in planted.items():
            results.planted_faults[kind] = results.planted_faults.get(kind, 0) + count
        if wrong:
            results.label_class_failures.append((seed, wrong))
        compared, wrong, planted = class_projection_disagreements(featured, projections)
        results.class_projection_checks += compared
        faults = results.planted_faults
        faults["kept drops last class"] = faults.get("kept drops last class", 0) + planted
        if wrong:
            results.class_projection_failures.append((seed, wrong))
        for verdict in crosscheck_compliance_unfolding(team, family["strict"].entries):
            results.unfolding_failures.append((seed, verdict.requirement))
        for freq in freqs:
            compared, wrong = weak_disagreements(team, freq, projections, products)
            results.weak_checks += compared
            if wrong:
                results.witness_failures.append((seed, freq, wrong))
        if not crosscheck_family_vs_products(family["strict"], product_reports["strict"]).ok:
            results.family_strict_failures.append((seed,))
        choices, wrong = culprit_disagreements(family["strict"], products, violated)
        results.culprit_choices += choices
        if wrong:
            results.culprit_failures.append((seed, wrong))
        if not crosscheck_family_vs_products(family["weak"], product_reports["weak"]).ok:
            results.family_weak_failures.append((seed,))
        results.featured_weak_entries += sum(
            entry.status == FEATURED_WEAKLY_COMPLIANT for entry in family["weak"].entries
        )
        read_strictly = family["weak"]._replace(mode="strict")
        results.strict_reading_checks += len(read_strictly.entries)
        outcomes = [
            (report.holds, [e.requirement for e in report.violations])
            for report in (read_strictly, family["strict"])
        ]
        if outcomes[0] != outcomes[1]:
            results.strict_reading_failures.append((seed, outcomes))
        reachable = reachable_featured_team(fsys, fspec)
        compared, wrong = reachable_team_disagreements(team, reachable, fsys, fspec)
        results.reachable_team_checks += compared
        if wrong:
            results.reachable_team_failures.append((seed, wrong))
        for built in (team, reachable, prune_for_display(team)):
            compared, wrong = built_team_disagreements(built, fsys, fspec)
            results.built_team_checks += compared
            if wrong:
                results.built_team_failures.append((seed, wrong))
        compared, wrong = display_disagreements(team)
        results.display_checks += compared
        if wrong:
            results.display_failures.append((seed, wrong))
        compared, wrong = guard_class_disagreements(fsys, fspec)
        results.guard_class_checks += compared
        if wrong:
            results.guard_class_failures.append((seed, wrong))
        for t in team.transitions:
            if not entails(team.guards[t], team.feature_model, team.space):
                results.guard_model_failures.append((seed, t))
        stored = [(team.guard_masks[t], team.guards[t]) for t in team.transitions]
        stored += [(f.mask, f.condition) for f in freqs]
        for mask, expr in stored:
            compared, wrong = mask_disagreements(mask, expr, team.space)
            results.queries += compared
            if wrong:
                results.mask_failures.append((seed, expr, wrong))
        for state in team.states:
            symbolic = set(reachable_products(team, state))
            direct = {p for p in products if state in projections[p].reachable()}
            if symbolic != direct:
                results.reachability_failures.append((seed, state))
    return results


def _condition_without_reach(monkeypatch):
    from feta import FamilyRequirement

    monkeypatch.setattr(
        FamilyRequirement, "condition", property(lambda f: And((f.enabling, f.sync_condition)))
    )


def _candidates_without_last(monkeypatch):
    from feta import family

    original = family._candidates
    monkeypatch.setattr(family, "_candidates", lambda feta, freq: original(feta, freq)[:-1])


def _compliance_without_last_candidate(monkeypatch):
    """`check_family_compliance` reads every candidate but decides on all but
    the last, which it still reports as a witness."""
    from feta import family

    def check(feta, freq):
        candidates = family._candidates(feta, freq)
        uncovered = freq.mask & ~family.mask_union(feta.guard_masks[t] for t in candidates[:-1])
        if not uncovered:
            return family.FamilyVerdict(freq, family.FEATURED_COMPLIANT, tuple(candidates), None)
        culprit = family.first_product_in(uncovered, feta.feature_model, feta.space)
        return family.FamilyVerdict(freq, family.VIOLATED, (), culprit)

    monkeypatch.setattr(family, "check_family_compliance", check)


def _no_groups_of_one(monkeypatch):
    from feta import family

    original = family.derive_family_requirements

    def derive(*args):
        return tuple(f for f in original(*args) if len(f.senders) > 1)

    monkeypatch.setattr(family, "derive_family_requirements", derive)


def _reach_without_guards(monkeypatch):
    from feta import automata, team

    original = automata.reach_masks

    def reach(initial, seed, steps, *rest):
        return original(initial, seed, lambda q: ((t, seed) for t, _ in steps(q)), *rest)

    for module in (automata, team):
        monkeypatch.setattr(module, "reach_masks", reach)


def _last_product_in(monkeypatch):
    from feta import family, products_in

    def last(mask, feature_model, space):
        return next(reversed(products_in(mask, feature_model, space)), None)

    monkeypatch.setattr(family, "first_product_in", last)


def _display_walk_follows_zero_masks(monkeypatch):
    from feta import Fts

    def leaving(self, state):
        masks = self.guard_masks
        return [(t, masks[t]) for t in self._adjacency[state]]

    monkeypatch.setattr(Fts, "_leaving", leaving)


def _live_without_the_last_local_mask(monkeypatch):
    from feta.team import SystemTransition, _TeamGuards

    def live(self, source, budget):
        out = []
        for label, involved, targets in self.fsys._ready_labels(source, budget, self.sync_mask):
            partial = [(source, self.sync_mask(label))]
            for idx, dests in zip(involved, targets):
                local = self._local[idx]
                step = [
                    (dst, -1 if idx == involved[-1] else local[(source[idx], label.action, dst)])
                    for dst in dests
                ]
                partial = [
                    (moved[:idx] + (dst,) + moved[idx + 1:], kept & own)
                    for moved, kept in partial
                    for dst, own in step
                    if kept & own
                ]
            out.extend((SystemTransition(source, label, moved), kept) for moved, kept in partial)
        return out

    monkeypatch.setattr(_TeamGuards, "live", live)


def _group_size_off_by_one(monkeypatch):
    from feta import family

    original = family.products_for_group
    monkeypatch.setattr(
        family, "products_for_group",
        lambda fspec, group, action: original(fspec, (*group, None), action),
    )


def _projection_keeps_a_failing_guard(monkeypatch):
    from feta import Fts

    original = Fts._projected_parts

    def parts(self, product):
        states, initial, actions, kept = original(self, product)
        failing = next((t for t in self.transitions if t not in kept), None)
        kept = tuple(t for t in self.transitions if t in kept or t == failing)
        return states, initial, actions, kept

    monkeypatch.setattr(Fts, "_projected_parts", parts)


def _strict_reading_accepts_featured_weak(monkeypatch):
    """`ReceptivenessReport.violations` in strict mode lets
    featured-weakly-compliant entries pass."""
    from feta import ReceptivenessReport
    from feta.receptiveness import FEATURED_WEAKLY_COMPLIANT

    original = ReceptivenessReport.violations.fget

    def violations(self):
        return tuple(e for e in original(self) if e.status != FEATURED_WEAKLY_COMPLIANT)

    monkeypatch.setattr(ReceptivenessReport, "violations", property(violations))


def _kept_ignores_the_sync_conjunct(monkeypatch):
    """`FeaturedClasses.kept` evaluates every conjunct of a class but the
    last, its sync expression."""
    from feta.features import check_product, evaluator
    from feta.team import FeaturedClasses

    def kept(self, product):
        check_product(product, self.space, self.feature_model)
        satisfied = evaluator(product)
        return [cls for cls in self.classes if all(map(satisfied, cls.conjuncts[:-1]))]

    monkeypatch.setattr(FeaturedClasses, "kept", kept)


def _classes_without_the_last_local_guard(monkeypatch):
    """`build_featured_classes` leaves the last participant's local guard
    out of each class's conjuncts."""
    import feta
    from feta import cli, team

    original = team.build_featured_classes

    def build(*args):
        featured = original(*args)
        return featured._replace(classes=tuple(
            cls._replace(conjuncts=cls.conjuncts[:-2] + cls.conjuncts[-1:])
            for cls in featured.classes
        ))

    for module in (feta, cli, team):
        monkeypatch.setattr(module, "build_featured_classes", build)


def _conjuncts_without_the_last_local_guard(monkeypatch):
    """`_TeamGuards.conjuncts` leaves the last participant's local guard
    out, of the full team's guards and of the label classes alike."""
    from feta.team import _TeamGuards

    original = _TeamGuards.conjuncts

    def conjuncts(self, *args):
        parts = original(self, *args)
        return parts[:-2] + parts[-1:]

    monkeypatch.setattr(_TeamGuards, "conjuncts", conjuncts)


def _mutated(module_name: str, name: str, old: str, new: str):
    """A fault: the function `name` of the module, recompiled from its
    source with the one `old` in it replaced by `new`, and planted in every
    `feta` module that holds the function by name."""

    def plant(monkeypatch):
        import __future__
        import importlib
        import inspect
        import sys

        module = importlib.import_module(module_name)
        original = getattr(module, name)
        source = inspect.getsource(original)
        assert source.count(old) == 1, (name, old)
        namespace = dict(vars(module))
        exec(compile(
            source.replace(old, new), module.__file__, "exec",
            __future__.annotations.compiler_flag, dont_inherit=True,
        ), namespace)
        for held_name, held in list(sys.modules.items()):
            if held_name.partition(".")[0] == "feta" and getattr(held, name, None) is original:
                monkeypatch.setattr(held, name, namespace[name])

    return plant


def _label_classes_without(end):
    """A fault: `_label_classes` drops its first (`end` 0) or last (-1) class."""

    def plant(monkeypatch):
        from feta.system import _ComposeMixin

        original = _ComposeMixin._label_classes

        def dropping(self, states, budget=Budget(), keep=None):
            classes = list(original(self, states, budget, keep))
            if classes:
                del classes[end]
            return iter(classes)

        monkeypatch.setattr(_ComposeMixin, "_label_classes", dropping)

    return plant


# Faults planted in the family route, the strict reading of its report, the
# display walk, the team's mask walk, projection, the label classes and the
# classes' conjuncts and the evaluation of them, the team's guards and the
# weak search, each of which some check of the battery must catch; each
# takes a `pytest.MonkeyPatch` to plant it.
FAMILY_FAULTS = {
    "condition drops its reach factor": _condition_without_reach,
    "_candidates drops its last candidate": _candidates_without_last,
    "check_family_compliance ignores its last candidate": _compliance_without_last_candidate,
    "derive_family_requirements skips groups of one": _no_groups_of_one,
    "reach_masks ignores the guard masks": _reach_without_guards,
    "first_product_in returns the last product": _last_product_in,
    "the display walk follows zero-mask transitions": _display_walk_follows_zero_masks,
    "_TeamGuards.live drops the last participant's local mask": _live_without_the_last_local_mask,
    "products_for_group is off by one in the group size": _group_size_off_by_one,
    "_projected_parts keeps a transition whose guard fails": _projection_keeps_a_failing_guard,
    "_label_classes drops its first class": _label_classes_without(0),
    "_label_classes drops its last class": _label_classes_without(-1),
    "the strict reading accepts featured-weakly-compliant entries":
        _strict_reading_accepts_featured_weak,
    "FeaturedClasses.kept ignores the sync conjunct": _kept_ignores_the_sync_conjunct,
    "build_featured_classes drops the last participant's local guard":
        _classes_without_the_last_local_guard,
    "_TeamGuards.conjuncts drops the last participant's local guard":
        _conjuncts_without_the_last_local_guard,
    "search_weak_compliance skips every warm-up": _mutated(
        "feta.receptiveness", "search_weak_compliance",
        "participants() & req.senders", "participants() | req.senders",
    ),
    "derive_family_requirements draws groups of no sender": _mutated(
        "feta.family", "derive_family_requirements",
        "range(1, len(ready) + 1)", "range(0, len(ready) + 1)",
    ),
}


def run_with_fault(
    fault: str, count: int, first_seed: int = 1000, until_caught: bool = True,
    generate=random_instance,
) -> BatteryResults:
    """The battery over `count` instances of `generate` with one of
    `FAMILY_FAULTS` planted, and removed again, stopping after the first
    instance on which it trips a check unless `until_caught` is false;
    `planted_faults[fault]` counts the checks it tripped
    (`BatteryResults.tripped`), 0 if the battery missed it.
    """
    import pytest

    with pytest.MonkeyPatch.context() as monkeypatch:
        FAMILY_FAULTS[fault](monkeypatch)
        results = run_battery(count, first_seed, until_caught, generate)
    results.planted_faults[fault] = len(results.tripped())
    return results
