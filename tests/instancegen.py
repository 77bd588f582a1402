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
import random
import warnings

from feta import (
    TRUE,
    And,
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
    SyncRule,
    SyncType,
    Var,
    Xor,
    all_products,
    evaluate,
    valid_products,
)


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


def instances(count: int, first_seed: int = 1000):
    for offset in range(count):
        yield first_seed + offset, random_instance(first_seed + offset)


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
    verdict entries of the reachable team compared with the full team.
    """

    instances: int = 0
    requirements: int = 0
    queries: int = 0
    weak_checks: int = 0
    reachable_team_checks: int = 0
    projection_failures: list = dataclasses.field(default_factory=list)
    requirement_projection_failures: list = dataclasses.field(default_factory=list)
    unfolding_failures: list = dataclasses.field(default_factory=list)
    family_strict_failures: list = dataclasses.field(default_factory=list)
    family_weak_failures: list = dataclasses.field(default_factory=list)
    guard_model_failures: list = dataclasses.field(default_factory=list)
    reachability_failures: list = dataclasses.field(default_factory=list)
    monotonicity_failures: list = dataclasses.field(default_factory=list)
    mask_failures: list = dataclasses.field(default_factory=list)
    witness_failures: list = dataclasses.field(default_factory=list)
    reachable_team_failures: list = dataclasses.field(default_factory=list)


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
    expected = [p for p in products if evaluate(freq.condition, p)]
    if decided != (expected[: len(decided)] if culprit is not None else expected):
        wrong.append(("products", decided))
    return len(decided), wrong


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
    and guard masks; and strict and weak family receptiveness must give the
    same requirements, statuses, culprits and weak witness paths on both.
    Returns the number of items compared and the mismatches.
    """
    from feta import check_family_receptiveness

    reach, masks = full.reachable_masks, full.guard_masks
    wrong = []
    states = {q: reach[q] for q in full.states if reach[q]}
    if {q: reachable.reachable_masks[q] for q in reachable.states} != states:
        wrong.append(("states", reachable.states))
    transitions = [t for t in full.transitions if masks[t] & reach[t[0]]]
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


def run_battery(count: int = 200, first_seed: int = 1000) -> BatteryResults:
    from feta import (
        OpenSystemWarning,
        build_featured_team,
        check_compliance,
        check_family_receptiveness,
        check_projection_commutes,
        check_receptiveness,
        check_weak_compliance,
        crosscheck_compliance_unfolding,
        crosscheck_family_vs_products,
        crosscheck_requirement_projection,
        entails,
        product_team,
        reachable_featured_team,
        reachable_products,
    )
    from feta.receptiveness import COMPLIANT, VIOLATED

    results = BatteryResults()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OpenSystemWarning)
        for seed, (fsys, fspec) in instances(count, first_seed):
            results.instances += 1
            team = build_featured_team(fsys, fspec)
            products = valid_products(fsys.feature_model, fsys.space)
            family = {
                mode: check_family_receptiveness(team, fsys, fspec, mode)
                for mode in ("strict", "weak")
            }
            freqs = tuple(v.requirement for v in family["strict"].entries)
            product_reports = {mode: [] for mode in family}
            # Each product's own team is built once and feeds every
            # per-product check.
            for product in products:
                own, spec_p, sys_p = product_team(fsys, fspec, product)
                if not check_projection_commutes(team, product, own).ok:
                    results.projection_failures.append((seed, product))
                # The entries do not depend on the mode, only `holds` does.
                verdicts = check_receptiveness(own, spec_p, sys_p)
                own_reqs = [entry.requirement for entry in verdicts.entries]
                if not crosscheck_requirement_projection(freqs, product, own_reqs).ok:
                    results.requirement_projection_failures.append((seed, product))
                for mode, reports in product_reports.items():
                    reports.append((product, verdicts._replace(mode=mode)))
                for req in own_reqs:
                    strict = check_compliance(own, req).status
                    weak = check_weak_compliance(own, req).status
                    if strict == COMPLIANT and weak == VIOLATED:
                        results.monotonicity_failures.append((seed, req))
            results.requirements += len(freqs)
            projections = {p: team.project(p) for p in products}
            for verdict in family["strict"].entries:
                freq = verdict.requirement
                if not crosscheck_compliance_unfolding(team, verdict):
                    results.unfolding_failures.append((seed, freq))
                compared, wrong = weak_disagreements(team, freq, projections, products)
                results.weak_checks += compared
                if wrong:
                    results.witness_failures.append((seed, freq, wrong))
            if not crosscheck_family_vs_products(family["strict"], product_reports["strict"]).ok:
                results.family_strict_failures.append((seed,))
            if not crosscheck_family_vs_products(family["weak"], product_reports["weak"]).ok:
                results.family_weak_failures.append((seed,))
            compared, wrong = reachable_team_disagreements(
                team, reachable_featured_team(fsys, fspec), fsys, fspec
            )
            results.reachable_team_checks += compared
            if wrong:
                results.reachable_team_failures.append((seed, wrong))
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
