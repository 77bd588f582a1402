"""Featured team construction, guards, pruning and projection agreement."""

import warnings
from pathlib import Path

import pytest

import feta.automata
import feta.system
import feta.team
import models
from instancegen import (
    built_team_disagreements,
    class_guard,
    equivalent,
    guard_class_disagreements,
    participants_guard,
    plain_team_disagreements,
)
from feta import (
    STAR,
    TRUE,
    And,
    Budget,
    Component,
    FeaturedComponent,
    FeaturedSyncSpec,
    FeaturedSystem,
    FeatureSpace,
    Fts,
    Interval,
    Lts,
    Not,
    ResourceLimitError,
    SyncRule,
    SyncType,
    SyncTypeSpec,
    System,
    TotalityError,
    Var,
    build_featured_classes,
    build_featured_team,
    build_team,
    check_projection_commutes,
    elaborate_text,
    entails,
    evaluate,
    is_satisfiable,
    Product,
    products_in,
    product_team,
    prune_for_display,
    reachable_featured_team,
    valid_products,
)


def test_running_example_team_counts(team):
    assert len(team.states) == models.TEAM_STATES
    assert len(team.transitions) == models.TEAM_TRANSITIONS
    assert team.initial == frozenset({("0", "0", "0")})


def test_guards_are_stored_as_a_two_part_conjunction(access, team):
    fsys, fspec = access
    t = models.JOINT_JOIN_LOOP
    guard = team.guards[t]
    assert isinstance(guard, And) and len(guard.operands) == 2
    local, sync = guard.operands
    assert local == participants_guard(fsys, t)
    allowed = fspec.allowed_products(t.action, len(t.senders), len(t.receivers))
    assert {str(p) for p in products_in(allowed, fspec.feature_model, fspec.space)} == {"{unlock}"}


def test_joint_join_guard_is_unlock_only(team):
    expected = And((Var("unlock"), Not(Var("lock"))))
    assert equivalent(team.guards[models.JOINT_JOIN_LOOP], expected, team.space)


def test_brokered_joint_join_is_unsatisfiable(team):
    assert not is_satisfiable(team.guards[models.JOINT_JOIN_BROKERED], team.space)


def test_every_guard_entails_the_feature_model(team):
    assert all(
        entails(team.guards[t], team.feature_model, team.space)
        for t in team.transitions
    )


def test_label_class_conjuncts_are_the_local_guards_then_the_sync_expression(access, team):
    fsys, fspec = access
    src, label, dst = models.JOINT_JOIN_LOOP
    parts = feta.team._TeamGuards(fsys, fspec)
    *local, sync = parts.conjuncts(label, (0, 1, 2), src, dst)
    # u1 and u2 move 0 -> 2 (guarded unlock) and s loops 0 -> 0 (guarded
    # unlock), so the local part is three unlock guards, in system order.
    assert local == [fsys.components[name].guards[src[i], "join", dst[i]]
                     for i, name in enumerate(fsys.names)]
    assert all(equivalent(guard, Var("unlock"), fsys.space) for guard in local)
    allowed = fspec.allowed_products("join", 2, 1)
    assert sync is fsys.products_expr(allowed)
    assert parts.guard(models.JOINT_JOIN_LOOP) == team.guards[models.JOINT_JOIN_LOOP]


def test_totality_is_checked_before_building(access):
    fsys, fspec = access
    partial = FeaturedSyncSpec(
        rules=fspec.rules[:2],
        alphabet=fspec.alphabet,
        space=fspec.space,
        feature_model=fspec.feature_model,
    )
    missing = partial.validate_total()
    assert [(str(product), action) for product, action in missing] == [
        ("{unlock}", "join"), ("{unlock}", "leave"),
    ]
    with pytest.raises(TotalityError) as refused:
        build_featured_team(fsys, partial)
    # The message names the first missing pair in `validate_total` order.
    assert str(refused.value) == (
        "specification misses 2 (product, action) pairs, first {unlock} / 'join'"
    )


def test_open_systems_build_silently_and_report_their_gaps(access):
    """An open system is elaboration's `open-system` diagnostic to report;
    every builder accepts one without a word, and `validate_closed` names
    the gaps."""
    fsys, fspec = access
    # Keeping only the server leaves join and leave without a sender and
    # confirm without a receiver.
    open_sys = FeaturedSystem(
        ("s",), {"s": fsys.components["s"]}, fsys.space, fsys.feature_model
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (build_featured_team, reachable_featured_team, build_featured_classes):
            build(open_sys, fspec)
        for product in valid_products(fsys.feature_model, fsys.space):
            product_team(open_sys, fspec, product)
    assert open_sys.validate_closed() == (("join", "leave"), ("confirm",))


def test_pruned_view_counts(pruned):
    assert len(pruned.states) == models.CORE_STATES
    assert len(pruned.transitions) == models.CORE_TRANSITIONS


def test_pruned_view_keeps_only_satisfiable_guards(team, pruned):
    assert set(pruned.transitions) <= set(team.transitions)
    assert all(is_satisfiable(pruned.guards[t], pruned.space) for t in pruned.transitions)
    assert models.JOINT_JOIN_BROKERED not in set(pruned.transitions)


def test_projection_commutes_for_both_products(access):
    fsys, fspec = access
    featured = build_featured_classes(fsys, fspec)
    for product in valid_products(fsys.feature_model, fsys.space):
        own = product_team(fsys, fspec, product)[0]
        result = check_projection_commutes(featured, product, featured.kept(product), own)
        assert result.ok, (
            f"{product}: only in projection {result.only_in_projection},"
            f" only in composition {result.only_in_composition}"
        )


def test_commutation_result_reports_differences(access):
    fsys, fspec = access
    # A deliberately different specification for the right-hand side makes
    # the comparison fail and the report carry the differing transitions.
    loose = FeaturedSyncSpec(
        rules=(SyncRule(TRUE, None, fspec.rules[0].sync_type),),
        alphabet=fspec.alphabet,
        space=fspec.space,
        feature_model=fspec.feature_model,
    )
    own = product_team(fsys, loose, models.UNLOCK)[0]
    featured = build_featured_classes(fsys, fspec)
    result = check_projection_commutes(featured, models.UNLOCK, featured.kept(models.UNLOCK), own)
    assert not result.ok
    assert result.only_in_projection
    assert result.states_agree


@pytest.mark.parametrize("product", [models.LOCK, models.UNLOCK], ids=str)
def test_product_team_is_built_under_the_budget(access, product):
    """Each product's own team spans the full product of local states."""
    fsys, fspec = access
    with pytest.raises(ResourceLimitError) as refused:
        product_team(fsys, fspec, product, Budget(states=models.TEAM_STATES - 1))
    assert refused.value.bound == "states"
    assert str(refused.value) == (
        f"states in the full product of local states: {models.TEAM_STATES},"
        f" above the bound {models.TEAM_STATES - 1}"
    )
    own, _, _ = product_team(fsys, fspec, product, Budget(states=models.TEAM_STATES))
    assert len(own.states) == models.TEAM_STATES


def test_plain_team_filters_by_type(access):
    fsys, fspec = access
    sys_u = fsys.project(models.UNLOCK)
    team_u = build_team(sys_u, fspec.project(models.UNLOCK))
    assert all(len(t.senders) >= 1 and len(t.receivers) == 1 for t in team_u.transitions)
    sys_l = fsys.project(models.LOCK)
    team_l = build_team(sys_l, fspec.project(models.LOCK))
    assert all(len(t.senders) == 1 and len(t.receivers) == 1 for t in team_l.transitions)


def test_team_projection_states_cover_the_full_product(access, team):
    fsys, _ = access
    projected = team.project(models.UNLOCK)
    assert projected.states == team.states
    assert len(projected.states) == models.TEAM_STATES


@pytest.mark.parametrize("name", models.EXAMPLES)
def test_builders_keep_what_they_skip_checking_on_every_example(name):
    result = elaborate_text(Path(models.example_path(name)).read_text(encoding="utf-8"))
    fsys, fspec = result.system, result.sync
    full = build_featured_team(fsys, fspec)
    for team in (full, reachable_featured_team(fsys, fspec), prune_for_display(full)):
        compared, wrong = built_team_disagreements(team, fsys, fspec)
        assert wrong == []
        assert compared == len(team.transitions) > 0


def acc4():
    """The access example with four users: 162 states, 3,550 induced transitions."""
    text = (Path(__file__).parent / "inputs" / "acc4.feta").read_text(encoding="utf-8")
    result = elaborate_text(text)
    return result.system, result.sync


def test_reachable_team_makes_only_the_transitions_with_a_non_zero_mask(monkeypatch):
    """Labels whose sync mask is 0, and branches whose local guard masks
    AND to 0, are cut before any transition is made: 194 of the 1,294
    induced transitions from acc4's 48 reached states.
    """
    fsys, fspec = acc4()
    full = build_featured_team(fsys, fspec)
    made = []
    original = feta.team.SystemTransition

    def counting(*parts):
        made.append(parts)
        return original(*parts)

    monkeypatch.setattr(feta.team, "SystemTransition", counting)
    reachable = reachable_featured_team(fsys, fspec)
    monkeypatch.undo()
    reached = set(reachable.states)
    leaving = [t for t in full.transitions if t.source in reached]
    live = [t for t in leaving if full.guard_masks[t]]
    assert len(made) == len(live) == 194
    assert len(leaving) == 1294
    assert set(reachable.transitions) <= set(live)
    assert built_team_disagreements(reachable, fsys, fspec)[1] == []


def test_full_team_shares_one_guard_per_label_class():
    """A guard depends on the label and its participants' local steps only."""
    fsys, fspec = acc4()
    full = build_featured_team(fsys, fspec)
    classes: dict = {}
    for t in full.transitions:
        involved = [i for i, name in enumerate(fsys.names) if name in t.label.participants()]
        key = (t.label, tuple((t.source[i], t.target[i]) for i in involved))
        classes.setdefault(key, set()).add(id(full.guards[t]))
    assert len(full.transitions) == 3550
    assert len(classes) == 304
    assert all(len(ids) == 1 for ids in classes.values())
    assert len({id(full.guards[t]) for t in full.transitions}) == 304


@pytest.mark.parametrize("name", [*models.EXAMPLES, "acc4"])
def test_built_teams_read_their_label_classes_off_the_build(name):
    """The build's guard function hands out one guard object per label
    class, and projecting reads it without building the team's `guards`
    dict, which holds the same objects.
    """
    if name == "acc4":
        fsys, fspec = acc4()
    else:
        result = elaborate_text(Path(models.example_path(name)).read_text(encoding="utf-8"))
        fsys, fspec = result.system, result.sync
    compared, wrong = guard_class_disagreements(fsys, fspec)
    assert wrong == []
    assert compared > len(build_featured_team(fsys, fspec).transitions)


def test_projection_keeps_exactly_the_transitions_whose_guard_holds(monkeypatch, access):
    """`Fts.project` and `FeaturedComponent.project` keep the transitions
    whose guard the product satisfies, in transition order, reading each
    transition's guard once: on a caller's `Fts`, a built full team, a
    reachable team and every component."""
    assert "project" in vars(Fts)
    fsys, fspec = acc4()
    full = build_featured_team(fsys, fspec)
    caller = Fts(
        full.states, full.initial, full.actions, full.transitions, full.space,
        full.feature_model, full.guards,
    )
    automata = [full, caller, reachable_featured_team(fsys, fspec)]
    automata += access[0].components.values()
    calls = []
    original = feta.automata.evaluator

    def counting(product):
        satisfied = original(product)

        def verdict(guard):
            calls.append(guard)
            return satisfied(guard)

        return verdict

    monkeypatch.setattr(feta.automata, "evaluator", counting)
    for automaton in automata:
        for product in valid_products(automaton.feature_model, automaton.space):
            calls.clear()
            projected = automaton.project(product)
            assert len(calls) == len(automaton.transitions)
            expected = tuple(
                t for t in automaton.transitions if evaluate(automaton.guards[t], product)
            )
            assert projected.transitions == expected
            assert (projected.states, projected.initial, projected.actions) == (
                automaton.states, automaton.initial, automaton.actions,
            )
            kind = Component if isinstance(automaton, FeaturedComponent) else Lts
            assert type(projected) is kind


def test_caller_guards_that_are_equal_but_distinct_project_per_transition(access, team):
    """Equal but distinct copies of the built guards project as the built
    team's shared guard objects do."""
    fsys, _ = access
    guards = {t: And(team.guards[t].operands) for t in team.transitions}
    assert len({id(g) for g in guards.values()}) == len(team.transitions)
    assert len(set(guards.values())) < len(team.transitions)
    caller = Fts(
        team.states, team.initial, team.actions, team.transitions,
        team.space, team.feature_model, guards,
    )
    for product in valid_products(fsys.feature_model, fsys.space):
        expected = tuple(t for t in team.transitions if evaluate(guards[t], product))
        assert caller.project(product).transitions == expected
        assert caller.project(product).transitions == team.project(product).transitions


@pytest.mark.parametrize("name", models.EXAMPLES)
def test_plain_team_is_the_composition_filtered_by_the_types_on_every_example(name):
    """`build_team` composes only the labels that fit, with the featured
    system's label tables or with its own, and gets the reference team.
    """
    result = elaborate_text(Path(models.example_path(name)).read_text(encoding="utf-8"))
    fsys, fspec = result.system, result.sync
    build_featured_team(fsys, fspec)
    for product in valid_products(fsys.feature_model, fsys.space):
        spec_p = fspec.project(product)
        sys_p = fsys.project(product)
        alone = System(sys_p.names, sys_p.components)
        assert sys_p._step_table.plan is fsys._step_table.plan
        assert sys_p._step_table.involved is fsys._step_table.involved
        assert alone._step_table.involved is not fsys._step_table.involved
        for sys in (sys_p, alone):
            compared, wrong = plain_team_disagreements(build_team(sys, spec_p), sys, spec_p)
            assert wrong == []
            assert compared > 0


def worker_and_sink_system():
    worker = Component(("0",), {"0"}, {"go"}, [("0", "go", "0")], (), {"go"})
    sink = Component(("0", "1"), {"0"}, {"go"}, [("0", "go", "1")], {"go"}, ())
    return System(("w1", "w2", "k"), {"w1": worker, "w2": worker, "k": sink})


def test_plain_team_refuses_the_full_product_over_the_state_bound():
    sys = worker_and_sink_system()
    spec = SyncTypeSpec({"go": SyncType(Interval(1, STAR), Interval(1, 1))})
    with pytest.raises(ResourceLimitError) as refused:
        build_team(sys, spec, Budget(states=1))
    assert refused.value.bound == "states"
    assert str(refused.value) == "states in the full product of local states: 2, above the bound 1"
    assert len(build_team(sys, spec, Budget(states=2)).states) == 2


@pytest.mark.parametrize("senders", [Interval(1, STAR), Interval(5, 5)], ids=str)
def test_plain_team_checks_the_participants_of_labels_it_skips(senders):
    """The participants bound holds whether or not any label fits the type."""
    sys = worker_and_sink_system()
    spec = SyncTypeSpec({"go": SyncType(senders, Interval(1, 1))})
    with pytest.raises(ResourceLimitError) as refused:
        build_team(sys, spec, Budget(participants=2))
    assert refused.value.bound == "participants"
    assert str(refused.value) == "ready participants of 'go': 3, above the bound 2"
    team = build_team(sys, spec, Budget(participants=3))
    assert len(team.transitions) == (3 if senders.lo == 1 else 0)


def test_plain_team_expands_only_the_label_classes_its_type_keeps(monkeypatch):
    """`build_team` skips each label that the type rejects before that
    label's classes are listed: over acc4's two products, it expands the 42
    classes its teams' transitions fall in, of the 155 there are."""
    fsys, fspec = acc4()
    original = feta.system._ComposeMixin._label_classes
    expanded = []

    def counting(self, states, budget=Budget(), keep=None):
        for cls in original(self, states, budget, keep):
            expanded.append(cls)
            yield cls

    monkeypatch.setattr(feta.system._ComposeMixin, "_label_classes", counting)
    every, kept = 0, set()
    for product in valid_products(fsys.feature_model, fsys.space):
        team, _, sys = product_team(fsys, fspec, product)
        every += sum(1 for _ in original(sys, team.states))
        for src, label, dst in team.transitions:
            involved = [i for i, name in enumerate(sys.names) if name in label.participants()]
            kept.add((product, label, *((src[i], dst[i]) for i in involved)))
    assert (len(expanded), len(kept), every) == (42, 42, 155)


def featured_worker_and_sink(sync_type):
    """`worker_and_sink_system` with every guard true, over one feature
    `x`, under one rule giving `go` the type."""
    plain = worker_and_sink_system()
    space = FeatureSpace.of("x")
    fsys = FeaturedSystem(plain.names, {
        name: FeaturedComponent(
            comp.states, comp.initial, comp.actions, comp.transitions, space, TRUE,
            dict.fromkeys(comp.transitions, TRUE), comp.inputs, comp.outputs,
        )
        for name, comp in plain.components.items()
    }, space, TRUE)
    return fsys, FeaturedSyncSpec((SyncRule(TRUE, None, sync_type),), frozenset({"go"}), space, TRUE)


@pytest.mark.parametrize(
    "build", [build_featured_team, reachable_featured_team], ids=lambda build: build.__name__
)
def test_featured_teams_check_the_participants_of_labels_they_skip(build):
    """The participants bound holds although the label walk turns down every
    label: no ready count fits the type, so every sync mask is 0.
    """
    fsys, fspec = featured_worker_and_sink(SyncType(Interval(5, 5), Interval(1, 1)))
    with pytest.raises(ResourceLimitError) as refused:
        build(fsys, fspec, Budget(participants=2))
    assert refused.value.bound == "participants"
    assert str(refused.value) == "ready participants of 'go': 3, above the bound 2"
    team = build(fsys, fspec, Budget(participants=3))
    assert not any(team.guard_masks.values())
    assert len(team.transitions) == (10 if build is build_featured_team else 0)


def test_commutation_lists_the_missing_member_of_a_shared_guard_class():
    """Projection keeps or drops the transitions of a shared guard
    together; the comparison still names the single transition of a label
    class that the product's team lacks.
    """
    space = FeatureSpace.of("x")
    shared = Var("x")
    kept, lost = ("0", "a", "1"), ("1", "a", "0")
    caller = Fts(
        ("0", "1"), {"0"}, {"a"}, [lost, kept], space, TRUE,
        {kept: shared, lost: shared},
    )
    product = Product.of(space, "x")
    assert caller.project(product).transitions == (kept, lost)
    assert caller.project(Product.of(space)).transitions == ()
    # A sender-only `go` of `w1` leaves the sink `k` idle in either state:
    # one label class of two transitions, of which the product's team lacks one.
    fsys, fspec = featured_worker_and_sink(SyncType(Interval(1, STAR), Interval(0, 1)))
    featured = build_featured_classes(fsys, fspec)
    own = product_team(fsys, fspec, product)[0]
    assert check_projection_commutes(featured, product, featured.kept(product), own).ok
    solo = models.label({"w1"}, "go", ())
    (shared_class,) = [cls for cls in featured.classes if cls.label == solo]
    assert shared_class.size == 2
    stays, missing = featured.members(shared_class)
    assert missing == (("0", "0", "1"), solo, ("0", "0", "1"))
    lacking = Lts(own.states, own.initial, own.actions, [t for t in own.transitions if t != missing])
    result = check_projection_commutes(featured, product, featured.kept(product), lacking)
    assert not result.ok
    assert result.only_in_projection == (missing,)
    assert result.only_in_composition == ()
    assert result.states_agree and result.initial_agree and result.actions_agree


def test_label_classes_are_the_full_team_class_by_class(access, team):
    """Every class expands, over the idle components' states, to its share
    of the full team's transitions, each of which reads a guard equal to
    the one rebuilt from the class's conjuncts, with the same sync object."""
    fsys, fspec = access
    featured = build_featured_classes(fsys, fspec)
    assert (featured.states, featured.initial, featured.actions) == (
        team.states, team.initial, team.actions,
    )
    expanded = []
    for cls in featured.classes:
        members = list(featured.members(cls))
        assert len(members) == cls.size
        for t in members:
            assert team.guards[t] == class_guard(cls)
            assert team.guards[t].operands[1] is cls.conjuncts[-1]
        expanded.extend(members)
    assert sorted(expanded, key=feta.automata.transition_key) == list(team.transitions)
    assert len(featured.classes) == len({id(team.guards[t]) for t in team.transitions})


def test_label_classes_check_the_budget_as_the_full_team_does():
    """The states bound first, then the participants of the first state and
    action in order; with no label fitting the type, every class is there,
    each with conjuncts no product satisfies."""
    fsys, fspec = featured_worker_and_sink(SyncType(Interval(5, 5), Interval(1, 1)))
    for budget, bound, message in (
        (Budget(states=1, participants=2), "states",
         "states in the full product of local states: 2, above the bound 1"),
        (Budget(participants=2), "participants", "ready participants of 'go': 3, above the bound 2"),
    ):
        with pytest.raises(ResourceLimitError) as refused:
            build_featured_classes(fsys, fspec, budget)
        assert (refused.value.bound, str(refused.value)) == (bound, message)
    featured = build_featured_classes(fsys, fspec, Budget(participants=3))
    assert sum(cls.size for cls in featured.classes) == 10
    for product in valid_products(fsys.feature_model, fsys.space):
        assert not any(evaluate(class_guard(cls), product) for cls in featured.classes)
        assert featured.kept(product) == []


def test_label_classes_make_no_guard(monkeypatch):
    """`build_featured_classes` keeps each class's conjuncts and asks the
    full team's guard function for no guard."""
    calls = []
    original = feta.team._TeamGuards.guard

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(feta.team._TeamGuards, "guard", counting)
    source = (Path(__file__).parent / "inputs" / "acc4.feta").read_text(encoding="utf-8")
    result = elaborate_text(source)
    featured = build_featured_classes(result.system, result.sync)
    assert len(featured.classes) == 304
    assert calls == []
