"""Plain and featured transition systems."""

import pytest

from feta import (
    TRUE,
    And,
    Component,
    FeaturedComponent,
    FeatureSpace,
    Fts,
    InvalidProductError,
    Lts,
    Not,
    Product,
    SpecificationError,
    Var,
    expr_mask,
)
from feta.automata import label_action, state_key, transition_key

SPACE = FeatureSpace.of("x", "y")
X, Y = Var("x"), Var("y")
PX = Product.of(SPACE, "x")
PY = Product.of(SPACE, "y")


def small_lts():
    return Lts(
        states=("q2", "q0", "q1"),
        initial=frozenset({"q0"}),
        actions=frozenset({"go", "stop"}),
        transitions=(("q0", "go", "q1"), ("q1", "stop", "q0"), ("q1", "go", "q2")),
    )


def guarded():
    guards = {
        ("q0", "go", "q1"): X,
        ("q0", "go", "q2"): Y,
        ("q2", "stop", "q0"): TRUE,
    }
    return Fts(
        states=("q0", "q1", "q2"),
        initial=frozenset({"q0"}),
        actions=frozenset({"go", "stop"}),
        transitions=tuple(guards),
        space=SPACE,
        feature_model=TRUE,
        guards=guards,
    )


def test_states_are_sorted_and_deduplicated():
    lts = Lts(("b", "a", "b"), frozenset({"a"}), frozenset(), ())
    assert lts.states == ("a", "b")


def test_transitions_are_sorted_and_deduplicated():
    lts = Lts(
        ("a", "b"),
        frozenset({"a"}),
        frozenset({"go"}),
        (("b", "go", "a"), ("a", "go", "b"), ("b", "go", "a")),
    )
    assert lts.transitions == (("a", "go", "b"), ("b", "go", "a"))


def test_undeclared_initial_state_is_rejected():
    with pytest.raises(SpecificationError):
        Lts(("a",), frozenset({"z"}), frozenset(), ())


def test_undeclared_transition_state_is_rejected():
    with pytest.raises(SpecificationError):
        Lts(("a",), frozenset({"a"}), frozenset({"go"}), (("a", "go", "z"),))


def test_undeclared_action_is_rejected():
    with pytest.raises(SpecificationError):
        Lts(("a",), frozenset({"a"}), frozenset(), (("a", "go", "a"),))


def test_successors_and_enabled():
    lts = small_lts()
    assert lts.successors_from("q1") == (("q1", "go", "q2"), ("q1", "stop", "q0"))
    assert lts.enabled("q0", "go")
    assert not lts.enabled("q0", "stop")
    assert not lts.enabled("q0", "missing")
    with pytest.raises(SpecificationError):
        lts.successors_from("zz")
    with pytest.raises(SpecificationError):
        lts.enabled("zz", "go")


def test_reachable():
    lts = Lts(
        states=("a", "b", "c"),
        initial=frozenset({"a"}),
        actions=frozenset({"go"}),
        transitions=(("a", "go", "b"), ("c", "go", "a")),
    )
    assert lts.reachable() == frozenset({"a", "b"})


def test_sort_keys_mix_plain_and_tuple_states():
    mixed = ["b", ("a", "x"), "a"]
    assert sorted(mixed, key=state_key) == ["a", ("a", "x"), "b"]
    t1 = ("a", "go", "b")
    t2 = ("a", "go", "a")
    assert sorted([t1, t2], key=transition_key) == [t2, t1]


def test_label_action_on_plain_labels():
    assert label_action("go") == "go"


# --- featured automata --------------------------------------------------------


def one_loop(guards):
    return Fts(
        states=("a",),
        initial=frozenset({"a"}),
        actions=frozenset({"go"}),
        transitions=(("a", "go", "a"),),
        space=SPACE,
        feature_model=TRUE,
        guards=guards,
    )


def test_every_transition_needs_a_guard():
    with pytest.raises(SpecificationError, match="^1 transitions have no guard$"):
        one_loop({})


def test_guard_variables_must_be_declared():
    with pytest.raises(SpecificationError, match=r"references undeclared features \['zoo'\]$"):
        one_loop({("a", "go", "a"): And((X, Var("zoo")))})


def test_caller_guards_are_copied_and_compiled_to_masks():
    """A caller's `Fts` takes no masks: they are compiled from its own copy."""
    step = ("a", "go", "a")
    guards = {step: X}
    fts = one_loop(guards)
    guards[step] = Y
    assert type(fts.guards) is dict and fts.guards == {step: X}
    assert fts.guard_masks == {step: expr_mask(X, SPACE)}
    with pytest.raises(TypeError):
        Fts(**{name: getattr(fts, name) for name in Fts.__match_args__}, masks={step: 0})


def test_projection_keeps_all_states_and_filters_transitions():
    fts = guarded()
    lts = fts.project(PX)
    assert lts.states == fts.states
    assert lts.initial == fts.initial
    assert lts.actions == fts.actions
    assert lts.transitions == (("q0", "go", "q1"), ("q2", "stop", "q0"))


def test_projection_rejects_products_outside_the_model():
    guards = {("q0", "go", "q0"): TRUE}
    fts = Fts(
        states=("q0",),
        initial=frozenset({"q0"}),
        actions=frozenset({"go"}),
        transitions=tuple(guards),
        space=SPACE,
        feature_model=X,
        guards=guards,
    )
    with pytest.raises(InvalidProductError):
        fts.project(PY)
    with pytest.raises(InvalidProductError):
        fts.project(Product.of(FeatureSpace.of("x"), "x"))


def test_realisable():
    fts = guarded()
    go = ("q0", "go", "q1")
    assert go in fts.project(PX).transitions
    assert go not in fts.project(PY).transitions


def test_component_alphabet_must_split():
    with pytest.raises(SpecificationError):
        Component(
            states=("a",),
            initial=frozenset({"a"}),
            actions=frozenset({"go"}),
            transitions=(),
            inputs=frozenset({"go"}),
            outputs=frozenset({"go"}),
        )
    with pytest.raises(SpecificationError):
        Component(
            states=("a",),
            initial=frozenset({"a"}),
            actions=frozenset({"go", "stop"}),
            transitions=(),
            inputs=frozenset({"go"}),
            outputs=frozenset(),
        )


def test_featured_component_projects_to_component():
    guards = {("a", "go", "a"): X, ("a", "stop", "a"): Not(X)}
    fcomp = FeaturedComponent(
        states=("a",),
        initial=frozenset({"a"}),
        actions=frozenset({"go", "stop"}),
        transitions=tuple(guards),
        space=SPACE,
        feature_model=TRUE,
        guards=guards,
        inputs=frozenset({"stop"}),
        outputs=frozenset({"go"}),
    )
    comp = fcomp.project(PX)
    assert isinstance(comp, Component)
    assert comp.inputs == fcomp.inputs
    assert comp.outputs == fcomp.outputs
    assert comp.transitions == (("a", "go", "a"),)
