"""System labels and multi-component composition."""

import itertools

import pytest

import models
from feta import (
    Budget,
    Component,
    FeaturedSystem,
    FeatureSpace,
    ResourceLimitError,
    SpecificationError,
    System,
    SystemLabel,
    SystemTransition,
    Var,
    valid_products,
)
from instancegen import reference_successors


def component(inputs=(), outputs=(), transitions=(), states=("0",), init="0"):
    return Component(
        states=states,
        initial=frozenset({init}),
        actions=frozenset(inputs) | frozenset(outputs),
        transitions=transitions,
        inputs=frozenset(inputs),
        outputs=frozenset(outputs),
    )


def test_label_requires_a_participant():
    with pytest.raises(SpecificationError):
        SystemLabel(frozenset(), "go", frozenset())


def test_label_roles_are_disjoint():
    with pytest.raises(SpecificationError):
        SystemLabel(frozenset({"a"}), "go", frozenset({"a", "b"}))


def test_label_str_sorts_participants():
    label = SystemLabel(frozenset({"u2", "u1"}), "join", frozenset({"s"}))
    assert str(label) == "{u1,u2} join {s}"


def test_label_keeps_the_hash_and_sort_key_of_its_tuples():
    """The sort key is worked out in `__init__`, the hash on first use, and
    both equal the recomputed tuples'."""
    fsys, _ = models.make_all()
    _, transitions = fsys.state_space()
    labels = {t.label for t in transitions}
    labels.add(SystemLabel(frozenset({"u2", "s", "u10"}), "join", frozenset({"b", "a"})))
    for label in labels:
        senders, action, receivers = label.senders, label.action, label.receivers
        assert hash(label) == hash((senders, action, receivers))
        assert label.sort_key() == (action, tuple(sorted(senders)), tuple(sorted(receivers)))
        twin = SystemLabel(frozenset(senders), action, frozenset(receivers))
        assert twin == label and hash(twin) == hash(label)
        assert repr(twin) == repr(label) == (
            f"SystemLabel(senders={senders!r}, action={action!r}, receivers={receivers!r})"
        )
    assert SystemLabel.__match_args__ == ("senders", "action", "receivers")


def test_transition_str():
    t = SystemTransition(
        ("0", "0"), SystemLabel(frozenset({"a"}), "go", frozenset({"b"})), ("1", "0")
    )
    assert str(t) == "(0,0) --{a} go {b}--> (1,0)"


def test_transitions_equal_plain_triples():
    label = SystemLabel(frozenset({"a"}), "go", frozenset({"b"}))
    assert SystemTransition(("0",), label, ("1",)) == (("0",), label, ("1",))
    assert hash(SystemTransition(("0",), label, ("1",))) == hash((("0",), label, ("1",)))


def test_same_component_under_two_names():
    worker = component(outputs=("go",), transitions=(("0", "go", "0"),))
    sink = component(inputs=("go",), transitions=(("0", "go", "0"),))
    sys = System(("w1", "w2", "k"), {"w1": worker, "w2": worker, "k": sink})
    assert sys.state_count() == 1
    assert sys.initial_states() == {("0", "0", "0")}


def test_composition_enumerates_sender_and_receiver_groups():
    worker = component(outputs=("go",), transitions=(("0", "go", "0"),))
    sink = component(inputs=("go",), transitions=(("0", "go", "0"),))
    sys = System(("w1", "w2", "k"), {"w1": worker, "w2": worker, "k": sink})
    labels = {str(t.label) for t in sys.successors(("0", "0", "0"))}
    assert labels == {
        "{w1} go {}",
        "{w2} go {}",
        "{w1,w2} go {}",
        "{} go {k}",
        "{w1} go {k}",
        "{w2} go {k}",
        "{w1,w2} go {k}",
    }


def test_nondeterministic_local_moves_multiply():
    chooser = component(
        outputs=("go",),
        states=("0", "1", "2"),
        transitions=(("0", "go", "1"), ("0", "go", "2")),
    )
    sink = component(inputs=("go",), transitions=(("0", "go", "0"),))
    sys = System(("c", "k"), {"c": chooser, "k": sink})
    targets = {
        t.target
        for t in sys.successors(("0", "0"))
        if t.senders == frozenset({"c"}) and t.receivers == frozenset({"k"})
    }
    assert targets == {("1", "0"), ("2", "0")}


def test_successors_checks_arity():
    sys = System(("a",), {"a": component(outputs=("go",))})
    with pytest.raises(SpecificationError):
        sys.successors(("0", "0"))


def test_state_space_limit():
    comp = component(states=("0", "1"), outputs=("go",))
    other = component(states=("0", "1"), inputs=("go",))
    sys = System(("a", "b"), {"a": comp, "b": other})
    with pytest.raises(ResourceLimitError) as refused:
        sys.state_space(Budget(states=3))
    assert refused.value.bound == "states"
    assert len(sys.state_space(Budget(states=4))[0]) == 4


def test_participant_limit():
    worker = component(outputs=("go",), transitions=(("0", "go", "0"),))
    sink = component(inputs=("go",), transitions=(("0", "go", "0"),))
    sys = System(("w1", "w2", "k"), {"w1": worker, "w2": worker, "k": sink})
    with pytest.raises(ResourceLimitError) as refused:
        sys.successors(("0", "0", "0"), Budget(participants=2))
    assert refused.value.bound == "participants"
    assert str(refused.value) == "ready participants of 'go': 3, above the bound 2"
    assert sys.successors(("0", "0", "0"), Budget(participants=3))


def test_validate_closed_reports_missing_roles():
    sender_only = component(outputs=("go",), transitions=(("0", "go", "0"),))
    receiver_only = component(inputs=("back",), transitions=(("0", "back", "0"),))
    sys = System(("a", "b"), {"a": sender_only, "b": receiver_only})
    report = sys.validate_closed()
    assert not report.ok
    assert report.missing_receivers == ("go",)
    assert report.missing_senders == ("back",)


def test_closed_system_report_is_ok():
    fsys, _ = models.make_all()
    assert fsys.validate_closed().ok


def test_featured_system_requires_shared_space_and_model():
    fsys, _ = models.make_all()
    other_space = FeatureSpace.of("lock", "unlock", "extra")
    user = models.make_user()
    with pytest.raises(SpecificationError):
        FeaturedSystem(("u",), {"u": user}, other_space, fsys.feature_model)
    with pytest.raises(SpecificationError):
        FeaturedSystem(("u",), {"u": user}, models.SPACE, Var("lock"))


def test_featured_projection_projects_every_component():
    fsys, _ = models.make_all()
    for product in valid_products(fsys.feature_model, fsys.space):
        plain = fsys.project(product)
        assert plain.names == fsys.names
        for name in fsys.names:
            expected = fsys.components[name].project(product)
            assert plain.components[name].transitions == expected.transitions


def test_running_example_composition_counts():
    fsys, _ = models.make_all()
    states, transitions = fsys.state_space()
    assert len(states) == models.TEAM_STATES
    assert len(transitions) == models.TEAM_TRANSITIONS


def test_composition_transitions_are_deterministically_ordered():
    fsys, _ = models.make_all()
    _, first = fsys.state_space()
    _, second = fsys.state_space()
    assert first == second


# --- composition against a reference enumeration ----------------------------


def test_successors_equal_the_reference_enumeration_in_order(battery):
    """On every full state of each random instance's featured system and of
    each product's projected system (`instancegen.run_battery`)."""
    assert battery.successor_failures == []
    assert battery.successor_checks > 10_000


def test_successors_come_in_the_reference_order_without_a_sort():
    """Each case the sort-free order rests on: names out of alphabetical
    order, a receiver bound before a sender, local states `9` and `10`
    (whose string order is not their declaration order), steps with two or
    more targets and two or more ready senders.
    """
    sender = component(
        states=("9", "10"), init="9", outputs=("go",),
        transitions=(("9", "go", "9"), ("9", "go", "10"), ("10", "go", "9")),
    )
    receiver = component(
        states=("9", "10", "2"), init="9", inputs=("go", "ack"),
        transitions=(("9", "go", "10"), ("9", "go", "2"), ("10", "ack", "9")),
    )
    acker = component(outputs=("ack",), transitions=(("0", "ack", "0"),))
    names = ("zed", "mid", "alpha", "beta", "ack")
    sys = System(names, {"zed": receiver, "mid": sender, "alpha": sender,
                         "beta": receiver, "ack": acker})
    compared = 0
    for state in itertools.product(*(sys.components[n].states for n in names)):
        expected = reference_successors(sys, state)
        assert sys.successors(state) == expected, state
        compared += len(expected)
    many = sys.successors(("9", "9", "9", "9", "0"))
    assert len({t.label for t in many if len(t.senders) == 2}) > 1
    assert compared > 500


def two_step_system():
    go = component(
        states=("0", "1"), outputs=("go",), transitions=(("0", "go", "1"), ("1", "go", "0"))
    )
    sink = component(states=("0", "1"), inputs=("go",), transitions=(("0", "go", "0"),))
    idle = component(states=("x",), init="x")
    return System(("a", "b", "c"), {"a": go, "b": sink, "c": idle})


@pytest.mark.parametrize(
    "state",
    [("0", "1"), ("0", "1", "x", "x"), ("9", "0", "x"), ("0", "9", "x"), ("9", "9", "x")],
    ids=str,
)
def test_successors_refuse_like_the_reference(state):
    """Wrong arity and unknown local states raise the reference's error.

    A component whose alphabet is empty never looks at its local state.
    """
    sys = two_step_system()
    with pytest.raises(SpecificationError) as expected:
        reference_successors(sys, state)
    with pytest.raises(SpecificationError) as refused:
        sys.successors(state)
    assert str(refused.value) == str(expected.value)


def test_successors_ignore_the_state_of_a_component_without_actions():
    sys = two_step_system()
    assert sys.successors(("0", "0", "?")) == reference_successors(sys, ("0", "0", "?"))
    assert sys.successors(("0", "0", "?"))


def test_participant_limit_is_checked_before_a_later_unknown_state():
    worker = component(outputs=("a",), transitions=(("0", "a", "0"),))
    late = component(inputs=("b",), transitions=(("0", "b", "0"),))
    sys = System(("w1", "w2", "k"), {"w1": worker, "w2": worker, "k": late})
    for successors in (lambda *a: reference_successors(sys, *a), sys.successors):
        with pytest.raises(ResourceLimitError):
            successors(("0", "0", "9"), Budget(participants=1))


def test_unknown_states_are_reported_by_action_then_name():
    """The first action in sorted order decides, not the first component."""
    late = component(outputs=("zz",), transitions=(("0", "zz", "0"),))
    early = component(inputs=("go",), transitions=(("0", "go", "0"),))
    sys = System(("a", "b"), {"a": late, "b": early})
    with pytest.raises(SpecificationError, match="unknown state '9'"):
        sys.successors(("8", "9"))
