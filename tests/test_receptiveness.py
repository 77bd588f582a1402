"""Requirement derivation and (weak) compliance on one product's team."""

import pytest

import models
from instancegen import check_compliance
from feta import (
    STAR,
    TRUE,
    Component,
    Interval,
    Requirement,
    SpecificationError,
    SyncType,
    SyncTypeSpec,
    System,
    build_team,
    check_receptiveness,
    check_weak_compliance,
    derive_requirements,
)
from feta.receptiveness import COMPLIANT, VIOLATED, WEAKLY_COMPLIANT


@pytest.fixture(scope="module")
def lock_team(access):
    fsys, fspec = access
    sys_p = fsys.project(models.LOCK)
    spec_p = fspec.project(models.LOCK)
    return build_team(sys_p, spec_p), spec_p, sys_p


@pytest.fixture(scope="module")
def unlock_team(access):
    fsys, fspec = access
    sys_p = fsys.project(models.UNLOCK)
    spec_p = fspec.project(models.UNLOCK)
    return build_team(sys_p, spec_p), spec_p, sys_p


def test_requirement_str():
    req = Requirement(("1", "0", "1"), frozenset({"u2"}), "join")
    assert str(req) == "rcp({u2}, join) @ (1,0,1)"


def test_requirement_counts(lock_team, unlock_team):
    team, spec, sys_p = lock_team
    assert len(derive_requirements(team, spec, sys_p)) == models.LOCK_REQUIREMENTS
    team, spec, sys_p = unlock_team
    assert len(derive_requirements(team, spec, sys_p)) == models.UNLOCK_REQUIREMENTS


def test_requirements_only_at_reachable_states(lock_team):
    team, spec, sys_p = lock_team
    reachable = team.reachable()
    assert all(r.state in reachable for r in derive_requirements(team, spec, sys_p))


def test_group_requirement_under_multi_sender_type(unlock_team):
    team, spec, sys_p = unlock_team
    reqs = derive_requirements(team, spec, sys_p)
    at_start = {(frozenset(r.senders), r.action) for r in reqs if r.state == ("0", "0", "0")}
    assert at_start == {
        (frozenset({"u1"}), "join"),
        (frozenset({"u2"}), "join"),
        (frozenset({"u1", "u2"}), "join"),
    }


def test_no_requirements_for_groups_outside_the_sender_interval(lock_team):
    team, spec, sys_p = lock_team
    reqs = derive_requirements(team, spec, sys_p)
    assert all(len(r.senders) == 1 for r in reqs)


def _optional_receiver_system():
    sender = Component(
        states=("0",),
        initial=frozenset({"0"}),
        actions=frozenset({"tick"}),
        transitions=(("0", "tick", "0"),),
        inputs=frozenset(),
        outputs=frozenset({"tick"}),
    )
    listener = Component(
        states=("0",),
        initial=frozenset({"0"}),
        actions=frozenset({"tick"}),
        transitions=(("0", "tick", "0"),),
        inputs=frozenset({"tick"}),
        outputs=frozenset(),
    )
    return System(("a", "b"), {"a": sender, "b": listener})


def test_actions_with_optional_reception_yield_no_requirements():
    sys_p = _optional_receiver_system()
    spec = SyncTypeSpec({"tick": SyncType(Interval(1, 1), Interval(0, STAR))})
    team = build_team(sys_p, spec)
    assert derive_requirements(team, spec, sys_p) == ()
    report = check_receptiveness(team, spec, sys_p)
    assert report.holds and report.entries == ()


def test_compliance_needs_nonempty_receivers():
    # With a mandatory receiver interval the same lone send no longer counts.
    sys_p = _optional_receiver_system()
    spec = SyncTypeSpec({"tick": SyncType(Interval(1, 1), Interval(1, 1))})
    team = build_team(sys_p, spec)
    (req,) = derive_requirements(team, spec, sys_p)
    verdict = check_compliance(team, req)
    assert verdict.status == COMPLIANT
    assert len(verdict.witness) == 1
    assert verdict.witness[0].receivers == frozenset({"b"})


def test_unlock_product_is_receptive(unlock_team):
    team, spec, sys_p = unlock_team
    report = check_receptiveness(team, spec, sys_p)
    assert report.holds
    assert all(e.status == COMPLIANT for e in report.entries)


def test_lock_product_violations_are_exactly_the_expected_ones(lock_team):
    team, spec, sys_p = lock_team
    report = check_receptiveness(team, spec, sys_p, mode="strict")
    violated = {
        (e.requirement.state, e.requirement.senders, e.requirement.action)
        for e in report.entries
        if e.status != COMPLIANT
    }
    assert violated == models.LOCK_VIOLATIONS
    assert not report.holds


def test_lock_product_is_weakly_receptive(lock_team):
    team, spec, sys_p = lock_team
    report = check_receptiveness(team, spec, sys_p, mode="weak")
    assert report.holds
    statuses = {e.status for e in report.entries}
    assert statuses == {COMPLIANT, WEAKLY_COMPLIANT}


def test_verdict_entries_do_not_depend_on_the_mode(lock_team):
    """`verify` reads a product's strict and weak verdicts off one report."""
    strict, weak = (check_receptiveness(*lock_team, mode=mode) for mode in ("strict", "weak"))
    assert strict.entries == weak.entries
    assert strict._replace(mode="weak") == weak
    assert (strict.holds, weak.holds) == (False, True)


def test_weak_witness_goes_through_the_servers_confirm(lock_team):
    team, spec, sys_p = lock_team
    req = Requirement(("1", "0", "1"), frozenset({"u2"}), "join")
    verdict = check_weak_compliance(team, req)
    assert verdict.status == WEAKLY_COMPLIANT
    path = verdict.witness
    assert path[0].action == "confirm"
    assert path[0].senders == frozenset({"s"})
    assert path[-1].action == "join"
    assert path[-1].senders == frozenset({"u2"})


def test_weak_prefix_excludes_the_requesting_group(lock_team):
    team, spec, sys_p = lock_team
    for req in derive_requirements(team, spec, sys_p):
        verdict = check_weak_compliance(team, req)
        if verdict.status == WEAKLY_COMPLIANT:
            for step in verdict.witness[:-1]:
                assert not (req.senders & step.label.participants())


def test_weak_compliance_of_an_immediate_step_is_compliant(lock_team):
    team, spec, sys_p = lock_team
    req = Requirement(("0", "0", "0"), frozenset({"u1"}), "join")
    assert check_weak_compliance(team, req).status == COMPLIANT


def test_unknown_mode_is_rejected(lock_team):
    team, spec, sys_p = lock_team
    with pytest.raises(SpecificationError):
        check_receptiveness(team, spec, sys_p, mode="lenient")


def test_vacuous_receptiveness_warns():
    sender = Component(
        states=("0",),
        initial=frozenset(),
        actions=frozenset({"tick"}),
        transitions=(("0", "tick", "0"),),
        inputs=frozenset(),
        outputs=frozenset({"tick"}),
    )
    listener = Component(
        states=("0",),
        initial=frozenset({"0"}),
        actions=frozenset({"tick"}),
        transitions=(("0", "tick", "0"),),
        inputs=frozenset({"tick"}),
        outputs=frozenset(),
    )
    sys_p = System(("a", "b"), {"a": sender, "b": listener})
    spec = SyncTypeSpec({"tick": SyncType(Interval(1, 1), Interval(1, 1))})
    team = build_team(sys_p, spec)
    report = check_receptiveness(team, spec, sys_p)
    assert report.holds
    assert report.warnings
