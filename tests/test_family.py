"""Family-level requirements, featured compliance and the cross-checks."""

import pytest

import models
from feta import (
    And,
    Budget,
    Fts,
    Lts,
    Not,
    ResourceLimitError,
    Var,
    build_featured_team,
    check_family_compliance,
    check_family_receptiveness,
    check_family_weak_compliance,
    check_receptiveness,
    crosscheck_compliance_unfolding,
    crosscheck_family_vs_products,
    crosscheck_requirement_projection,
    derive_family_requirements,
    derive_requirements,
    equivalent,
    is_satisfiable,
    product_team,
    products_for_group,
    reachable_products,
    senders_guard,
    valid_products,
)
from feta.family import FEATURED_COMPLIANT, FEATURED_WEAKLY_COMPLIANT
from feta.receptiveness import VIOLATED

LOCK_ONLY = And((Var("lock"), Not(Var("unlock"))))
UNLOCK_ONLY = And((Var("unlock"), Not(Var("lock"))))


@pytest.fixture(scope="module")
def freqs(team, access):
    fsys, fspec = access
    return derive_family_requirements(team, fsys, fspec)


@pytest.fixture(scope="module")
def own_teams(access):
    """Each valid product's own team, specification and system."""
    fsys, fspec = access
    return {
        product: product_team(fsys, fspec, product)
        for product in valid_products(fsys.feature_model, fsys.space)
    }


def by_identity(freqs):
    return {(f.state, f.senders, f.action): f for f in freqs}


def test_family_requirement_count(freqs):
    assert len(freqs) == models.FAMILY_REQUIREMENTS


def test_family_requirement_str(freqs):
    texts = {str(f) for f in freqs}
    assert any(
        t.endswith("rcp({u1}, join) @ (0,0,0)") and t.startswith("[") for t in texts
    )


def test_derivation_is_deterministic(team, access):
    fsys, fspec = access
    again = derive_family_requirements(team, fsys, fspec)
    assert [str(f) for f in again] == [str(f) for f in derive_family_requirements(team, fsys, fspec)]


def test_conditions_are_three_part_conjunctions(freqs):
    for freq in freqs:
        assert isinstance(freq.condition, And)
        assert freq.condition.operands == (
            freq.enabling,
            freq.sync_condition,
            freq.reach_condition,
        )


def test_all_conditions_are_satisfiable(team, freqs):
    assert all(is_satisfiable(f.condition, team.space) for f in freqs)


def test_requirements_at_the_initial_state(team, freqs):
    at_start = {k: f for k, f in by_identity(freqs).items() if k[0] == ("0", "0", "0")}
    assert set(at_start) == {
        (("0", "0", "0"), frozenset({"u1"}), "join"),
        (("0", "0", "0"), frozenset({"u2"}), "join"),
        (("0", "0", "0"), frozenset({"u1", "u2"}), "join"),
    }
    single = at_start[(("0", "0", "0"), frozenset({"u1"}), "join")]
    joint = at_start[(("0", "0", "0"), frozenset({"u1", "u2"}), "join")]
    assert equivalent(single.condition, team.feature_model, team.space)
    assert equivalent(joint.condition, UNLOCK_ONLY, team.space)


def test_requirements_at_the_brokered_state(team, freqs):
    brokered = [f for f in freqs if f.state == ("0", "1", "1")]
    assert {(f.senders, f.action) for f in brokered} == {
        (frozenset({"s"}), "confirm"),
        (frozenset({"u1"}), "join"),
    }
    for freq in brokered:
        assert equivalent(freq.condition, LOCK_ONLY, team.space)


def test_no_requirements_at_states_unreachable_in_every_product(freqs):
    assert all(f.state != ("1", "1", "1") for f in freqs)


def test_reachable_products(team):
    both = reachable_products(team, ("0", "0", "0"))
    assert [str(p) for p in both] == ["{lock}", "{unlock}"]
    assert [str(p) for p in reachable_products(team, ("1", "0", "1"))] == ["{lock}"]
    assert [str(p) for p in reachable_products(team, ("2", "2", "0"))] == ["{lock}", "{unlock}"]
    assert reachable_products(team, ("1", "1", "1")) == ()


def test_senders_guard_conjoins_local_alternatives(access):
    fsys, _ = access
    guard = senders_guard(
        fsys, frozenset({"u1", "u2"}), "join", ("0", "0", "0")
    )
    per_user = Var("lock") | Var("unlock")
    assert equivalent(guard, And((per_user, per_user)), fsys.space)


def test_products_for_group_respects_sender_and_receiver_intervals(access):
    _, fspec = access
    assert [str(p) for p in products_for_group(fspec, frozenset({"u1"}), "join")] == [
        "{lock}",
        "{unlock}",
    ]
    assert [
        str(p) for p in products_for_group(fspec, frozenset({"u1", "u2"}), "join")
    ] == ["{unlock}"]


def test_strict_family_compliance_verdicts(team, freqs):
    verdicts = {k: check_family_compliance(team, f) for k, f in by_identity(freqs).items()}
    blocked = verdicts[(("0", "1", "1"), frozenset({"u1"}), "join")]
    assert blocked.status == VIOLATED
    assert str(blocked.violation_product) == "{lock}"
    served = verdicts[(("0", "0", "0"), frozenset({"u1"}), "join")]
    assert served.status == FEATURED_COMPLIANT
    assert served.witnesses


def test_weak_family_compliance_finds_witness_paths(team, freqs):
    freq = by_identity(freqs)[(("0", "1", "1"), frozenset({"u1"}), "join")]
    verdict = check_family_weak_compliance(team, freq)
    assert verdict.status == FEATURED_WEAKLY_COMPLIANT
    ((product, path),) = verdict.witnesses
    assert str(product) == "{lock}"
    assert path[0].action == "confirm"
    assert path[-1].action == "join"


def test_family_strict_verdict(team, access):
    fsys, fspec = access
    report = check_family_receptiveness(team, fsys, fspec, "strict")
    assert not report.holds
    violated = {
        (v.requirement.state, v.requirement.senders, v.requirement.action)
        for v in report.violations
    }
    assert (("0", "1", "1"), frozenset({"u1"}), "join") in violated
    assert all(str(v.violation_product) == "{lock}" for v in report.violations)


def test_family_weak_verdict(team, access):
    fsys, fspec = access
    report = check_family_receptiveness(team, fsys, fspec, "weak")
    assert report.holds
    statuses = {e.status for e in report.entries}
    assert statuses == {FEATURED_COMPLIANT, FEATURED_WEAKLY_COMPLIANT}


def test_family_route_does_not_go_product_by_product(access, monkeypatch):
    fsys, fspec = access
    team = build_featured_team(fsys, fspec)

    def refuse(*args):
        raise AssertionError("the family route projected the team or searched a projection")

    monkeypatch.setattr(Fts, "project", refuse)
    monkeypatch.setattr(Lts, "reachable", refuse)
    report = check_family_receptiveness(team, fsys, fspec, "weak")
    assert report.holds
    assert FEATURED_WEAKLY_COMPLIANT in {e.status for e in report.entries}


def test_requirement_projection_agrees_per_product(own_teams, freqs):
    for product, own in own_teams.items():
        agreement = crosscheck_requirement_projection(freqs, product, derive_requirements(*own))
        assert agreement.ok, (
            f"{product}: only in family {agreement.only_in_family},"
            f" only in product {agreement.only_in_product}"
        )


def test_compliance_unfolds_product_by_product(team, access):
    fsys, fspec = access
    strict = check_family_receptiveness(team, fsys, fspec, "strict")
    assert all(crosscheck_compliance_unfolding(team, v) for v in strict.entries)
    flipped = {FEATURED_COMPLIANT: VIOLATED, VIOLATED: FEATURED_COMPLIANT}
    assert not any(
        crosscheck_compliance_unfolding(team, v._replace(status=flipped[v.status]))
        for v in strict.entries
    )


@pytest.mark.parametrize("mode", ["strict", "weak"])
def test_family_verdict_equals_product_verdicts(team, access, own_teams, mode):
    fsys, fspec = access
    family = check_family_receptiveness(team, fsys, fspec, mode)
    reports = [(product, check_receptiveness(*own, mode)) for product, own in own_teams.items()]
    agreement = crosscheck_family_vs_products(family, reports)
    assert agreement.ok
    assert agreement.mode == mode
    expected = {"strict": False, "weak": True}[mode]
    assert agreement.family_holds is expected
    assert agreement.products_hold is expected
    verdicts = {str(p): holds for p, holds in agreement.product_verdicts}
    if mode == "strict":
        assert verdicts == {"{lock}": False, "{unlock}": True}
    else:
        assert verdicts == {"{lock}": True, "{unlock}": True}


def test_family_requirements_bound_the_ready_senders(access, team):
    fsys, fspec = access
    with pytest.raises(ResourceLimitError) as refused:
        derive_family_requirements(team, fsys, fspec, Budget(participants=1))
    assert refused.value.bound == "participants"
    assert str(refused.value) == "ready senders of 'join': 2, above the bound 1"
