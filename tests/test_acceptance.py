"""Acceptance battery for the running example and the randomised laws.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass or fail line for each. All values are exact; the random battery uses
fixed seeds and checks every feature bit-mask against direct evaluation.
"""

import models
from instancegen import equivalent
from feta import (
    And,
    Not,
    Var,
    build_featured_classes,
    check_family_receptiveness,
    check_projection_commutes,
    check_receptiveness,
    crosscheck_compliance_unfolding,
    crosscheck_family_vs_products,
    crosscheck_requirement_projection,
    derive_family_requirements,
    derive_requirements,
    entails,
    is_satisfiable,
    prune_for_display,
    reachable_products,
    valid_products,
)
from feta.family import FEATURED_COMPLIANT, FEATURED_WEAKLY_COMPLIANT
from feta.receptiveness import COMPLIANT, VIOLATED, WEAKLY_COMPLIANT
from feta.team import build_team

UNLOCK_ONLY = And((Var("unlock"), Not(Var("lock"))))
LOCK_ONLY = And((Var("lock"), Not(Var("unlock"))))


def project_all(access):
    fsys, fspec = access
    for product in valid_products(fsys.feature_model, fsys.space):
        yield product, fsys.project(product), fspec.project(product)


def test_01_team_size(team):
    assert len(team.states) == 18
    assert len(team.transitions) == 142


def test_02_valid_products(access):
    fsys, _ = access
    products = valid_products(fsys.feature_model, fsys.space)
    assert [str(p) for p in products] == ["{lock}", "{unlock}"]


def test_03_transition_guards(team):
    loop_guard = team.guards[models.JOINT_JOIN_LOOP]
    brokered_guard = team.guards[models.JOINT_JOIN_BROKERED]
    assert equivalent(loop_guard, UNLOCK_ONLY, team.space)
    assert not is_satisfiable(brokered_guard, team.space)


def test_04_pruning(team, pruned):
    assert len(pruned.states) == 8
    assert len(pruned.transitions) == 18
    assert all(is_satisfiable(g, team.space) for g in pruned.guards.values())


def test_05_projection_commutes(access, battery):
    featured = build_featured_classes(*access)
    for product, sys_p, spec_p in project_all(access):
        own = build_team(sys_p, spec_p)
        assert check_projection_commutes(featured, product, featured.kept(product), own).ok
    assert battery.instances == 200
    assert battery.projection_failures == []


def test_06_product_level_receptiveness(access):
    verdicts = {}
    for product, sys_p, spec_p in project_all(access):
        team_p = build_team(sys_p, spec_p)
        strict = check_receptiveness(team_p, spec_p, sys_p, "strict")
        weak = check_receptiveness(team_p, spec_p, sys_p, "weak")
        verdicts[str(product)] = (strict, weak)
    strict_lock, weak_lock = verdicts["{lock}"]
    strict_unlock, weak_unlock = verdicts["{unlock}"]
    assert strict_unlock.holds and weak_unlock.holds
    assert not strict_lock.holds and weak_lock.holds
    key = {(e.requirement.state, e.requirement.senders, e.requirement.action): e
           for e in weak_lock.entries}
    entry = key[(("1", "0", "1"), frozenset({"u2"}), "join")]
    assert entry.status == WEAKLY_COMPLIANT
    assert entry.witness[0].action == "confirm"
    assert entry.witness[0].senders == {"s"}
    assert entry.witness[-1].action == "join"


def test_07_family_requirements(access, team):
    fsys, fspec = access
    freqs = derive_family_requirements(team, fsys, fspec)
    at_init = [f for f in freqs if f.state == ("0", "0", "0")]
    assert len(at_init) == 3
    for freq in at_init:
        expected = UNLOCK_ONLY if len(freq.senders) == 2 else team.feature_model
        assert equivalent(freq.condition, expected, team.space)
    brokered = [f for f in freqs if f.state == ("0", "1", "1")]
    assert len(brokered) == 2
    assert all(equivalent(f.condition, LOCK_ONLY, team.space) for f in brokered)


def test_08_family_receptiveness(access, team):
    fsys, fspec = access
    strict = check_family_receptiveness(team, fsys, fspec, "strict")
    assert not strict.holds
    culprits = {(v.requirement.state, v.requirement.senders, v.requirement.action)
                for v in strict.violations}
    assert (("0", "1", "1"), frozenset({"u1"}), "join") in culprits
    weak = check_family_receptiveness(team, fsys, fspec, "weak")
    assert weak.holds
    assert {e.status for e in weak.entries} == {
        FEATURED_COMPLIANT,
        FEATURED_WEAKLY_COMPLIANT,
    }


def test_09_family_analyses_unfold_per_product(access, team, battery):
    fsys, fspec = access
    family = {
        mode: check_family_receptiveness(team, fsys, fspec, mode) for mode in ("strict", "weak")
    }
    freqs = [v.requirement for v in family["strict"].entries]
    reports = {mode: [] for mode in family}
    for product, sys_p, spec_p in project_all(access):
        team_p = build_team(sys_p, spec_p)
        own_reqs = derive_requirements(team_p, spec_p, sys_p)
        assert crosscheck_requirement_projection(freqs, product, own_reqs).ok
        for mode, out in reports.items():
            out.append((product, check_receptiveness(team_p, spec_p, sys_p, mode)))
    assert crosscheck_compliance_unfolding(team, family["strict"].entries) == ()
    for mode, out in reports.items():
        assert crosscheck_family_vs_products(family[mode], out).ok
    assert battery.requirement_projection_failures == []
    assert battery.unfolding_failures == []
    assert battery.family_strict_failures == []
    assert battery.family_weak_failures == []
    assert battery.witness_failures == []
    assert battery.weak_checks > 0


def test_10_global_invariants(access, team, battery):
    fsys, fspec = access
    for guard in team.guards.values():
        assert entails(guard, team.feature_model, team.space)
    for state in team.states:
        symbolic = set(reachable_products(team, state))
        direct = set()
        for product, sys_p, spec_p in project_all(access):
            team_p = build_team(sys_p, spec_p)
            if state in team_p.reachable():
                direct.add(product)
        assert symbolic == direct
    for product, sys_p, spec_p in project_all(access):
        team_p = build_team(sys_p, spec_p)
        strict = check_receptiveness(team_p, spec_p, sys_p, "strict")
        weak = check_receptiveness(team_p, spec_p, sys_p, "weak")
        by_req = {e.requirement: e.status for e in weak.entries}
        for entry in strict.entries:
            if entry.status == COMPLIANT:
                assert by_req[entry.requirement] != VIOLATED
    assert battery.guard_model_failures == []
    assert battery.reachability_failures == []
    assert battery.monotonicity_failures == []
    assert battery.mask_failures == []
    assert battery.queries > 0
