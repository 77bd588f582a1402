"""Family-level requirements, featured compliance and the cross-checks."""

import sys
from pathlib import Path

import pytest

import models
from feta import (
    And,
    Budget,
    FamilyRequirement,
    FeaturedSyncSpec,
    Fts,
    Lts,
    Not,
    ResourceLimitError,
    Var,
    build_featured_classes,
    build_featured_team,
    check_family_compliance,
    check_family_receptiveness,
    check_family_weak_compliance,
    check_projection_commutes,
    check_receptiveness,
    conj,
    crosscheck_compliance_unfolding,
    crosscheck_family_vs_products,
    crosscheck_requirement_projection,
    derive_family_requirements,
    derive_requirements,
    disj,
    elaborate_text,
    equivalent,
    evaluate,
    is_satisfiable,
    product_team,
    products_for_group,
    products_in,
    reachable_featured_team,
    reachable_products,
    valid_products,
)
from feta import automata, cli, features
from feta import team as team_module
from feta.cli import main
from feta.family import FEATURED_COMPLIANT, FEATURED_WEAKLY_COMPLIANT
from feta.features import model_mask
from feta.receptiveness import VIOLATED, sends

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


def senders_guard(fsys, group, action, state):
    """The enabling factor, built apart from the derivation: the conjunction,
    in system order, of each member's disjunction of its local guards on
    the action from its local state, in transition order."""
    members = [
        (fsys.components[name], state[idx]) for idx, name in enumerate(fsys.names) if name in group
    ]
    return conj(
        disj(comp.guards[t] for t in comp.transitions if t[:2] == (local, action))
        for comp, local in members
    )


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


def test_conditions_are_three_part_conjunctions(access, freqs):
    """Enabling, sync and reach, in that order, on the access fixture and on
    every bundled example; the enabling factor is the senders' guard."""
    derived = [(access[0], freqs)]
    for name in models.EXAMPLES:
        result = elaborate_text(Path(models.example_path(name)).read_text(encoding="utf-8"))
        fsys, fspec = result.system, result.sync
        team = reachable_featured_team(fsys, fspec)
        derived.append((fsys, derive_family_requirements(team, fsys, fspec)))
    for fsys, reqs in derived:
        for freq in reqs:
            assert isinstance(freq.condition, And)
            assert freq.condition.operands == (
                freq.enabling,
                freq.sync_condition,
                freq.reach_condition,
            )
            assert freq.enabling == senders_guard(fsys, freq.senders, freq.action, freq.state)


def test_all_conditions_are_satisfiable(team, freqs):
    assert all(is_satisfiable(f.condition, team.space) for f in freqs)


@pytest.mark.parametrize(
    "path",
    [Path(models.example_path()), Path(__file__).parent / "inputs" / "product_family_v08.feta"],
    ids=lambda path: path.stem,
)
def test_deciding_the_family_reads_no_condition(monkeypatch, path):
    """Both modes decide on the masks: no requirement's condition is built,
    only its factors are kept, until a report or cross-check reads it."""
    result = elaborate_text(path.read_text(encoding="utf-8"))
    fsys, fspec = result.system, result.sync
    team = reachable_featured_team(fsys, fspec)
    reads = []
    view = FamilyRequirement.condition.fget

    def counting(freq):
        reads.append(freq)
        return view(freq)

    monkeypatch.setattr(FamilyRequirement, "condition", property(counting))
    reports = [check_family_receptiveness(team, fsys, fspec, mode) for mode in ("strict", "weak")]
    assert reads == []
    assert all(report.entries for report in reports)
    str(reports[0].entries[0].requirement)
    assert len(reads) == 1


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


def test_senders_guard_conjoins_local_alternatives(access, freqs):
    """The joint join's enabling factor conjoins each user's two guarded joins."""
    fsys, _ = access
    joint = by_identity(freqs)[(("0", "0", "0"), frozenset({"u1", "u2"}), "join")]
    per_user = Var("lock") | Var("unlock")
    assert equivalent(joint.enabling, And((per_user, per_user)), fsys.space)
    assert joint.enabling == senders_guard(fsys, joint.senders, "join", joint.state)


def test_products_for_group_respects_sender_and_receiver_intervals(access):
    _, fspec = access

    def names(group):
        mask = products_for_group(fspec, frozenset(group), "join")
        return [str(p) for p in products_in(mask, fspec.feature_model, fspec.space)]

    assert names({"u1"}) == ["{lock}", "{unlock}"]
    assert names({"u1", "u2"}) == ["{unlock}"]


def test_strict_family_compliance_verdicts(team, freqs):
    verdicts = {k: check_family_compliance(team, f) for k, f in by_identity(freqs).items()}
    blocked = verdicts[(("0", "1", "1"), frozenset({"u1"}), "join")]
    assert blocked.status == VIOLATED
    assert str(blocked.violation_product) == "{lock}"
    served = verdicts[(("0", "0", "0"), frozenset({"u1"}), "join")]
    assert served.status == FEATURED_COMPLIANT
    assert served.witnesses


def test_family_compliance_witnesses_are_the_sends_of_the_group(team, freqs):
    """The team groups a state's sends by (senders, action) once; each
    compliant verdict's witnesses are the scan of `sends`, in order, and so
    are the guards that the unfolding check reads.
    """
    products = valid_products(team.feature_model, team.space)
    for freq in freqs:
        scan = tuple(t for t in team.successors_from(freq.state) if sends(t, freq))
        verdict = check_family_compliance(team, freq)
        assert verdict.witnesses == (scan if verdict.status == FEATURED_COMPLIANT else ())
        unfolds = all(
            any(evaluate(team.guards[t], p) for t in scan)
            for p in products
            if evaluate(freq.condition, p)
        )
        assert (verdict.status == FEATURED_COMPLIANT) == unfolds
    assert any(len(check_family_compliance(team, f).witnesses) > 1 for f in freqs)


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


def test_family_check_and_projection_leave_the_guards_dict_unbuilt(access):
    """A built team makes its `guards` dict only when it is read in full:
    deciding the family on the reachable team and projecting the full team
    take their guards from the builder's guard function."""
    fsys, fspec = access
    reachable = reachable_featured_team(fsys, fspec)
    for mode in ("strict", "weak"):
        check_family_receptiveness(reachable, fsys, fspec, mode)
    full = build_featured_team(fsys, fspec)
    for product in valid_products(fsys.feature_model, fsys.space):
        full.project(product)
    assert "guards" not in vars(reachable)
    assert "guards" not in vars(full)
    assert list(full.guards) == list(full.transitions)


def patch_everywhere(monkeypatch, name, replacement):
    """Replace `feta.features.<name>` in every `feta` module that holds it."""
    original = getattr(features, name)
    for module_name, module in sorted(sys.modules.items()):
        if module_name.split(".")[0] == "feta" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("name,masks", [("acc4", 4), ("product_family_v08", 9)])
def test_verify_builds_one_display_expression_per_mask(monkeypatch, capsys, name, masks):
    """One `verify` asks `product_set_expr` once per distinct product mask,
    and the teams' sync operands and the requirements' sync and reach
    conditions hold one object per mask, shared between them."""
    made, seen = [], {}
    original = features.product_set_expr

    def counted(products, space):
        made.append(tuple(products))
        return original(products, space)

    def keeping(key, fn):
        def kept(*args):
            seen[key] = args, fn(*args)
            return seen[key][1]

        return kept

    patch_everywhere(monkeypatch, "product_set_expr", counted)
    for key in ("check_projection_commutes", "check_family_receptiveness"):
        monkeypatch.setattr(cli, key, keeping(key, getattr(cli, key)))
    assert main(["verify", str(Path(__file__).parent / "inputs" / f"{name}.feta")]) == 0
    capsys.readouterr()
    assert len(made) == len(set(made)) == masks

    full = seen["check_projection_commutes"][0][0]
    (feta, fsys, fspec, *_), report = seen["check_family_receptiveness"]
    by_mask = {}

    def one_object(mask, expr):
        assert by_mask.setdefault(mask, expr) is expr

    for cls in full.classes:
        counts = (len(cls.label.senders), len(cls.label.receivers))
        one_object(fspec.allowed_products(cls.label.action, *counts), cls.guard.operands[1])
    for t in feta.transitions:
        counts = (len(t.label.senders), len(t.label.receivers))
        one_object(fspec.allowed_products(t.label.action, *counts), feta.guards[t].operands[1])
    for entry in report.entries:
        freq = entry.requirement
        one_object(products_for_group(fspec, freq.senders, freq.action), freq.sync_condition)
        one_object(feta.reachable_masks[freq.state], freq.reach_condition)


def test_per_product_route_reads_no_mask(monkeypatch):
    """The per-product route stays an oracle independent of the family's masks.

    On every bundled example the family side is built first, which also
    fills the featured system's label tables that the products' own systems
    share; then every function, property and class that compiles or reads a
    mask refuses, in every `feta` module that holds it, and the per-product
    half of `verify` still runs and agrees.
    """
    built = []
    for name in models.EXAMPLES:
        result = elaborate_text(Path(models.example_path(name)).read_text(encoding="utf-8"))
        fsys, fspec = result.system, result.sync
        full = build_featured_team(fsys, fspec)
        featured = build_featured_classes(fsys, fspec)
        freqs = derive_family_requirements(reachable_featured_team(fsys, fspec), fsys, fspec)
        products = valid_products(fsys.feature_model, fsys.space)
        built.append((fsys, fspec, full, featured, freqs, products))

    def refuse(*args):
        raise AssertionError("the per-product route read a mask")

    for name in ("expr_mask", "model_mask", "product_bits", "products_in", "first_product_in"):
        patch_everywhere(monkeypatch, name, refuse)
    monkeypatch.setattr(Fts, "guard_masks", property(refuse))
    monkeypatch.setattr(Fts, "reachable_masks", property(refuse))
    monkeypatch.setattr(FeaturedSyncSpec, "table", refuse)
    monkeypatch.setattr(FeaturedSyncSpec, "allowed_products", refuse)
    monkeypatch.setattr(team_module, "_TeamGuards", refuse)
    for fsys, fspec, full, featured, freqs, products in built:
        with pytest.raises(AssertionError):
            full.guard_masks
        with pytest.raises(AssertionError):
            fsys.components[fsys.names[0]].guard_masks
        for product in products:
            own, spec_p, sys_p = product_team(fsys, fspec, product)
            assert sys_p._step_table.plan is fsys._step_table.plan
            assert check_projection_commutes(featured, product, featured.kept(product), own).ok
            verdicts = check_receptiveness(own, spec_p, sys_p, "weak")
            own_reqs = [e.requirement for e in verdicts.entries]
            assert crosscheck_requirement_projection(freqs, product, own_reqs).ok


def test_one_check_compiles_no_feature_model(monkeypatch):
    """The model's mask is read off its valid products, which elaboration lists."""
    compiled = []
    original = features.expr_mask

    def counting(expr, space):
        compiled.append(expr)
        return original(expr, space)

    patch_everywhere(monkeypatch, "expr_mask", counting)
    text = Path(models.example_path("access_management")).read_text(encoding="utf-8")
    result = elaborate_text(text)
    fsys, fspec = result.system, result.sync
    team = reachable_featured_team(fsys, fspec)
    assert team.reachable_masks
    check_family_receptiveness(team, fsys, fspec, "weak")
    assert not any(expr is fsys.feature_model for expr in compiled)
    assert model_mask(fsys.feature_model, fsys.space) == original(fsys.feature_model, fsys.space)


def test_one_weak_check_runs_one_reach_fixpoint(monkeypatch, capsys):
    """`reachable_featured_team` hands its fixpoint to the team it builds."""
    runs = []
    original = automata.reach_masks

    def counting(*args):
        runs.append(args)
        return original(*args)

    for module in (automata, team_module):
        monkeypatch.setattr(module, "reach_masks", counting)
    assert main(["check", "--weak", models.example_path("access_management")]) == 0
    assert "receptive" in capsys.readouterr().out
    assert len(runs) == 1


def test_requirement_projection_agrees_per_product(own_teams, freqs):
    for product, own in own_teams.items():
        agreement = crosscheck_requirement_projection(freqs, product, derive_requirements(*own))
        assert agreement.ok, (
            f"{product}: only in family {agreement.only_in_family},"
            f" only in product {agreement.only_in_product}"
        )
        # Conditions made one at a time and dropped after their check do
        # not share a memo entry through a reused identity.
        fresh = (
            FamilyRequirement(
                f.state, f.senders, f.action, f.mask, f.enabling, f.sync_condition,
                f.reach_condition,
            )
            for f in freqs
        )
        assert crosscheck_requirement_projection(fresh, product, derive_requirements(*own)).ok


def test_requirement_projection_reports_a_swapped_reach_factor(freqs, own_teams):
    """A requirement given another state's reach factor is reported, though
    the factor object is shared with the requirements of that state.
    """
    products = list(own_teams)
    planted = next(
        (f, g.reach_condition, p)
        for f in freqs
        for g in freqs
        for p in products
        if evaluate(f.condition, p) and not evaluate(g.reach_condition, p)
    )
    freq, reach, product = planted
    swapped = freq._replace(reach_condition=reach)
    planted_freqs = [swapped if f is freq else f for f in freqs]
    agreement = crosscheck_requirement_projection(
        planted_freqs, product, derive_requirements(*own_teams[product])
    )
    assert agreement.only_in_product == ((freq.state, freq.senders, freq.action),)
    assert agreement.only_in_family == ()


def test_compliance_unfolds_product_by_product(team, access):
    fsys, fspec = access
    strict = check_family_receptiveness(team, fsys, fspec, "strict")
    assert crosscheck_compliance_unfolding(team, strict.entries) == ()
    flipped = {FEATURED_COMPLIANT: VIOLATED, VIOLATED: FEATURED_COMPLIANT}
    wrong = tuple(v._replace(status=flipped[v.status]) for v in strict.entries)
    assert crosscheck_compliance_unfolding(team, wrong) == wrong
    # Flipping every third verdict is caught exactly there, in order.
    mixed = tuple(w if i % 3 == 1 else v for i, (v, w) in enumerate(zip(strict.entries, wrong)))
    assert crosscheck_compliance_unfolding(team, mixed) == wrong[1::3]
    assert {v.status for v in wrong[1::3]} == {FEATURED_COMPLIANT, VIOLATED}


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
