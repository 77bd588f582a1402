"""Synchronisation types, rule lists and first-match lookup."""

import gc
import weakref
from pathlib import Path

import pytest

import models
from feta import (
    STAR,
    TRUE,
    FeaturedSyncSpec,
    Interval,
    InvalidProductError,
    Not,
    Product,
    SpecificationError,
    SyncRule,
    SyncType,
    SyncTypeSpec,
    SystemLabel,
    SystemTransition,
    TotalityError,
    Var,
    elaborate_text,
    synctypes,
    transition_satisfies,
)

ONE = Interval(1, 1)
ANY = Interval(0, STAR)


def transition(n_senders, n_receivers, action="go"):
    senders = frozenset(f"s{i}" for i in range(n_senders))
    receivers = frozenset(f"r{i}" for i in range(n_receivers))
    return SystemTransition(("0",), SystemLabel(senders, action, receivers), ("0",))


def test_interval_membership():
    assert Interval(1, 3).contains(1)
    assert Interval(1, 3).contains(3)
    assert not Interval(1, 3).contains(0)
    assert not Interval(1, 3).contains(4)
    assert Interval(2, STAR).contains(10**9)
    assert not Interval(2, STAR).contains(1)


def test_interval_validation():
    with pytest.raises(SpecificationError):
        Interval(-1, 1)
    with pytest.raises(SpecificationError):
        Interval(2, 1)


def test_interval_and_type_formatting():
    assert str(Interval(1, STAR)) == "[1,*]"
    assert str(SyncType(ONE, Interval(0, 2))) == "[1,1] -> [0,2]"


def test_transition_satisfies_counts_both_roles():
    st = SyncType(Interval(1, 2), Interval(1, 1))
    assert transition_satisfies(transition(1, 1), st)
    assert transition_satisfies(transition(2, 1), st)
    assert not transition_satisfies(transition(3, 1), st)
    assert not transition_satisfies(transition(1, 0), st)


def test_spec_for_action_is_total_or_raises():
    spec = SyncTypeSpec({"go": SyncType(ONE, ONE)})
    assert spec.for_action("go") == SyncType(ONE, ONE)
    assert spec.actions() == frozenset({"go"})
    with pytest.raises(TotalityError):
        spec.for_action("stop")


def test_rule_covers():
    rule = SyncRule(TRUE, frozenset({"go"}), SyncType(ONE, ONE))
    default = SyncRule(TRUE, None, SyncType(ONE, ONE))
    assert rule.covers("go") and not rule.covers("stop")
    assert default.covers("anything")


def test_rules_may_not_name_unknown_actions():
    with pytest.raises(SpecificationError):
        FeaturedSyncSpec(
            rules=(SyncRule(TRUE, frozenset({"zap"}), SyncType(ONE, ONE)),),
            alphabet=frozenset({"go"}),
            space=models.SPACE,
            feature_model=models.MODEL,
        )


def test_first_match_wins():
    broad = SyncType(Interval(1, STAR), ONE)
    narrow = SyncType(ONE, ONE)
    spec = FeaturedSyncSpec(
        rules=(
            SyncRule(Var("lock"), frozenset({"join"}), narrow),
            SyncRule(TRUE, None, broad),
        ),
        alphabet=frozenset({"join", "leave"}),
        space=models.SPACE,
        feature_model=models.MODEL,
    )
    assert spec.lookup(models.LOCK, "join") == narrow
    assert spec.lookup(models.UNLOCK, "join") == broad
    assert spec.lookup(models.LOCK, "leave") == broad


def test_lookup_requires_known_action_and_total_rules():
    spec = models.make_sync()
    with pytest.raises(SpecificationError):
        spec.lookup(models.LOCK, "zap")
    partial = FeaturedSyncSpec(
        rules=(SyncRule(Var("lock"), None, SyncType(ONE, ONE)),),
        alphabet=frozenset({"join"}),
        space=models.SPACE,
        feature_model=models.MODEL,
    )
    with pytest.raises(TotalityError):
        partial.lookup(models.UNLOCK, "join")


def test_validate_total_lists_missing_pairs():
    # Dropping the multi-sender rule leaves the unlock product uncovered
    # for join and leave but not for confirm.
    full = models.make_sync()
    assert full.validate_total() == ()
    partial = FeaturedSyncSpec(
        rules=full.rules[:2],
        alphabet=full.alphabet,
        space=full.space,
        feature_model=full.feature_model,
    )
    missing = partial.validate_total()
    assert {(str(p), a) for p, a in missing} == {
        ("{unlock}", "join"),
        ("{unlock}", "leave"),
    }


def test_find_overlaps_reports_shadowing_with_a_different_type():
    first = SyncType(ONE, ONE)
    second = SyncType(Interval(1, STAR), ONE)
    spec = FeaturedSyncSpec(
        rules=(
            SyncRule(TRUE, frozenset({"join"}), first),
            SyncRule(Var("lock"), frozenset({"join"}), second),
        ),
        alphabet=frozenset({"join"}),
        space=models.SPACE,
        feature_model=models.MODEL,
    )
    overlaps = spec.find_overlaps()
    assert [(str(p), a, str(x), str(y)) for p, a, x, y in overlaps] == [
        ("{lock}", "join", "[1,1] -> [1,1]", "[1,*] -> [1,1]")
    ]


def test_find_overlaps_ignores_agreeing_rules():
    same = SyncType(ONE, ONE)
    spec = FeaturedSyncSpec(
        rules=(
            SyncRule(TRUE, frozenset({"join"}), same),
            SyncRule(Var("lock"), frozenset({"join"}), same),
        ),
        alphabet=frozenset({"join"}),
        space=models.SPACE,
        feature_model=models.MODEL,
    )
    assert spec.find_overlaps() == ()
    assert models.make_sync().find_overlaps() == ()


def test_projection_gives_the_per_product_view():
    spec = models.make_sync()
    lock_view = spec.project(models.LOCK)
    unlock_view = spec.project(models.UNLOCK)
    assert lock_view.for_action("join") == SyncType(ONE, ONE)
    assert unlock_view.for_action("join") == SyncType(Interval(1, STAR), ONE)
    assert lock_view.for_action("confirm") == unlock_view.for_action("confirm")


def test_projection_rejects_invalid_products():
    spec = models.make_sync()
    with pytest.raises(InvalidProductError):
        spec.project(Product.of(models.SPACE, "lock", "unlock"))


def test_totality_is_validated_once_per_spec(monkeypatch):
    spec = elaborate_text(Path(models.example_path()).read_text(encoding="utf-8")).sync
    evaluated = []
    real = synctypes.evaluate
    monkeypatch.setattr(synctypes, "evaluate", lambda e, p: evaluated.append(e) or real(e, p))
    # Elaboration already validated totality; the team builder asks again.
    assert spec.validate_total() == ()
    assert spec.validate_total() is spec.validate_total()
    assert evaluated == []


def test_allowed_products_by_counts():
    spec = models.make_sync()
    both = {str(p) for p in spec.allowed_products("join", 1, 1)}
    multi = {str(p) for p in spec.allowed_products("join", 2, 1)}
    none = spec.allowed_products("join", 2, 2)
    assert both == {"{lock}", "{unlock}"}
    assert multi == {"{unlock}"}
    assert none == ()


def test_allowed_products_memo_does_not_keep_the_spec_alive():
    spec = models.make_sync()
    assert spec.allowed_products("join", 1, 1) is spec.allowed_products("join", 1, 1)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None
