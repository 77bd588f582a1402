"""Synchronisation types, rule lists and first-match lookup."""

import gc
import weakref
from pathlib import Path

import pytest

import models
from instancegen import instances
from feta import (
    STAR,
    TRUE,
    FeaturedSyncSpec,
    FeatureSpace,
    Interval,
    InvalidProductError,
    Not,
    Product,
    SpecificationError,
    SyncRule,
    SyncType,
    SyncTypeSpec,
    TotalityError,
    Var,
    elaborate_text,
    evaluate,
    product_index,
    products_for_group,
    products_in,
    synctypes,
    valid_products,
)

ONE = Interval(1, 1)
ANY = Interval(0, STAR)


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


def test_admits_counts_both_roles():
    st = SyncType(Interval(1, 2), Interval(1, 1))
    assert st.admits(1, 1)
    assert st.admits(2, 1)
    assert not st.admits(3, 1)
    assert not st.admits(1, 0)


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
    with pytest.raises(SpecificationError):
        spec.allowed_products("zap", 1, 1)
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


def test_projection_and_lookup_reject_products_over_another_space():
    """The space's declaration order is part of it, so `{lock}` over
    ("unlock", "lock") is not a product of the example's family: the
    specification refuses it as the system does."""
    other = Product.of(FeatureSpace(("unlock", "lock")), "lock")
    spec, fsys = models.make_sync(), models.make_system()
    for refuse in (spec.project, lambda p: spec.lookup(p, "join"), fsys.project):
        with pytest.raises(InvalidProductError, match="over a different feature space"):
            refuse(other)


def test_totality_is_validated_once_per_spec(monkeypatch):
    spec = elaborate_text(Path(models.example_path()).read_text(encoding="utf-8")).sync
    evaluated = []
    real = synctypes.evaluate
    monkeypatch.setattr(synctypes, "evaluate", lambda e, p: evaluated.append(e) or real(e, p))
    # Elaboration already validated totality; the team builder asks again.
    assert spec.validate_total() == ()
    assert spec.validate_total() is spec.validate_total()
    assert evaluated == []


def names_in(spec, mask):
    return {str(p) for p in products_in(mask, spec.feature_model, spec.space)}


def test_allowed_products_by_counts():
    spec = models.make_sync()
    both = names_in(spec, spec.allowed_products("join", 1, 1))
    multi = names_in(spec, spec.allowed_products("join", 2, 1))
    none = spec.allowed_products("join", 2, 2)
    assert both == {"{lock}", "{unlock}"}
    assert multi == {"{unlock}"}
    assert none == 0


def test_allowed_products_memo_does_not_keep_the_spec_alive():
    spec = models.make_sync()
    assert spec.table("join") is spec.table("join")
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


# --- the rule tables against the per-product first match ---------------------


def matching_types(spec, product, action):
    """The types of the rules that match (product, action), in rule order."""
    return [
        rule.sync_type
        for rule in spec.rules
        if rule.covers(action) and evaluate(rule.guard, product)
    ]


def reference_missing(spec):
    return tuple(
        (product, action)
        for product in valid_products(spec.feature_model, spec.space)
        for action in sorted(spec.alphabet)
        if not matching_types(spec, product, action)
    )


def reference_overlaps(spec):
    out = []
    for product in valid_products(spec.feature_model, spec.space):
        for action in sorted(spec.alphabet):
            hits = matching_types(spec, product, action)
            for later in hits[1:]:
                if later != hits[0]:
                    out.append((product, action, hits[0], later))
                    break
    return tuple(out)


def reference_where(spec, action, admits):
    """The valid products whose first match for the action passes `admits`."""
    out = []
    for product in valid_products(spec.feature_model, spec.space):
        try:
            sync_type = spec.lookup(product, action)
        except TotalityError:
            continue
        if admits(sync_type):
            out.append(product)
    return tuple(out)


def mask_of(products):
    return sum(1 << product_index(p) for p in products)


def overlapping_spec():
    return FeaturedSyncSpec(
        rules=(
            SyncRule(TRUE, frozenset({"join"}), SyncType(ONE, ONE)),
            SyncRule(Var("lock"), frozenset({"join"}), SyncType(Interval(1, STAR), ONE)),
            SyncRule(Not(Var("lock")), None, SyncType(ONE, ANY)),
        ),
        alphabet=frozenset({"join", "leave"}),
        space=models.SPACE,
        feature_model=models.MODEL,
    )


def non_total_spec():
    full = models.make_sync()
    return FeaturedSyncSpec(full.rules[:2], full.alphabet, full.space, full.feature_model)


def reference_specs():
    yield "overlapping", overlapping_spec()
    yield "non-total", non_total_spec()
    for name in ("access_management", "broadcast_logger", "dual_sign", "relay",
                 "sensor_fusion", "turnstile"):
        text = Path(models.example_path(name)).read_text(encoding="utf-8")
        yield name, elaborate_text(text).sync
    for seed, (_, fspec) in instances(200):
        yield f"seed {seed}", fspec


def test_rule_tables_agree_with_the_per_product_first_match():
    missing = overlaps = 0
    for name, spec in reference_specs():
        assert spec.validate_total() == reference_missing(spec), name
        assert spec.find_overlaps() == reference_overlaps(spec), name
        missing += len(spec.validate_total())
        overlaps += len(spec.find_overlaps())
        for action in sorted(spec.alphabet):
            for n_senders in range(4):
                for n_receivers in range(4):
                    got = spec.allowed_products(action, n_senders, n_receivers)
                    want = reference_where(
                        spec, action,
                        lambda st: st.senders.contains(n_senders)
                        and st.receivers.contains(n_receivers),
                    )
                    assert got == mask_of(want), name
            for size in range(1, 4):
                group = frozenset(f"c{i}" for i in range(size))
                got = products_for_group(spec, group, action)
                want = reference_where(
                    spec, action,
                    lambda st: st.senders.contains(size) and not st.receivers.contains(0),
                )
                assert got == mask_of(want), name
    # Both lists must have had something to compare.
    assert missing and overlaps
