"""Randomised cross-checks of the product-projection laws.

The battery runs every law over a fixed population of seeded random
systems, and compares the mask stored for every team guard and requirement
condition with direct evaluation on every product. A failure here names the
seed that broke the law, so the case can be replayed with
`instancegen.random_instance(seed)`.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instancegen
import models
from conftest import RANDOM_INSTANCES, WARM_UP_INSTANCES, ZERO_SENDER_INSTANCES
from feta import FeaturedSyncSpec, cli, valid_products


def test_battery_covered_the_whole_population(battery):
    assert battery.instances == RANDOM_INSTANCES
    assert battery.requirements > 0
    assert battery.queries > 0


def test_projection_commutes_with_team_construction(battery):
    assert battery.projection_failures == []


def test_label_classes_rebuild_the_full_team_and_compare_as_sets_do(battery):
    """The class-level featured side expands to the full team, and its
    commutation check gives the plain set comparison's result, also on
    four planted faults, each of which it catches; the fifth kind is
    planted in its projection (below)."""
    assert battery.label_class_failures == []
    assert battery.label_class_checks > 0
    assert sorted(battery.planted_faults) == [
        "dropped transition", "kept drops last class", "lost class", "moved idle component",
        "stray state",
    ]
    assert min(battery.planted_faults.values()) > 0


def test_label_classes_project_as_the_full_team_does(battery):
    """Each valid product's projection read off the label classes equals
    the full team's, and a `kept` that drops its last class is caught."""
    assert battery.class_projection_failures == []
    assert battery.class_projection_checks > 0
    assert battery.planted_faults["kept drops last class"] > 0


def test_display_team_is_the_masked_reachable_part_of_the_full_team(battery):
    """`prune_for_display`, a walk from the initial states over the masks,
    gives what filtering by mask and then `Lts.reachable` gave, on the
    builder's full team and on a caller's copy of it."""
    assert battery.display_failures == []
    assert battery.display_checks > 0


def test_built_team_label_classes_are_their_guard_objects(battery):
    assert battery.guard_class_failures == []
    assert battery.guard_class_checks > 0


def test_requirements_project_onto_product_requirements(battery):
    assert battery.requirement_projection_failures == []


def test_family_compliance_unfolds_product_by_product(battery):
    assert battery.unfolding_failures == []


def test_family_strict_verdict_matches_every_product(battery):
    assert battery.family_strict_failures == []


def test_family_strict_culprit_is_the_first_failing_product(battery):
    """A strict violation names the first valid product that satisfies the
    condition and whose own team violates the requirement; the population
    holds violations with several such products, where only order tells."""
    assert battery.culprit_failures == []
    assert battery.culprit_choices > 0


def test_warm_up_slice_holds_featured_weak_entries_and_passes_every_check(warm_up_battery):
    """Only 4 of the population's instances hold a featured-weakly-compliant
    entry; most sends of the warm-up slice need a group-free warm-up, and
    every check of the battery holds on it."""
    assert warm_up_battery.instances == WARM_UP_INSTANCES
    assert warm_up_battery.featured_weak_entries > 0
    assert warm_up_battery.strict_reading_checks > 0
    assert warm_up_battery.weak_checks > 0
    assert warm_up_battery.tripped() == []


def test_weak_search_agrees_with_its_definition(battery, warm_up_battery):
    """Every product requirement's weak verdict (`check_weak_compliance`)
    equals the reference read off the definition, on the population and on
    the warm-up slice, where most sends need a warm-up."""
    for results in (battery, warm_up_battery):
        assert results.weak_reference_failures == []
        assert results.weak_reference_checks > 0


def test_zero_sender_slice_passes_every_check(zero_sender_battery):
    """Types that admit zero senders, which the population never draws,
    keep every check of the battery."""
    assert zero_sender_battery.instances == ZERO_SENDER_INSTANCES
    assert zero_sender_battery.requirements > 0
    assert zero_sender_battery.tripped() == []


# Planted family-route faults run on the first instances of the population,
# or of the slice that holds what the fault is in: the warm-up slice for
# how a report reads featured-weakly-compliant entries and for the weak
# search, the zero-sender slice for the group sizes.
FAULT_INSTANCES = 30
FAULT_SLICES = {
    "the strict reading accepts featured-weakly-compliant entries":
        (instancegen.WARM_UP_SEED, instancegen.warm_up_instance),
    "search_weak_compliance skips every warm-up":
        (instancegen.WARM_UP_SEED, instancegen.warm_up_instance),
    "derive_family_requirements draws groups of no sender":
        (instancegen.ZERO_SENDER_SEED, instancegen.zero_sender_instance),
}
# The checks a fault must trip; one of `EXACT_TRIPS` trips no other.
_CONJUNCTS_TRIP = {"projection_failures", "label_class_failures", "class_projection_failures"}
FAULT_TRIPS = {
    "first_product_in returns the last product": {"culprit_failures"},
    # The teams read off the classes lack what the state-by-state walks
    # make: the reachable team's and the plain reference's.
    "_label_classes drops its first class": {"reachable_team_failures", "plain_team_failures"},
    "_label_classes drops its last class": {"reachable_team_failures", "plain_team_failures"},
    "the strict reading accepts featured-weakly-compliant entries": {"strict_reading_failures"},
    # The product keeps classes its own team lacks.
    "FeaturedClasses.kept ignores the sync conjunct": _CONJUNCTS_TRIP,
    "build_featured_classes drops the last participant's local guard": _CONJUNCTS_TRIP,
    # The full team's guards lose a conjunct that the reference keeps.
    "_TeamGuards.conjuncts drops the last participant's local guard": {"built_team_failures"},
    # The library's weak verdicts, family and product alike, lose every
    # warm-up; only the reference keeps them.
    "search_weak_compliance skips every warm-up": {"weak_reference_failures"},
    # Groups of no sender are owed a reception on the family route only.
    "derive_family_requirements draws groups of no sender": {
        "requirement_projection_failures", "family_strict_failures", "culprit_failures",
        "family_weak_failures",
    },
}
EXACT_TRIPS = {
    "first_product_in returns the last product",
    "the strict reading accepts featured-weakly-compliant entries",
    "search_weak_compliance skips every warm-up",
}


@pytest.mark.parametrize("fault", list(instancegen.FAMILY_FAULTS))
def test_battery_catches_a_planted_family_fault(fault):
    """Caught on one of the first instances. The run stops at the first
    instance that trips a check, except where the test asserts which checks
    trip on all of them."""
    first_seed, generate = FAULT_SLICES.get(fault, (1000, instancegen.random_instance))
    exclusive = fault == "first_product_in returns the last product"
    results = instancegen.run_with_fault(
        fault, FAULT_INSTANCES, first_seed, not exclusive, generate
    )
    assert results.planted_faults[fault] > 0, f"the battery missed: {fault}"
    if exclusive:
        assert results.instances == FAULT_INSTANCES
    tripped, expected = set(results.tripped()), FAULT_TRIPS.get(fault, set())
    assert tripped == expected if fault in EXACT_TRIPS else expected <= tripped


INPUTS = Path(__file__).parent / "inputs"
VERIFIED = {name: models.example_path(name) for name in models.EXAMPLES} | {
    name: str(INPUTS / f"{name}.feta")
    for name in ("acc4", "free4", "product_family_v08", "zero_senders")
}
_EVERY_BUT = set(VERIFIED) - {"broadcast_logger"}

# The inputs on which `verify` fails under each planted fault; without one,
# each passes (its `verify` golden; zero_senders's output is pinned by
# `test_family.py::test_a_type_admitting_zero_senders_adds_no_empty_group`).
# `verify` prints neither culprit products nor the display team, so the two
# faults confined to them are out of its scope.
# Dropping a label class also drops it from each product's own team, whose
# `build_team` lists only the classes its type keeps; the fault cancels out
# only where that class is absent from every product's team too.
# `verify` misses a weak search that skips every warm-up on every input:
# its family and per-product verdicts both come from that search. Only
# zero_senders has a type that admits zero senders, so only it can show
# groups of no sender.
VERIFY_CATCHES = {
    "condition drops its reach factor":
        {"access_management", "relay", "turnstile", "acc4", "free4", "product_family_v08"},
    "_candidates drops its last candidate":
        {"dual_sign", "sensor_fusion", "turnstile", "zero_senders"},
    "check_family_compliance ignores its last candidate": _EVERY_BUT,
    "derive_family_requirements skips groups of one": _EVERY_BUT,
    "reach_masks ignores the guard masks":
        {"access_management", "relay", "turnstile", "acc4", "free4", "product_family_v08"},
    "first_product_in returns the last product": set(),
    "the display walk follows zero-mask transitions": set(),
    "_TeamGuards.live drops the last participant's local mask":
        {"access_management", "relay", "acc4", "free4", "product_family_v08"},
    "products_for_group is off by one in the group size": _EVERY_BUT,
    "_projected_parts keeps a transition whose guard fails":
        set(VERIFIED) - {"dual_sign", "zero_senders"},
    "_label_classes drops its first class": set(VERIFIED) - {"zero_senders"},
    "_label_classes drops its last class": set(VERIFIED) - {"product_family_v08"},
    "the strict reading accepts featured-weakly-compliant entries":
        {"access_management", "relay", "acc4", "free4"},
    "FeaturedClasses.kept ignores the sync conjunct": set(VERIFIED),
    "build_featured_classes drops the last participant's local guard":
        set(VERIFIED) - {"dual_sign", "zero_senders"},
    "_TeamGuards.conjuncts drops the last participant's local guard":
        set(VERIFIED) - {"dual_sign", "zero_senders"},
    "search_weak_compliance skips every warm-up": set(),
    "derive_family_requirements draws groups of no sender": {"zero_senders"},
}


@pytest.mark.parametrize("fault", list(instancegen.FAMILY_FAULTS))
def test_verify_catches_a_planted_family_fault_where_pinned(capsys, fault):
    """In-process `verify` on the bundled examples and the committed
    inputs: fifteen of the eighteen faults fail it on at least one input."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        instancegen.FAMILY_FAULTS[fault](monkeypatch)
        failing = {name for name, path in VERIFIED.items() if cli.main(["verify", path]) != 0}
    capsys.readouterr()
    assert failing == VERIFY_CATCHES[fault]


def test_family_weak_verdict_matches_every_product(battery):
    assert battery.family_weak_failures == []


def test_weak_family_report_read_strictly_is_the_strict_report(battery):
    """`verify` reads its one weak family report in strict mode too: read
    so, it must give the strict report's verdict and violated requirements."""
    assert battery.strict_reading_failures == []
    assert battery.strict_reading_checks > 0


def test_team_guards_entail_the_feature_model(battery):
    assert battery.guard_model_failures == []


def test_symbolic_reachability_matches_per_product_search(battery):
    assert battery.reachability_failures == []


def test_strict_compliance_implies_weak_compliance(battery):
    assert battery.monotonicity_failures == []


def test_masks_agree_with_evaluation_on_every_product(battery):
    assert battery.mask_failures == []


def test_builders_keep_what_they_skip_checking(battery):
    """The full, reachable and pruned teams skip `Fts.__init__`'s checks."""
    assert battery.built_team_failures == []
    assert battery.built_team_checks > 0


def test_plain_team_is_the_composition_filtered_by_the_types(battery):
    """Every product's own team (`build_team`) equals its definition."""
    assert battery.plain_team_failures == []
    assert battery.plain_team_checks > 0


def test_reachable_team_is_the_reachable_realisable_part_of_the_full_team(battery):
    assert battery.reachable_team_failures == []
    assert battery.reachable_team_checks > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10_000), shuffle=st.randoms())
def test_rule_order_is_irrelevant_without_overlaps(seed, shuffle):
    fsys, fspec = instancegen.random_instance(seed)
    if fspec.find_overlaps():
        return
    rules = list(fspec.rules)
    shuffle.shuffle(rules)
    reordered = FeaturedSyncSpec(tuple(rules), fspec.alphabet, fspec.space, fspec.feature_model)
    for product in valid_products(fsys.feature_model, fsys.space):
        spec_p = fspec.project(product)
        reordered_p = reordered.project(product)
        for action in sorted(fspec.alphabet):
            assert spec_p.for_action(action) == reordered_p.for_action(action)
