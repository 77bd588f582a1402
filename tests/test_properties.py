"""Randomised cross-checks of the product-projection laws.

The battery runs every law over a fixed population of seeded random
systems, and compares the mask stored for every team guard and requirement
condition with direct evaluation on every product. A failure here names the
seed that broke the law, so the case can be replayed with
`instancegen.random_instance(seed)`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import instancegen
from conftest import RANDOM_INSTANCES
from feta import FeaturedSyncSpec, valid_products


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


# Planted family-route faults run on the first instances of the population.
FAULT_INSTANCES = 30


@pytest.mark.parametrize("fault", list(instancegen.FAMILY_FAULTS))
def test_battery_catches_a_planted_family_fault(fault):
    """Caught on one of the first instances. The run stops at the first
    instance that trips a check, except where the test asserts which checks
    trip on all of them."""
    exclusive = fault == "first_product_in returns the last product"
    results = instancegen.run_with_fault(fault, FAULT_INSTANCES, until_caught=not exclusive)
    assert results.planted_faults[fault] > 0, f"the battery missed: {fault}"
    if exclusive:
        assert results.instances == FAULT_INSTANCES
        assert results.tripped() == ["culprit_failures"]
    if fault.startswith("_label_classes"):
        # The teams read off the classes lack what the state-by-state walks
        # make: the reachable team's and the plain reference's.
        assert {"reachable_team_failures", "plain_team_failures"} <= set(results.tripped())


def test_family_weak_verdict_matches_every_product(battery):
    assert battery.family_weak_failures == []


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
