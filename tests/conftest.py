import pytest

import models
from feta import build_featured_team, prune_for_display
from instancegen import (
    WARM_UP_SEED,
    ZERO_SENDER_SEED,
    run_battery,
    warm_up_instance,
    zero_sender_instance,
)

RANDOM_INSTANCES = 200
WARM_UP_INSTANCES = 30
ZERO_SENDER_INSTANCES = 30


@pytest.fixture(scope="session")
def access():
    return models.make_all()


@pytest.fixture(scope="session")
def team(access):
    fsys, fspec = access
    return build_featured_team(fsys, fspec)


@pytest.fixture(scope="session")
def pruned(team):
    return prune_for_display(team)


@pytest.fixture(scope="session")
def battery():
    return run_battery(RANDOM_INSTANCES)


@pytest.fixture(scope="session")
def warm_up_battery():
    return run_battery(WARM_UP_INSTANCES, WARM_UP_SEED, generate=warm_up_instance)


@pytest.fixture(scope="session")
def zero_sender_battery():
    return run_battery(ZERO_SENDER_INSTANCES, ZERO_SENDER_SEED, generate=zero_sender_instance)
