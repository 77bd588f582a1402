"""The access management example built directly against the library API.

Test modules use this construction to pin expected behaviour down
independently of the surface syntax; the DSL tests then check that parsing
the bundled example file yields exactly this model. The expected numbers
and verdicts collected at the bottom were worked out by hand from the
component automata and are asserted all over the suite.
"""

from __future__ import annotations

from importlib import resources

from feta import (
    TRUE,
    FeaturedComponent,
    FeaturedSyncSpec,
    FeaturedSystem,
    FeatureSpace,
    Interval,
    Product,
    SyncRule,
    SyncType,
    SystemLabel,
    SystemTransition,
    Var,
    Xor,
)

SPACE = FeatureSpace.of("lock", "unlock")
MODEL = Xor(Var("lock"), Var("unlock"))
LOCK = Product.of(SPACE, "lock")
UNLOCK = Product.of(SPACE, "unlock")

_LOCK = Var("lock")
_UNLOCK = Var("unlock")


def make_user() -> FeaturedComponent:
    transitions = {
        ("0", "join", "1"): _LOCK,
        ("0", "join", "2"): _UNLOCK,
        ("1", "confirm", "2"): _LOCK,
        ("2", "leave", "0"): TRUE,
    }
    return FeaturedComponent(
        states=("0", "1", "2"),
        initial=frozenset({"0"}),
        actions=frozenset({"join", "leave", "confirm"}),
        transitions=tuple(transitions),
        space=SPACE,
        feature_model=MODEL,
        guards=transitions,
        inputs=frozenset({"confirm"}),
        outputs=frozenset({"join", "leave"}),
    )


def make_server() -> FeaturedComponent:
    transitions = {
        ("0", "join", "1"): _LOCK,
        ("0", "join", "0"): _UNLOCK,
        ("0", "leave", "0"): TRUE,
        ("1", "confirm", "0"): _LOCK,
    }
    return FeaturedComponent(
        states=("0", "1"),
        initial=frozenset({"0"}),
        actions=frozenset({"join", "leave", "confirm"}),
        transitions=tuple(transitions),
        space=SPACE,
        feature_model=MODEL,
        guards=transitions,
        inputs=frozenset({"join", "leave"}),
        outputs=frozenset({"confirm"}),
    )


def make_system() -> FeaturedSystem:
    user = make_user()
    server = make_server()
    return FeaturedSystem(
        names=("u1", "u2", "s"),
        components={"u1": user, "u2": user, "s": server},
        space=SPACE,
        feature_model=MODEL,
    )


def make_sync() -> FeaturedSyncSpec:
    one = Interval(1, 1)
    rules = (
        SyncRule(TRUE, frozenset({"confirm"}), SyncType(one, one)),
        SyncRule(_LOCK, frozenset({"join", "leave"}), SyncType(one, one)),
        SyncRule(_UNLOCK, frozenset({"join", "leave"}), SyncType(Interval(1, None), one)),
    )
    return FeaturedSyncSpec(
        rules=rules,
        alphabet=frozenset({"join", "leave", "confirm"}),
        space=SPACE,
        feature_model=MODEL,
    )


def make_all() -> tuple[FeaturedSystem, FeaturedSyncSpec]:
    return make_system(), make_sync()


EXAMPLES = ("access_management", "broadcast_logger", "dual_sign", "relay", "sensor_fusion", "turnstile")


def example_path(name: str = "access_management") -> str:
    return str(resources.files("feta") / "examples" / f"{name}.feta")


def label(senders, action, receivers) -> SystemLabel:
    return SystemLabel(frozenset(senders), action, frozenset(receivers))


# Expected values for the example, derived by hand from the automata above.

TEAM_STATES = 18
TEAM_TRANSITIONS = 142
CORE_STATES = 8
CORE_TRANSITIONS = 18

# Both users join at once while the server stays put: only the unguarded
# multi-sender rule admits this, so exactly the unlock products allow it.
JOINT_JOIN_LOOP = SystemTransition(
    ("0", "0", "0"),
    label({"u1", "u2"}, "join", {"s"}),
    ("2", "2", "0"),
)
# Both users join at once while the server brokers: the server step needs
# lock but a two-sender join needs unlock, so no product allows it.
JOINT_JOIN_BROKERED = SystemTransition(
    ("0", "0", "0"),
    label({"u1", "u2"}, "join", {"s"}),
    ("1", "1", "1"),
)

UNLOCK_REQUIREMENTS = 10
LOCK_REQUIREMENTS = 16

# (state, senders, action) of every requirement the lock product cannot
# serve immediately. All four are served after the server's confirm step.
LOCK_VIOLATIONS = frozenset(
    {
        (("0", "1", "1"), frozenset({"u1"}), "join"),
        (("1", "0", "1"), frozenset({"u2"}), "join"),
        (("1", "2", "1"), frozenset({"u2"}), "leave"),
        (("2", "1", "1"), frozenset({"u1"}), "leave"),
    }
)

FAMILY_REQUIREMENTS = 18
