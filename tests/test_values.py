"""Value semantics of the immutable classes: equality, hashing, repr, patterns."""

import os
import pickle
import subprocess
import sys

import pytest

from feta import (
    STAR,
    TRUE,
    And,
    Budget,
    Diagnostic,
    FamilyRequirement,
    FeaturedComponent,
    FeaturedSystem,
    FeatureSpace,
    Fts,
    Iff,
    Implies,
    Interval,
    Not,
    Or,
    Product,
    Requirement,
    SyncRule,
    SyncType,
    SystemLabel,
    Var,
    Xor,
)
from feta.dsl import ComponentDecl, SyncRuleDecl, SystemDecl, Token, TransitionDecl
from feta.features import Const
from feta.values import Value

A, B = Var("a"), Var("b")
SPACE = FeatureSpace(("a", "b"))
ONE = Interval(1, 1)
FIRST, LATER = (1, 1), (7, 3)
U, S = frozenset({"u"}), frozenset({"s"})
DECL = TransitionDecl("0", "1", "go", "!", A)

# (class, fields in declaration order, another value per field to change,
# fields with a default: those the constructor may be called without).
CASES = [
    (Const, {"value": True}, {"value": False}, {}),
    (Var, {"name": "a"}, {"name": "b"}, {}),
    (Not, {"operand": A}, {"operand": B}, {}),
    (And, {"operands": (A, B)}, {"operands": (B, A)}, {}),
    (Or, {"operands": (A, B)}, {"operands": (A,)}, {}),
    (Implies, {"antecedent": A, "consequent": B}, {"antecedent": B, "consequent": A}, {}),
    (Iff, {"left": A, "right": B}, {"left": B, "right": A}, {}),
    (Xor, {"left": A, "right": B}, {"left": B, "right": A}, {}),
    (FeatureSpace, {"names": ("a", "b")}, {"names": ("b", "a")}, {}),
    (Product, {"selected": frozenset({"a"}), "space": SPACE}, {"selected": frozenset()}, {}),
    (Interval, {"lo": 1, "hi": STAR}, {"lo": 0, "hi": 2}, {}),
    (
        SystemLabel,
        {"senders": U, "action": "go", "receivers": S},
        {"senders": frozenset(), "action": "stop", "receivers": frozenset()},
        {},
    ),
    (
        TransitionDecl,
        {"source": "0", "target": "1", "action": "go", "suffix": "!", "guard": A, "loc": LATER},
        {"source": "1", "target": "0", "action": "stop", "suffix": None, "guard": None,
         "loc": FIRST},
        {"loc": FIRST},
    ),
    (
        ComponentDecl,
        {"name": "C", "inputs": (), "outputs": ("go",), "states": None, "init": ("0",),
         "transitions": (DECL,), "loc": LATER},
        {"name": "D", "inputs": ("go",), "states": ("0", "1"), "init": ("1",),
         "transitions": (), "loc": FIRST},
        {"loc": FIRST},
    ),
    (
        SystemDecl,
        {"name": "S", "bindings": (("c", "C"),), "loc": LATER},
        {"name": "T", "bindings": (), "loc": FIRST},
        {"loc": FIRST},
    ),
    (
        SyncRuleDecl,
        {"actions": ("go",), "send_lo": 1, "send_hi": 1, "recv_lo": 1, "recv_hi": None,
         "guard": A, "loc": LATER},
        {"actions": None, "send_lo": 0, "send_hi": None, "recv_lo": 0, "recv_hi": 2,
         "guard": None, "loc": FIRST},
        {"loc": FIRST},
    ),
    # Named tuples: the plain records.
    (
        Budget,
        {"states": 10**6, "participants": 20, "products": 1 << 16},
        {"states": 5, "participants": 2, "products": 4},
        {"states": 10**6, "participants": 20, "products": 1 << 16},
    ),
    (
        Requirement,
        {"state": ("0",), "senders": U, "action": "go"},
        {"state": ("1",), "senders": S, "action": "stop"},
        {},
    ),
    (
        FamilyRequirement,
        {"state": ("0",), "senders": U, "action": "go", "mask": 0b1010, "enabling": A,
         "sync_condition": TRUE, "reach_condition": TRUE},
        {"state": ("1",), "senders": S, "action": "stop", "mask": 0b1111, "enabling": B,
         "sync_condition": A, "reach_condition": A},
        {},
    ),
    (SyncType, {"senders": ONE, "receivers": ONE}, {"receivers": Interval(0, STAR)}, {}),
    (
        SyncRule,
        {"guard": A, "actions": None, "sync_type": SyncType(ONE, ONE)},
        {"guard": B, "actions": frozenset({"go"})},
        {},
    ),
    (
        Diagnostic,
        {"severity": "error", "line": 1, "col": 2, "message": "m", "code": "c"},
        {"line": 3, "code": "d"},
        {},
    ),
    (Token, {"kind": "ident", "text": "go", "line": 1, "col": 2}, {"kind": "sym"}, {}),
]
# Positional fields that `==` and `hash` leave out.
UNCOMPARED = {"loc"}


def _node_parts(node):
    match node:
        case Const(part) | Var(part) | Not(part) | And(part) | Or(part):
            return (part,)
        case Implies(left, right) | Iff(left, right) | Xor(left, right):
            return (left, right)
    return None


@pytest.mark.parametrize(
    "cls, fields, changes, defaults", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_values_compare_hash_and_show_their_fields(cls, fields, changes, defaults):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    shown = ", ".join(f"{name}={field!r}" for name, field in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"
    assert cls.__match_args__ == tuple(fields)
    assert all(getattr(value, name) is field for name, field in fields.items())

    for name, other in changes.items():
        changed = cls(**{**fields, name: other})
        if name in UNCOMPARED:
            assert changed == value and not changed != value
            assert hash(changed) == hash(value)
        else:
            assert changed != value and not changed == value

    # A class with the same field names is still another class.
    for other_cls, other_fields, _, _ in CASES:
        if other_cls is not cls and tuple(other_fields) == tuple(fields):
            assert other_cls(**fields) != value

    short = cls(**{name: field for name, field in fields.items() if name not in defaults})
    assert all(getattr(short, name) == field for name, field in defaults.items())

    with pytest.raises(AttributeError):
        setattr(value, next(iter(fields)), None)

    parts = _node_parts(value)
    assert parts is None or parts == tuple(fields.values())


def test_values_unpickled_in_another_process_hash_there():
    """A value pickles through its constructor and keeps no hash across: in
    a process with another string hash seed, each value and each record,
    hashed before pickling, is found in a set holding a fresh equal one. A
    record's fields, such as a requirement's factors, are values too."""
    values = [cls(**fields) for cls, fields, _, _ in CASES]
    assert len(values) == 23
    assert sum(isinstance(value, Value) for value in values) == 16
    for value in values:
        hash(value)
    code = (
        "import pickle, sys\n"
        "from test_values import CASES\n"
        "fresh = [cls(**fields) for cls, fields, _, _ in CASES]\n"
        "values = pickle.load(sys.stdin.buffer)\n"
        "print(all(value in {twin} for value, twin in zip(values, fresh, strict=True)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for seed in ("2", "3"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, "-c", code], input=pickle.dumps(values), env=env,
            capture_output=True, check=True,
        )
        assert out.stdout == b"True\n"


def test_containers_keep_their_constructors():
    """The mutable automata and systems take their fields by position or by name."""
    step = ("0", "go", "1")
    parts = (("0", "1"), {"0"}, {"go"}, (step,), SPACE, TRUE, {step: A})
    assert Fts(*parts).guards == Fts(**dict(zip(Fts.__match_args__, parts))).guards == {step: A}
    assert Fts.__match_args__ == (
        "states", "initial", "actions", "transitions", "space", "feature_model", "guards",
    )
    comp = FeaturedComponent(*parts, (), {"go"})
    assert (comp.inputs, comp.outputs) == (frozenset(), frozenset({"go"}))
    assert FeaturedComponent.__match_args__ == Fts.__match_args__ + ("inputs", "outputs")
    fsys = FeaturedSystem(names=["c"], components={"c": comp}, space=SPACE, feature_model=TRUE)
    assert fsys.names == ("c",)
    assert FeaturedSystem.__match_args__ == ("names", "components", "space", "feature_model")
