"""Parsing, elaboration diagnostics and the canonical formatter."""

import ast
import random
from importlib import resources
from pathlib import Path

import pytest

import models
from feta import (
    TRUE,
    And,
    FetaError,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    Xor,
    elaborate_text,
    format_document,
    format_expr,
    parse,
    parse_expr,
)
from feta import dsl
from feta.dsl import (
    _MULTI_SYMBOLS, _SINGLE_SYMBOLS, ComponentDecl, SystemDecl, Token, _lex, _SyntaxError,
    elaborate, has_errors,
)

EXAMPLES = (
    "access_management",
    "broadcast_logger",
    "dual_sign",
    "relay",
    "sensor_fusion",
    "turnstile",
)


def read_example(name: str = "access_management") -> str:
    with open(models.example_path(name), encoding="utf-8") as handle:
        return handle.read()


def codes(diagnostics):
    return [d.code for d in diagnostics]


MINIMAL = """
features f;
feature_model true;

component C {
  output go;
  init 0;
  0 -> 0 by go!;
}

component D {
  input go;
  init 0;
  0 -> 0 by go?;
}

system S = { c: C, d: D };

sync {
  default [1,1] -> [0,*];
}
"""


# --- parsing ----------------------------------------------------------------


def test_parse_bundled_example_structure():
    result = parse(read_example())
    assert not result.diagnostics
    doc = result.document
    assert doc.features == ("lock", "unlock")
    assert doc.model == Xor(Var("lock"), Var("unlock"))
    assert [c.name for c in doc.components] == ["User", "Server"]
    assert doc.system.bindings == (("u1", "User"), ("u2", "User"), ("s", "Server"))
    assert len(doc.sync) == 3
    assert doc.sync[1].actions == ("join", "leave")
    assert doc.sync[1].send_hi == 1 and doc.sync[2].send_hi is None


def test_elaborated_example_matches_the_programmatic_model():
    result = elaborate_text(read_example())
    assert result.ok and not result.diagnostics
    fsys, fspec = models.make_all()
    built = result.system
    assert built.names == fsys.names
    assert built.space == fsys.space
    assert built.feature_model == fsys.feature_model
    for name in fsys.names:
        ours, theirs = fsys.components[name], built.components[name]
        assert set(theirs.states) == set(ours.states)
        assert theirs.initial == ours.initial
        assert theirs.inputs == ours.inputs
        assert theirs.outputs == ours.outputs
        assert set(theirs.transitions) == set(ours.transitions)
        assert {t: theirs.guards[t] for t in theirs.transitions} == {
            t: ours.guards[t] for t in ours.transitions
        }
    assert result.sync.rules == fspec.rules


def test_guard_defaults_to_true_and_suffix_is_optional():
    result = elaborate_text(MINIMAL)
    assert result.ok and not result.diagnostics
    component = result.system.components["c"]
    assert component.guards[("0", "go", "0")] == TRUE
    assert result.sync.rules[0].guard == TRUE


def test_numeric_and_named_states_mix():
    result = elaborate_text(MINIMAL.replace("0 -> 0 by go!;", "0 -> done by go!;\n  done -> 0 by go!;"))
    assert result.ok
    assert set(result.system.components["c"].states) == {"0", "done"}


def test_expression_precedence_and_associativity():
    assert parse_expr("a && b || c") == Var("a") & Var("b") | Var("c")
    assert parse_expr("!a && b") == And((~Var("a"), Var("b")))
    assert parse_expr("a -> b -> c") == parse_expr("a -> (b -> c)")
    assert parse_expr("a xor b && c") == Xor(Var("a"), Var("b") & Var("c"))
    a, b, c = Var("a"), Var("b"), Var("c")
    cases = [
        # each connective's associativity, and the other grouping
        ("a <-> b <-> c", Iff(Iff(a, b), c)),
        ("a <-> (b <-> c)", Iff(a, Iff(b, c))),
        ("a xor b xor c", Xor(Xor(a, b), c)),
        ("a xor (b xor c)", Xor(a, Xor(b, c))),
        ("a -> b -> c", Implies(a, Implies(b, c))),
        ("(a -> b) -> c", Implies(Implies(a, b), c)),
        # each adjacent pair of binding strengths, the tighter on either side
        ("a <-> b -> c", Iff(a, Implies(b, c))),
        ("a -> b <-> c", Iff(Implies(a, b), c)),
        ("a -> b || c", Implies(a, Or((b, c)))),
        ("a || b -> c", Implies(Or((a, b)), c)),
        ("a || b xor c", Or((a, Xor(b, c)))),
        ("a xor b || c", Or((Xor(a, b), c))),
        ("a xor b && c", Xor(a, And((b, c)))),
        ("a && b xor c", Xor(And((a, b)), c)),
        ("a && !b", And((a, Not(b)))),
        ("!a && b", And((Not(a), b))),
        ("!(a && b)", Not(And((a, b)))),
    ]
    for text, tree in cases:
        assert parse_expr(text) == tree, text
        assert format_expr(tree) == text, text


def test_syntax_error_reports_position():
    result = parse("features f;\nfeature_model f;\ncomponent {")
    assert result.document is None
    (diag,) = result.diagnostics
    assert diag.code == "syntax"
    assert (diag.line, diag.col) == (3, 11)
    assert "component name" in diag.message


@pytest.mark.parametrize("text, position", [("(", (1, 2)), ("a b", (1, 3))])
def test_parse_expr_raises_a_package_error_with_its_position(text, position):
    with pytest.raises(FetaError) as caught:
        parse_expr(text)
    assert (caught.value.line, caught.value.col) == position


# --- elaboration diagnostics ------------------------------------------------


def test_empty_input_reports_all_missing_sections():
    result = elaborate_text("")
    assert result.system is None and result.sync is None
    assert codes(result.diagnostics) == [
        "missing-feature-model",
        "missing-system",
        "missing-sync",
    ]
    first = result.diagnostics[0]
    assert (first.line, first.col) == (1, 1)
    assert str(first) == "1:1: error: missing feature model [missing-feature-model]"


def test_duplicate_state_is_fatal():
    text = MINIMAL.replace("init 0;", "states 0, 0;\n  init 0;")
    result = elaborate_text(text)
    assert result.system is None
    assert "duplicate-state" in codes(result.diagnostics)
    assert any("declared twice" in d.message for d in result.diagnostics)


def test_suffix_mismatch_is_fatal():
    text = MINIMAL.replace("0 -> 0 by go!;", "0 -> 0 by go?;")
    result = elaborate_text(text)
    assert result.system is None
    (diag,) = result.diagnostics
    assert diag.code == "suffix-mismatch"
    assert "'go' is an output of 'C'" in diag.message


def test_unknown_names_are_reported():
    unknown_action = MINIMAL.replace("by go!;", "by stop;")
    assert "unknown-action" in codes(elaborate_text(unknown_action).diagnostics)
    unknown_feature = MINIMAL.replace("by go!;", "by go! when g;")
    assert "unknown-feature" in codes(elaborate_text(unknown_feature).diagnostics)
    undeclared_state = MINIMAL.replace("init 0;", "states 0;\n  init 0;").replace(
        "0 -> 0 by go!;", "0 -> 9 by go!;"
    )
    assert "unknown-state" in codes(elaborate_text(undeclared_state).diagnostics)
    unknown_component = MINIMAL.replace("d: D", "d: E")
    assert "unknown-component" in codes(elaborate_text(unknown_component).diagnostics)


def test_missing_init_is_fatal():
    result = elaborate_text(MINIMAL.replace("  init 0;\n", ""))
    assert result.system is None
    assert "missing-init" in codes(result.diagnostics)


def test_sync_rules_must_cover_every_product_and_action():
    text = MINIMAL.replace("default [1,1] -> [0,*];", "go: [1,1] -> [0,*] when f;")
    result = elaborate_text(text)
    assert result.sync is None
    (diag,) = [d for d in result.diagnostics if d.code == "not-total"]
    assert "({}, go)" in diag.message


def test_empty_interval_is_rejected():
    text = MINIMAL.replace("[1,1] -> [0,*]", "[2,1] -> [0,*]")
    result = elaborate_text(text)
    assert result.sync is None
    assert "empty-interval" in codes(result.diagnostics)


def test_unsatisfiable_feature_model_warns_but_elaborates():
    text = MINIMAL.replace("feature_model true;", "feature_model f && !f;")
    result = elaborate_text(text)
    assert result.ok
    assert not has_errors(result.diagnostics)
    assert codes(result.diagnostics) == ["empty-family"]


def test_open_system_warns_on_unservable_sends():
    text = """
features f;
feature_model true;

component C {
  output go;
  init 0;
  0 -> 0 by go!;
}

system S = { c: C };

sync {
  default [1,1] -> [1,1];
}
"""
    result = elaborate_text(text)
    assert result.ok
    assert codes(result.diagnostics) == ["open-system"]
    assert result.diagnostics[0].severity == "warning"


def variant(old: str, new: str) -> str:
    """MINIMAL with the first occurrence of `old` replaced."""
    assert old in MINIMAL
    return MINIMAL.replace(old, new, 1)


SYSTEM = "system S = { c: C, d: D };"
SYNC = "sync {\n  default [1,1] -> [0,*];\n}\n"
MORE_FEATURES = "features f, " + ", ".join(f"g{i}" for i in range(16)) + ";"

# One text per diagnostic it reaches: the case's name, the text, and the
# code and a piece of the message of the diagnostic it must give.
DIAGNOSTIC_TEXTS = [
    ("syntax", "features f;\ncomponent {", "syntax", "expected a component name"),
    ("keyword as a name", variant("features f;", "features f, init;"), "syntax",
     "'init' is a keyword, not a feature name"),
    ("unterminated component body", MINIMAL[: MINIMAL.index("component D")] + "component D {",
     "syntax", "unterminated component body"),
    ("unterminated sync block", MINIMAL.rstrip().removesuffix("}"), "syntax",
     "unterminated sync block"),
    ("duplicate feature", variant("features f;", "features f, f;"), "duplicate-feature",
     "feature 'f' declared twice"),
    ("duplicate feature model",
     variant("feature_model true;", "feature_model true;\nfeature_model f;"),
     "duplicate-section", "feature model declared twice"),
    ("duplicate system", variant(SYSTEM, SYSTEM + "\n" + SYSTEM), "duplicate-section",
     "system declared twice"),
    ("duplicate sync block", MINIMAL + SYNC, "duplicate-section", "sync block declared twice"),
    ("missing feature model", variant("feature_model true;", ""), "missing-feature-model",
     "missing feature model"),
    ("missing system", variant(SYSTEM, ""), "missing-system", "missing system declaration"),
    ("missing sync block", MINIMAL[: MINIMAL.index("sync {")], "missing-sync",
     "missing sync block"),
    ("duplicate state", variant("init 0;", "states 0, 0;\n  init 0;"), "duplicate-state",
     "state '0' declared twice"),
    ("duplicate initial state", variant("init 0;", "init 0, 0;"), "duplicate-state",
     "initial state '0' listed twice"),
    ("duplicate action", variant("output go;", "output go, go;"), "duplicate-action",
     "action 'go' declared twice"),
    ("input and output action", variant("output go;", "input go;\n  output go;"),
     "duplicate-action", "action 'go' declared twice"),
    ("unknown feature in the model", variant("feature_model true;", "feature_model g;"),
     "unknown-feature", "feature model references undeclared features ['g']"),
    ("unknown feature in a guard", variant("by go!;", "by go! when g;"), "unknown-feature",
     "guard references undeclared features ['g']"),
    ("unknown feature in a sync guard", variant("[0,*];", "[0,*] when g;"), "unknown-feature",
     "guard references undeclared features ['g']"),
    ("duplicate component", variant("system S", "component C {\n  init 0;\n}\n\nsystem S"),
     "duplicate-name", "component 'C' declared twice"),
    ("duplicate instance", variant(SYSTEM, "system S = { c: C, c: D };"), "duplicate-name",
     "instance name 'c' used twice"),
    ("unknown state",
     variant("init 0;", "states 0;\n  init 0;").replace("0 -> 0 by go!", "0 -> 9 by go!"),
     "unknown-state", "states ['9'] not in the states list"),
    ("missing init", variant("  init 0;\n", ""), "missing-init", "component 'C' has no init"),
    ("unknown action", variant("by go!;", "by stop;"), "unknown-action",
     "action 'stop' is not declared"),
    ("unknown action in a sync rule", variant("default", "stop:"), "unknown-action",
     "sync rule names unknown actions ['stop']"),
    ("suffix mismatch", variant("by go!;", "by go?;"), "suffix-mismatch",
     "action 'go' is an output of 'C' but written with '?'"),
    ("duplicate transition", variant("0 -> 0 by go!;", "0 -> 0 by go!;\n  0 -> 0 by go;"),
     "duplicate-transition", "transition 0 -> 0 by go declared twice"),
    ("unknown component", variant("d: D", "d: E"), "unknown-component", "unknown component 'E'"),
    ("empty interval", variant("[1,1]", "[2,1]"), "empty-interval", "empty interval [2,1]"),
    ("not total", variant("default [1,1] -> [0,*];", "go: [1,1] -> [0,*] when f;"), "not-total",
     "sync rules do not cover every product and action: ({}, go)"),
    ("too many features", variant("features f;", MORE_FEATURES), "resource",
     "products of the 17-feature space: 131072, above the bound 65536"),
    ("too many features, no actions", "\n".join([
        MORE_FEATURES, "feature_model true;", "component C {\n  init 0;\n}",
        "system S = { c: C };", "sync {\n}",
     ]), "resource", "products of the 17-feature space: 131072, above the bound 65536"),
    ("no products", variant("feature_model true;", "feature_model false;"), "empty-family",
     "the feature model admits no products"),
    ("no component inputs", variant(SYSTEM, "system S = { c: C };"), "open-system",
     "no component inputs go"),
    ("no component outputs", variant(SYSTEM, "system S = { d: D };"), "open-system",
     "no component outputs go"),
]

# Diagnostics that `elaborate` makes but no text reaches there (the parser
# reports a duplicate feature and a missing section first), elaborated from
# a document built by hand: the case's name, what replaces MINIMAL's fields,
# the code and the message.
DIAGNOSTIC_DOCUMENTS = [
    ("duplicate feature", {"features": ("f", "f")}, "duplicate-feature",
     "duplicate feature names in ('f', 'f')"),
    ("missing feature model", {"model": None}, "missing-feature-model", "missing feature model"),
    ("missing system", {"system": None}, "missing-system", "missing system declaration"),
    ("missing sync block", {"sync": None}, "missing-sync", "missing sync block"),
    ("input and output action",
     {"components": (ComponentDecl("C", ("go",), ("go",), None, ("0",), ()),)},
     "invalid-component", "actions ['go'] declared both input and output"),
    ("no instance", {"system": SystemDecl("S", ())}, "invalid-system",
     "a system needs at least one component"),
]


@pytest.mark.parametrize(
    "text, code, message", [case[1:] for case in DIAGNOSTIC_TEXTS],
    ids=[case[0] for case in DIAGNOSTIC_TEXTS],
)
def test_each_diagnostic_a_text_can_reach(text, code, message):
    diagnostics = elaborate_text(text).diagnostics
    assert any(d.code == code and message in d.message for d in diagnostics), diagnostics


@pytest.mark.parametrize(
    "fields, code, message", [case[1:] for case in DIAGNOSTIC_DOCUMENTS],
    ids=[case[0] for case in DIAGNOSTIC_DOCUMENTS],
)
def test_each_diagnostic_only_a_document_can_reach(fields, code, message):
    result = elaborate(parse(MINIMAL).document._replace(**fields))
    assert result.system is None and result.sync is None
    assert (code, message) in [(d.code, d.message) for d in result.diagnostics]


def test_every_diagnostic_code_has_a_case():
    """The codes are the last argument of every `Diagnostic(...)`,
    `error(...)` and `warning(...)` call in `dsl.py`."""
    tree = ast.parse(Path(dsl.__file__).read_text(encoding="utf-8"))
    makers = ("Diagnostic", "error", "warning")
    made = {
        node.args[-1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and node.args
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in makers
        and isinstance(node.args[-1], ast.Constant)
    }
    cased = {case[2] for case in DIAGNOSTIC_TEXTS + DIAGNOSTIC_DOCUMENTS}
    assert made == cased


# --- formatting -------------------------------------------------------------


@pytest.mark.parametrize("name", EXAMPLES)
def test_format_is_a_fixpoint_for_every_bundled_example(name):
    parsed = parse(read_example(name))
    assert parsed.document is not None
    rendered = format_document(parsed.document)
    reparsed = parse(rendered)
    assert reparsed.document == parsed.document
    assert format_document(reparsed.document) == rendered


def test_format_keeps_defaults_implicit():
    rendered = format_document(parse(MINIMAL).document)
    assert "when true" not in rendered
    assert "default [1,1] -> [0,*];" in rendered


def reference_lex(text: str) -> list[Token]:
    """`_lex` as first written: every multi-character symbol tried at every
    position, and identifiers scanned character by character."""
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = next((s for s in _MULTI_SYMBOLS if text.startswith(s, i)), None)
        if matched:
            tokens.append(Token("sym", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch in _SINGLE_SYMBOLS:
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("number", text[start:i], line, col))
            col += i - start
            continue
        raise _SyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _lexed(lex, text: str):
    """The tokens, or the syntax error's message and position."""
    try:
        return lex(text)
    except _SyntaxError as error:
        return ("error", error.message, error.line, error.col)


# Letters, digits and symbols of the grammar, the characters that start a
# multi-character symbol alone, and non-ASCII letters and digits: `é` is a
# letter; `²` and `٣` are digits, `Ⅻ` a numeral, all three `isalnum()`.
_LEX_ALPHABET = "ab_Z09 \t\r\n#<->&|{}()[],;:=*!?.@é²٣Ⅻ"


def test_lexer_equals_the_character_by_character_lexer():
    """Tokens, or the error with its position, equal `reference_lex`'s on
    every committed input and on seeded random strings."""
    examples = resources.files("feta") / "examples"
    texts = [examples.joinpath(f"{name}.feta").read_text(encoding="utf-8") for name in EXAMPLES]
    texts += [
        path.read_text(encoding="utf-8")
        for path in sorted((Path(__file__).parent / "inputs").glob("*.feta"))
    ]
    rng = random.Random(2024)
    texts += [
        "".join(rng.choices(_LEX_ALPHABET, k=rng.randrange(40))) for _ in range(20_000)
    ]
    for text in texts:
        assert _lexed(_lex, text) == _lexed(reference_lex, text), text
