"""End-to-end command line behaviour, exit codes and report formats."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import feta.family
import feta.receptiveness
import feta.system
import feta.team
import instancegen
import models
from feta import Budget, cli, elaborate_text, features
from feta.automata import Lts

ACCESS = models.example_path()
RELAY = models.example_path("relay")
INPUTS = Path(__file__).parent / "inputs"
GOLDEN = Path(__file__).parent / "golden"
ACC4 = str(INPUTS / "acc4.feta")
PRODUCT_FAMILY = str(INPUTS / "product_family_v08.feta")

STATE_LINE = re.compile(r'^  "[^"]+";$')
EDGE_LINE = re.compile(r'^  "[^"]+" -> "')


@pytest.fixture(scope="module")
def schema():
    path = resources.files("feta") / "schemas" / "report-v1.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, schema, *argv):
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return code, payload


# --- exit codes ---------------------------------------------------------------


def test_listing_commands_exit_zero(capsys):
    for command in ("products", "compose", "feta", "reqs"):
        code, out, _ = run(capsys, command, ACCESS)
        assert code == 0, (command, out)


def test_strict_check_signals_the_violation(capsys):
    code, out, _ = run(capsys, "check", ACCESS)
    assert code == 1
    assert "the family is not featured receptive" in out
    assert "(0,1,1)" in out
    assert "(for example under {lock})" in out


def test_weak_check_passes(capsys):
    code, out, _ = run(capsys, "check", "--weak", ACCESS)
    assert code == 0
    assert "the family is featured weakly receptive" in out


@pytest.mark.parametrize("argv", [("check", "--weak"), ("feta",)], ids=" ".join)
def test_no_team_guard_is_compiled(capsys, monkeypatch, access, argv):
    """Only component guards, sync rule guards and the feature model go
    through `expr_mask`.

    Team guard and requirement masks are built from those parts.
    """
    original = features.expr_mask
    compiled = []

    def counting(expr, space):
        compiled.append(expr)
        return original(expr, space)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "feta" and getattr(module, "expr_mask", None) is original:
            monkeypatch.setattr(module, "expr_mask", counting)
    code, _, _ = run(capsys, *argv, ACCESS)
    assert code == 0
    fsys, fspec = access
    parts = [guard for name in fsys.names for guard in fsys.components[name].guards.values()]
    parts += [rule.guard for rule in fspec.rules] + [fsys.feature_model]
    assert all(expr in parts for expr in compiled)
    assert 0 < len(compiled) <= len(parts)


def test_text_feta_builds_no_team_guard(capsys, monkeypatch):
    """Text `feta` prints counts only, so no team guard expression is made."""

    def refuse(*args):
        raise AssertionError("a team guard was built")

    _patch_everywhere(monkeypatch, feta.team, "participants_guard", refuse)
    code, out, _ = run(capsys, "feta", ACCESS)
    assert code == 0
    assert out == (GOLDEN / "access_management.feta.out").read_text(encoding="utf-8")


def test_dot_feta_builds_only_the_printed_team_guards(capsys, monkeypatch):
    """At most one guard per transition of the pruned team that DOT draws."""
    calls = []
    _counting(monkeypatch, feta.team, "participants_guard", calls)
    code, out, _ = run(capsys, "feta", "--format", "dot", ACCESS)
    assert code == 0
    assert out == (GOLDEN / "access_management.feta-dot.out").read_text(encoding="utf-8")
    assert 0 < len(calls) <= models.CORE_TRANSITIONS


def test_shared_condition_factors_are_simplified_once(capsys, monkeypatch):
    """Conditions share their sync and reach factors; each is simplified once.

    Without keeping the results on the nodes, this family's `check --weak`
    walks 12,690 nodes.
    """
    original = features.simplified
    calls = []

    def counting(expr):
        calls.append(expr)
        return original(expr)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "feta" and getattr(module, "simplified", None) is original:
            monkeypatch.setattr(module, "simplified", counting)
    code, _, _ = run(capsys, "check", "--weak", PRODUCT_FAMILY)
    assert code == 1
    assert 0 < len(calls) < 3000


def test_max_states_bounds_the_states_each_command_builds(capsys):
    """`check` and `reqs` reach 48 of acc4's 162 states; `feta` and `verify` build all."""
    for command in (("check", "--weak"), ("reqs",)):
        code, _, _ = run(capsys, *command, "--max-states", "48", ACC4)
        assert code == 0
        code, out, err = run(capsys, *command, "--max-states", "47", ACC4)
        assert code == 2
        assert out == ""
        assert err == (
            "error: states reached by the featured team: 48, above the bound 47 (--max-states)\n"
        )
    for command in ("feta", "verify"):
        code, _, err = run(capsys, command, "--max-states", "161", ACC4)
        assert code == 2
        assert err == (
            "error: states in the full product of local states: 162,"
            " above the bound 161 (--max-states)\n"
        )
    code, _, _ = run(capsys, "feta", "--max-states", "162", ACC4)
    assert code == 0


_REACHED = "states reached by the featured team: 48, above the bound 47 (--max-states)"
_FULL = "states in the full product of local states: 162, above the bound 161 (--max-states)"
# What --max-states counts for each analysis command on acc4, and the bound just below it.
_STATES_BOUND = {
    ("check",): ("47", _REACHED),
    ("check", "--weak"): ("47", _REACHED),
    ("reqs",): ("47", _REACHED),
    ("feta",): ("161", _FULL),
    ("feta", "--format", "dot", "--reqs"): ("161", _FULL),
    ("project", "-p", "lock"): ("161", _FULL),
    ("verify",): ("161", _FULL),
    ("compose",): ("161", _FULL),
    ("check", "-p", "lock"): ("161", _FULL),
    ("reqs", "-p", "lock"): ("161", _FULL),
}
_PARTICIPANTS = "ready participants of 'join': 5, above the bound 4 (--max-participants)"
_PRODUCTS = "products of the 2-feature space: 4, above the bound 3 (--max-products)"


def _bound_cases():
    cases = [(("products",), ("--max-products", "3"), _PRODUCTS)]
    for argv, (states, message) in _STATES_BOUND.items():
        cases.append((argv, ("--max-states", states), message))
        cases.append((argv, ("--max-participants", "4"), _PARTICIPANTS))
        cases.append((argv, ("--max-products", "3"), _PRODUCTS))
    return [pytest.param(*case, id=" ".join(case[0] + case[1])) for case in cases]


@pytest.mark.parametrize("argv, bound, message", _bound_cases())
def test_every_resource_error_names_its_flag_and_what_it_counted(capsys, argv, bound, message):
    code, out, err = run(capsys, *argv, *bound, ACC4)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# Four components over {0,1}: each `w` receives `b` at 0 and sends `a` at 1,
# the hub receives `a` at 0 and sends `b` at 1. Every action has 4 takers
# ready somewhere, but at the first state (0,0,0,0) only 1 and 3 are ready.
_CROWD = """features f;
feature_model true;
component W { output a; input b; init 0; 0 -> 1 by b?; 1 -> 0 by a!; }
component Hub { input a; output b; init 0; 0 -> 1 by a?; 1 -> 0 by b!; }
system S = { w1: W, w2: W, w3: W, hub: Hub };
sync { default [1,1] -> [1,3]; }
"""
_FULL_100 = "states in the full product of local states: 162, above the bound 100 (--max-states)"


# `--max-*` flags, the spec (None for `_CROWD`) and the error they give.
_FIRST_OFFENDING = [
    pytest.param(("--max-states", "100"), ACC4, _FULL_100, id="acc4 states 100"),
    pytest.param(
        ("--max-states", "100", "--max-participants", "4"), ACC4, _FULL_100,
        id="acc4 states 100 participants 4",
    ),
    pytest.param(("--max-participants", "4"), ACC4, _PARTICIPANTS, id="acc4 participants 4"),
    pytest.param(
        ("--max-participants", "1"), ACC4, _PARTICIPANTS.replace("bound 4", "bound 1"),
        id="acc4 participants 1",
    ),
    pytest.param(
        ("--max-participants", "2"), None,
        "ready participants of 'b': 3, above the bound 2 (--max-participants)",
        id="crowd participants 2",
    ),
    pytest.param(
        ("--max-participants", "3"), None,
        "ready participants of 'b': 4, above the bound 3 (--max-participants)",
        id="crowd participants 3",
    ),
]


@pytest.mark.parametrize("flags, spec, message", _FIRST_OFFENDING)
def test_verify_budget_errors_name_the_first_offending_state(capsys, tmp_path, flags, spec, message):
    """`verify`'s resource errors, byte for byte as composing the full team
    gave them: the states bound before the participants bound, and the
    participants of the first (state, action) in state order that has too
    many, which in `_CROWD` under 3 is `b` at (0,0,0,1), not `a`, although
    `a` comes first in action order and has as many takers ready somewhere.
    """
    if spec is None:
        spec = tmp_path / "crowd.feta"
        spec.write_text(_CROWD, encoding="utf-8")
    code, out, err = run(capsys, "verify", *flags, str(spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags, spec, message", _FIRST_OFFENDING)
def test_project_budget_errors_name_the_first_offending_state(capsys, tmp_path, flags, spec, message):
    """`project` reads the full team off its label classes as `verify` does,
    so its bounds are refused with the same errors, in text and in JSON."""
    product = "lock"
    if spec is None:
        spec, product = tmp_path / "crowd.feta", "f"
        spec.write_text(_CROWD, encoding="utf-8")
    code, out, err = run(capsys, "project", "-p", product, *flags, str(spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "project", "-p", product, "--format", "json", *flags, str(spec))
    assert (code, json.loads(out)["error"]["message"]) == (2, message)


@pytest.mark.parametrize("flags, spec, message", _FIRST_OFFENDING)
def test_compose_budget_errors_name_the_first_offending_state(capsys, tmp_path, flags, spec, message):
    """`compose` counts the full product's transitions off its label classes,
    so its bounds are refused as composing them did, in text and in JSON."""
    if spec is None:
        spec = tmp_path / "crowd.feta"
        spec.write_text(_CROWD, encoding="utf-8")
    code, out, err = run(capsys, "compose", *flags, str(spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "compose", "--format", "json", *flags, str(spec))
    assert (code, json.loads(out)["error"]["message"]) == (2, message)


@pytest.mark.parametrize("flags, spec, message", _FIRST_OFFENDING)
def test_feta_budget_errors_name_the_first_offending_state(capsys, tmp_path, flags, spec, message):
    """`feta` composes the full team and then walks its display core, and
    only the composition refuses a bound: the same errors, in text and in
    JSON."""
    if spec is None:
        spec = tmp_path / "crowd.feta"
        spec.write_text(_CROWD, encoding="utf-8")
    code, out, err = run(capsys, "feta", *flags, str(spec))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run(capsys, "feta", "--format", "json", *flags, str(spec))
    assert (code, json.loads(out)["error"]["message"]) == (2, message)


def test_json_resource_errors_name_the_flag(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "--max-states", "47", ACC4)
    assert code == 2
    assert json.loads(out)["error"]["message"] == _REACHED


@pytest.mark.parametrize("flag", ["--max-states", "--max-participants", "--max-products"])
def test_negative_budgets_are_refused(capsys, flag):
    with pytest.raises(SystemExit) as stop:
        cli.main(["check", flag, "-3", ACCESS])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must not be negative, got -3" in captured.err


def test_unwritable_output_is_an_input_error_in_every_format(capsys, tmp_path):
    target = tmp_path / "missing" / "report"
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "check", "--weak", "--format", fmt, "-o", str(target), ACCESS)
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.parent.exists()


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "check", "no_such_file.feta")
    assert code == 2
    assert "error: cannot read no_such_file.feta" in err
    code, _, err = run(capsys, "check", "")
    assert code == 2
    assert err == "error: cannot read : No such file or directory\n"
    code, _, err = run(capsys, "check", str(tmp_path))
    assert code == 2
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_invalid_product_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "-p", "lock,unlock", ACCESS)
    assert code == 2
    assert "does not satisfy the feature model" in err
    code, _, err = run(capsys, "check", "-p", "padlock", ACCESS)
    assert code == 2
    assert "unknown features in product: padlock" in err


def test_non_utf8_file_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.feta"
    bad.write_bytes(b"\xff\xfe features coin;")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert f"error: cannot read {bad}: not UTF-8 text (byte 0)" in err


TURNSTILE = models.example_path("turnstile")


def turnstile_with(tmp_path, old, new):
    """The turnstile example with one piece of text replaced, as a file."""
    text = Path(TURNSTILE).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "variant.feta"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


# The model starts in column 15; the error points at the 101st "(" or "!",
# or at the 100th "xor".
@pytest.mark.parametrize(
    "model, column",
    [
        ("(" * 3000 + "coin" + ")" * 3000, 115),
        ("!" * 3000 + "coin", 115),
        (" xor ".join(["coin"] * 3001), 911),
    ],
    ids=["parentheses", "negations", "xor-chain"],
)
def test_too_deep_expressions_are_syntax_errors(capsys, tmp_path, model, column):
    spec = turnstile_with(tmp_path, "feature_model true;", f"feature_model {model};")
    code, _, err = run(capsys, "check", spec)
    assert code == 2
    assert (
        f"variant.feta:6:{column}: error: feature expression nested deeper than 100 levels [syntax]"
        in err
    )


@pytest.mark.parametrize(
    "bound, shown",
    [("\u00b2", "'\u00b2'"), ("9" * 5000, "'" + "9" * 20 + "...'")],
    ids=["superscript", "5000-digits"],
)
def test_unreadable_interval_bounds_are_syntax_errors(capsys, tmp_path, bound, shown):
    spec = turnstile_with(tmp_path, "default [1,1]", f"default [1,{bound}]")
    code, _, err = run(capsys, "check", spec)
    assert code == 2
    assert f"variant.feta:27:14: error: expected an interval maximum, found {shown} [syntax]" in err


def test_verify_reports_an_open_system_once(capsys, schema, tmp_path):
    """`verify` builds the full and the reachable team; the warning is one line."""
    spec = turnstile_with(tmp_path, "output coin, push;", "output coin, push, wave;")
    warning = f"{spec}: warning: system is not closed: no receiver for wave"
    code, _, err = run(capsys, "verify", spec)
    assert code == 0
    assert err.splitlines().count(warning) == 1
    code, payload = run_json(capsys, schema, "verify", "--format", "json", spec)
    assert code == 0
    assert payload["warnings"].count(warning) == 1


def test_too_many_features_is_a_resource_error(capsys, tmp_path):
    extra = ", ".join(f"f{i}" for i in range(18))
    spec = turnstile_with(tmp_path, "features coin;", f"features coin, {extra};")
    code, _, err = run(capsys, "check", "--max-products", "1000000", spec)
    assert code == 2
    assert (
        "variant.feta:1:1: error: products of the 19-feature space: 524288,"
        " above the bound 65536 [resource]" in err
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("products",),
        ("compose",),
        ("feta",),
        ("feta", "--format", "dot", "--reqs"),
        ("project", "-p", "lock"),
        ("reqs",),
        ("reqs", "-p", "lock"),
        ("check", "--weak"),
        ("check", "-p", "lock"),
        ("verify",),
    ],
    ids=" ".join,
)
def test_every_command_honours_the_product_bound(capsys, argv):
    code, out, err = run(capsys, *argv, "--max-products", "3", ACCESS)
    assert code == 2
    assert out == ""
    assert err == (
        "error: products of the 2-feature space: 4, above the bound 3 (--max-products)\n"
    )


def test_product_bounds_above_the_ceiling_are_refused(capsys):
    code, _, err = run(capsys, "feta", "--max-products", "65537", ACCESS)
    assert code == 2
    assert err == "error: --max-products 65537 is above its ceiling 65536\n"
    code, _, _ = run(capsys, "feta", "--max-products", "65536", ACCESS)
    assert code == 0


def test_specification_errors_are_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.feta"
    bad.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "missing feature model" in err
    assert "error: the specification has errors" in err


EXAMPLE_BYTES = [
    entry.read_bytes()
    for entry in sorted((resources.files("feta") / "examples").iterdir(), key=lambda e: e.name)
    if entry.name.endswith(".feta")
]


@st.composite
def mutated_examples(draw):
    data = bytearray(draw(st.sampled_from(EXAMPLE_BYTES)))
    edits = st.tuples(st.sampled_from(("delete", "duplicate", "substitute")), st.integers(0), st.integers(0, 255))
    for op, pos, byte in draw(st.lists(edits, min_size=1, max_size=8)):
        i = pos % len(data)
        if op == "delete":
            del data[i]
        elif op == "duplicate":
            data.insert(i, data[i])
        else:
            data[i] = byte
    return bytes(data)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(mutated_examples(), st.binary(max_size=300)))
def test_malformed_input_ends_in_an_exit_code(capsys, tmp_path, data):
    spec = tmp_path / "fuzz.feta"
    spec.write_bytes(data)
    code, _, _ = run(capsys, "check", "--weak", str(spec))
    assert code in (0, 1, 2)


# --- text reports -------------------------------------------------------------


def test_products_text(capsys):
    code, out, _ = run(capsys, "products", ACCESS)
    assert code == 0
    assert "feature model: lock xor unlock" in out
    assert "valid products (2):" in out
    assert "  {lock}\n" in out and "  {unlock}\n" in out


def test_compose_text(capsys):
    code, out, _ = run(capsys, "compose", ACCESS)
    assert code == 0
    assert "states: 18" in out
    assert "transitions: 142" in out
    assert "closed: yes" in out


def test_feta_text(capsys):
    code, out, _ = run(capsys, "feta", ACCESS)
    assert code == 0
    assert "states: 18" in out
    assert "transitions: 142" in out
    assert "reachable core states: 8" in out
    assert "reachable core transitions: 18" in out


def test_reqs_text_counts_and_factors(capsys):
    code, out, _ = run(capsys, "reqs", ACCESS)
    assert code == 0
    assert "featured requirements (18):" in out
    code, out, _ = run(capsys, "reqs", "--show-factors", ACCESS)
    assert code == 0
    assert "ready:" in out and "sync:" in out and "reach:" in out
    code, out, _ = run(capsys, "reqs", "-p", "lock", ACCESS)
    assert code == 0
    assert "requirements for {lock} (16):" in out
    code, out, _ = run(capsys, "reqs", "-p", "unlock", ACCESS)
    assert "requirements for {unlock} (10):" in out


def test_project_text(capsys):
    code, out, _ = run(capsys, "project", "-p", "unlock", ACCESS)
    assert code == 0
    assert "product: {unlock}" in out
    assert "projection agrees with the product's own team: yes" in out


def test_product_check_prints_the_weak_witness(capsys):
    code, out, _ = run(capsys, "check", "-p", "lock", ACCESS)
    assert code == 1
    assert "rcp({u2}, join) @ (1,0,1): weakly compliant" in out
    assert "the team is not receptive" in out
    code, out, _ = run(capsys, "check", "-p", "lock", "--weak", ACCESS)
    assert code == 0
    assert "weakly compliant" in out
    assert "via " in out and "confirm" in out
    assert "the team is weakly receptive" in out


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", ACCESS)
    assert code == 0
    assert "verify: 7 checks passed" in out
    assert "ok: projection of the team commutes for {lock}" in out
    assert "ok: compliance unfolds product by product (18 requirements)" in out


@pytest.mark.parametrize(
    "name",
    [
        "access_management",
        "broadcast_logger",
        "dual_sign",
        "relay",
        "sensor_fusion",
        "turnstile",
    ],
)
def test_verify_passes_on_every_bundled_example(capsys, name):
    code, out, _ = run(capsys, "verify", models.example_path(name))
    assert code == 0
    assert "checks passed" in out


def _patch_everywhere(monkeypatch, module, attr, replacement):
    """Replace `module.attr` in every `feta` module that holds it by name."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if (name == "feta" or name.startswith("feta.")) and getattr(mod, attr, None) is original:
            monkeypatch.setattr(mod, attr, replacement)
    return original


def _counting(monkeypatch, module, attr, calls):
    original = None

    def counted(*args, **kwargs):
        calls.append(inspect.signature(original).bind(*args, **kwargs).arguments)
        return original(*args, **kwargs)

    original = _patch_everywhere(monkeypatch, module, attr, counted)


def test_verify_builds_each_product_team_once(capsys, monkeypatch):
    """One own team per valid product, under the CLI's budget.

    The family is decided once, in weak mode, and each product's
    requirements come with its one receptiveness report.
    """
    calls = {
        "build_team": [],
        "product_team": [],
        "derive_family_requirements": [],
        "derive_requirements": [],
    }
    _counting(monkeypatch, feta.team, "build_team", calls["build_team"])
    _counting(monkeypatch, feta.team, "product_team", calls["product_team"])
    _counting(
        monkeypatch, feta.family, "derive_family_requirements",
        calls["derive_family_requirements"],
    )
    _counting(
        monkeypatch, feta.receptiveness, "derive_requirements", calls["derive_requirements"]
    )
    flags = ("--max-states", "1000", "--max-participants", "7", "--max-products", "100")
    code, out, _ = run(capsys, "verify", *flags, ACCESS)
    assert code == 0, out
    assert len(calls["build_team"]) == 2
    assert len(calls["derive_family_requirements"]) == 1
    assert len(calls["derive_requirements"]) == 2
    budget = Budget(states=1000, participants=7, products=100)
    assert [c["budget"] for c in calls["product_team"]] == [budget] * 2


def test_verify_walks_no_full_team_state_for_masks(capsys, monkeypatch):
    """`verify` only projects the full team, so the mask walk
    (`_TeamGuards.live`) leaves exactly the reachable team's states, each
    once; `feta` walks the full team's display core from the initial states
    and leaves exactly its states, each once, not every full state. With
    `--reqs` it then reads each state the valid products reach once more,
    for the notes' reachability fixpoint, however often the state gains
    products.
    """
    result = elaborate_text(Path(ACC4).read_text(encoding="utf-8"))
    fsys, fspec = result.system, result.sync
    reachable = feta.team.reachable_featured_team(fsys, fspec).states
    core = instancegen.reference_display_team(feta.team.build_featured_team(fsys, fspec))[0]
    walked = []
    original = feta.team._TeamGuards.live

    def recording(self, source, budget):
        walked.append(source)
        return original(self, source, budget)

    monkeypatch.setattr(feta.team._TeamGuards, "live", recording)
    assert cli.main(["verify", ACC4]) == 0
    assert sorted(walked) == sorted(reachable)
    assert len(reachable) == 48
    walked.clear()
    assert cli.main(["feta", ACC4]) == 0
    assert sorted(walked) == sorted(core)
    assert len(core) == 48
    walked.clear()
    assert cli.main(["feta", "--format", "dot", "--reqs", ACC4]) == 0
    assert sorted(walked) == sorted(core + reachable)
    capsys.readouterr()


def _count_composition(monkeypatch) -> tuple[list, list]:
    """The systems `state_space` is called on and the transitions the full
    product expansion (`_full_transitions`) and `successors` return, all
    recorded from now on."""
    spaces, composed = [], []
    mixin = feta.system._ComposeMixin
    state_space, expand, successors = mixin.state_space, mixin._full_transitions, mixin.successors

    def counted_state_space(self, *args):
        spaces.append(self)
        return state_space(self, *args)

    def counted_expand(self, *args):
        made = expand(self, *args)
        composed.extend(made)
        return made

    def counted_successors(self, *args):
        made = successors(self, *args)
        composed.extend(made)
        return made

    monkeypatch.setattr(mixin, "state_space", counted_state_space)
    monkeypatch.setattr(mixin, "_full_transitions", counted_expand)
    monkeypatch.setattr(mixin, "successors", counted_successors)
    return spaces, composed


def test_verify_composes_only_the_products_own_teams(capsys, monkeypatch):
    """`verify` compares the full team class by class, so it never composes
    it: no `state_space`, and no more transitions are composed than the two
    products' own teams hold. `feta` still composes it once."""
    result = elaborate_text(Path(ACC4).read_text(encoding="utf-8"))
    fsys, fspec = result.system, result.sync
    own = sum(
        len(feta.team.product_team(fsys, fspec, product)[0].transitions)
        for product in features.valid_products(fsys.feature_model, fsys.space)
    )
    spaces, composed = _count_composition(monkeypatch)
    assert cli.main(["verify", ACC4]) == 0
    assert spaces == []
    assert 0 < len(composed) <= own
    assert cli.main(["feta", ACC4]) == 0
    assert len(spaces) == 1
    capsys.readouterr()


def test_project_composes_no_full_team(capsys, monkeypatch):
    """`project` expands only the classes the product keeps: no
    `state_space`, no `build_featured_team`, and no more transitions are
    composed than the product's own team holds."""
    result = elaborate_text(Path(ACC4).read_text(encoding="utf-8"))
    lock = features.Product.of(result.system.space, "lock")
    own = feta.team.product_team(result.system, result.sync, lock)[0]

    def no_full_team(*args):
        raise AssertionError("project built the full featured team")

    spaces, composed = _count_composition(monkeypatch)
    monkeypatch.setattr(cli, "build_featured_team", no_full_team)
    assert cli.main(["project", "-p", "lock", ACC4]) == 0
    assert spaces == []
    assert 0 < len(composed) <= len(own.transitions)
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_project_keeps_the_classes_once(capsys, monkeypatch, fmt):
    """`project` asks which classes the product keeps once and hands that
    list to both its projection and the check, so each class guard is
    evaluated once per run."""
    calls = []
    original = feta.team.FeaturedClasses.kept

    def counting(self, product):
        calls.append(product)
        return original(self, product)

    monkeypatch.setattr(feta.team.FeaturedClasses, "kept", counting)
    assert cli.main(["project", "-p", "lock", "--format", fmt, ACC4]) == 0
    assert [str(product) for product in calls] == ["{lock}"]
    capsys.readouterr()


def test_compose_composes_no_full_team(capsys, monkeypatch):
    """`compose` sums the sizes of the full product's label classes: no
    `state_space`, no transition composed, and the count it composed to."""
    fsys = elaborate_text(Path(ACC4).read_text(encoding="utf-8")).system
    states, transitions = fsys.state_space()
    spaces, composed = _count_composition(monkeypatch)
    assert cli.main(["compose", "--format", "json", ACC4]) == 0
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert (stats["states"], stats["transitions"]) == (len(states), len(transitions))
    assert spaces == [] and composed == []


_DROPPED_FIRST_TRANSITION = [
    ("projection of the team commutes for {lock}", False, "1 transitions differ"),
    ("projection of the team commutes for {unlock}", False, "1 transitions differ"),
    (
        "requirements project correctly for {lock}",
        False,
        "2 only in the family, 0 only in the product",
    ),
    ("requirements project correctly for {unlock}", True, ""),
    ("compliance unfolds product by product (18 requirements)", True, ""),
    ("family verdict equals all product verdicts (strict)", True, "family False, products False"),
    ("family verdict equals all product verdicts (weak)", True, "family True, products True"),
]


def test_verify_renders_failed_checks(capsys, monkeypatch, schema):
    """Every product's own team loses its first transition."""
    original = None

    def dropping(*args, **kwargs):
        team = original(*args, **kwargs)
        return Lts(team.states, team.initial, team.actions, team.transitions[1:])

    original = _patch_everywhere(monkeypatch, feta.team, "build_team", dropping)
    code, out, _ = run(capsys, "verify", ACCESS)
    assert code == 1
    assert out == (
        "FAIL: projection of the team commutes for {lock} (1 transitions differ)\n"
        "FAIL: projection of the team commutes for {unlock} (1 transitions differ)\n"
        "FAIL: requirements project correctly for {lock}"
        " (2 only in the family, 0 only in the product)\n"
        "ok: requirements project correctly for {unlock}\n"
        "ok: compliance unfolds product by product (18 requirements)\n"
        "ok: family verdict equals all product verdicts (strict)\n"
        "ok: family verdict equals all product verdicts (weak)\n"
        "verify: 3 of 7 checks failed\n"
    )
    code, payload = run_json(capsys, schema, "verify", "--format", "json", ACCESS)
    assert code == 1
    assert payload == {
        "schema": "report-v1",
        "command": "verify",
        "input": ACCESS,
        "checks": [
            {"name": name, "ok": ok, "details": details}
            for name, ok, details in _DROPPED_FIRST_TRANSITION
        ],
        "ok": False,
    }


def test_relay_fails_strict_but_passes_weak(capsys):
    code, out, _ = run(capsys, "check", RELAY)
    assert code == 1
    assert "rcp({source}, put) @ (0,1,0): violated (for example under {})" in out
    code, _, _ = run(capsys, "check", "--weak", RELAY)
    assert code == 0


# --- machine readable reports ---------------------------------------------------


def test_every_command_emits_schema_valid_json(capsys, schema):
    commands = [
        ("products", ACCESS),
        ("compose", ACCESS),
        ("feta", ACCESS),
        ("project", "-p", "unlock", ACCESS),
        ("reqs", ACCESS),
        ("reqs", "-p", "lock", ACCESS),
        ("check", ACCESS),
        ("check", "--weak", ACCESS),
        ("check", "-p", "lock", "--weak", ACCESS),
        ("verify", ACCESS),
    ]
    for argv in commands:
        code, payload = run_json(capsys, schema, argv[0], "--format", "json", *argv[1:])
        assert payload["schema"] == "report-v1"
        assert payload["command"] == argv[0]
        assert code in (0, 1)


def test_json_payload_details(capsys, schema):
    _, payload = run_json(capsys, schema, "products", "--format", "json", ACCESS)
    assert payload["products"] == [["lock"], ["unlock"]]
    _, payload = run_json(capsys, schema, "feta", "--format", "json", ACCESS)
    assert payload["stats"]["states"] == 18
    assert payload["stats"]["transitions"] == 142
    assert payload["stats"]["core_states"] == 8
    _, payload = run_json(capsys, schema, "reqs", "--format", "json", ACCESS)
    assert len(payload["requirements"]) == 18
    factors = payload["requirements"][0]["factors"]
    assert set(factors) == {"enabling", "sync", "reach"}
    code, payload = run_json(capsys, schema, "check", "--format", "json", ACCESS)
    assert code == 1
    assert payload["verdict"] == "the family is not featured receptive"
    assert payload["holds"] is False
    code, payload = run_json(
        capsys, schema, "project", "--format", "json", "-p", "unlock", ACCESS
    )
    assert code == 0
    assert payload["projection_agrees"] is True
    assert payload["product"] == ["unlock"]


def test_json_error_envelope(capsys, schema):
    code, out, err = run(capsys, "check", "--format", "json", "-p", "padlock", ACCESS)
    assert code == 2
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["error"]["message"].startswith("unknown features")
    assert "error:" in err


# --- DOT output -----------------------------------------------------------------


def dot_lines(text):
    states = [l for l in text.splitlines() if STATE_LINE.match(l)]
    edges = [l for l in text.splitlines() if EDGE_LINE.match(l)]
    return states, edges


def test_pruned_team_dot_shape(capsys):
    code, out, _ = run(capsys, "feta", "--format", "dot", ACCESS)
    assert code == 0
    states, edges = dot_lines(out)
    assert len(states) == 8
    assert len(edges) == 18
    assert out.startswith("digraph {")
    assert "__init0 ->" in out


def test_reqs_flag_annotates_the_dot_output(capsys):
    code, out, _ = run(capsys, "feta", "--format", "dot", "--reqs", ACCESS)
    assert code == 0
    assert "__note0" in out
    assert "rcp(" in out


def test_compose_dot_draws_one_cluster_per_instance(capsys):
    code, out, _ = run(capsys, "compose", "--format", "dot", ACCESS)
    assert code == 0
    assert out.count("subgraph cluster_") == 3
    for instance in ("u1", "u2", "s"):
        assert f'label="{instance}"' in out


def test_unbuildable_guards_leave_a_nodes_only_graph(capsys, tmp_path):
    text = """
features f;
feature_model f;

component A {
  output go;
  init 0;
  0 -> 0 by go! when !f;
}

component B {
  input go;
  init 0;
  0 -> 0 by go?;
}

system S = { a: A, b: B };

sync {
  default [1,1] -> [1,1];
}
"""
    path = tmp_path / "dead.feta"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "feta", "--format", "dot", str(path))
    assert code == 0
    states, edges = dot_lines(out)
    assert states and not edges


def test_dot_output_is_byte_identical_across_runs():
    argv = [sys.executable, "-m", "feta.cli", "feta", "--format", "dot", ACCESS]
    # The children run the package this test imported, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"digraph {")


# --- files and example management -------------------------------------------------


def test_output_flag_writes_the_report_to_a_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "feta", "--format", "json", "-o", str(target), ACCESS)
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["stats"]["states"] == 18


def test_examples_listing_and_printing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    names = out.splitlines()
    assert len(names) == 6
    assert "access_management.feta" in names
    code, out, _ = run(capsys, "examples", "turnstile")
    assert code == 0
    assert "component Turnstile" in out
    code, _, err = run(capsys, "examples", "nonexistent")
    assert code == 2
    assert "no bundled example named 'nonexistent'" in err


def test_strict_sync_rejects_shadowed_disagreeing_rules(capsys, tmp_path):
    text = """
features f;
feature_model true;

component A {
  output go;
  init 0;
  0 -> 0 by go!;
}

component B {
  input go;
  init 0;
  0 -> 0 by go?;
}

system S = { a: A, b: B };

sync {
  go: [1,1] -> [0,*];
  go: [1,1] -> [1,1];
}
"""
    path = tmp_path / "overlap.feta"
    path.write_text(text, encoding="utf-8")
    code, _, _ = run(capsys, "check", str(path))
    assert code == 0
    code, _, err = run(capsys, "check", "--strict-sync", str(path))
    assert code == 2
    assert "overlapping synchronisation rules" in err


def test_no_command_prints_help_and_fails(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert "usage:" in err


# --- reading the command line ---------------------------------------------------

_BUDGETS = ("7", " 7", "+7", "1_000", "\u0663", "-3", "x")


def _values(kind, formats):
    """Values to try after an option of `kind`; (None,) when it takes none."""
    if kind == "budget":
        return _BUDGETS
    if kind == "format":
        return (*formats, "xml")
    if kind in ("flag", "mode"):
        return (None,)
    return ("lock", "", "a,b")


def _spellings(flag, values):
    """`flag` with each value: exact, abbreviated, `=`-joined, repeated,
    missing its value and with a value that starts with `-`."""
    for value in values:
        exact = [flag] if value is None else [flag, value]
        yield [*exact, "a.feta"]
        yield ["a.feta", *exact]
        yield [*exact, *exact, "a.feta"]
        yield [f"{flag}={'x' if value is None else value}", "a.feta"]
        if flag.startswith("--"):
            yield [flag[:-1], *exact[1:], "a.feta"]
    if values != (None,):
        yield ["a.feta", flag]
        yield [flag, "a.feta"]
        yield [flag, "-x", "a.feta"]


def _reader_corpus():
    """Command lines around every command and option of the command table."""
    yield from ([], ["-h"], ["--help"], ["--version"], ["nope", "a.feta"])
    for name, (_, _, formats, options) in cli._COMMANDS.items():
        flagged = [(flags, _values(kind, formats)) for flags, _, kind, *_ in options if flags]
        firsts = [[flags[-1], values[0]] if values[0] else flags[:1] for flags, values in flagged]
        for prefix in ([name], [name, "-p", "lock"]):
            for rest in ([], ["a.feta", "b.feta"], ["-h", "a.feta"], ["--help"], ["--", "a.feta"]):
                yield [*prefix, *rest]
            for word in ("a.feta", "", "-", "--"):
                yield [*prefix, word]
            for flags, values in flagged:
                for flag in flags:
                    for rest in _spellings(flag, values):
                        yield [*prefix, *rest]
            for one in firsts:
                for other in firsts:
                    yield [*prefix, *one, *other, "a.feta"]


def test_the_reader_agrees_with_argparse(capsys):
    """Whatever `_read` accepts, argparse reads to the same namespace, and
    whatever argparse refuses, `_read` leaves to it."""
    parser = cli.build_parser()
    accepted = declined = 0
    for argv in _reader_corpus():
        read = cli._read(argv)
        try:
            parsed = vars(parser.parse_args(argv))
        except SystemExit:
            assert read is None, argv
            continue
        if read is None:
            declined += 1
        else:
            assert vars(read) == parsed, argv
            accepted += 1
    capsys.readouterr()
    assert accepted > 1000 and declined > 100, (accepted, declined)


# --- start-up -----------------------------------------------------------------


def test_start_up_imports_no_code_generation_or_resource_loading():
    """`import feta.cli` stays off `dataclasses` (and the `inspect` it loads),
    off `importlib.resources`, which only `feta examples` needs, off
    `pathlib`, for which plain `open` does, and off `typing`, for which
    `collections.namedtuple` and `collections.abc` do. Plain `feta`,
    `check` and `verify` command lines then run without `argparse` and the
    `gettext` and `locale` it loads, while `--help` still goes through it.

    The child runs isolated and without `site`, so no `.pth` file of the
    installation loads any of them first.
    """
    package_root = str(Path(cli.__file__).resolve().parents[1])
    unwanted = ("dataclasses", "inspect", "importlib.resources", "pathlib", "typing")
    parsing = ("argparse", "gettext", "locale")
    code = f"""
import io, sys
sys.path.insert(0, {package_root!r})
import feta.cli
print([name for name in {unwanted!r} if name in sys.modules])
out, sys.stdout = sys.stdout, io.StringIO()
codes = [
    feta.cli.main([*argv, {ACCESS!r}])
    for argv in (["feta"], ["check", "--weak", "--format", "json"], ["verify"])
]
loaded = [name for name in {parsing!r} if name in sys.modules]
try:
    feta.cli.main(["--help"])
except SystemExit as stop:
    codes.append(stop.code)
sys.stdout = out
print(codes, loaded, "argparse" in sys.modules)
"""
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert child.stdout == "[]\n[0, 0, 0, 0] [] True\n"


def test_every_benchmark_trace_target_exists():
    """`perfbench/tracer.py` wraps these names in place; one that is gone
    would stop every `perfbench/run.py --trace 1` child with an
    `AttributeError` or `KeyError`, and each would count as a failed run.
    So names that only the tracer still reads, such as `product_set_expr`,
    `reachable_products`, `is_satisfiable`, `entails` and
    `_ComposeMixin.state_space`, stay until the benchmark stops tracing them.

    The file is only parsed, so nothing under `perfbench/` is imported or written.
    A method is looked up in its class's own `__dict__`, as the tracer does,
    the module whose public functions it traces must import, and every
    observer must hear a traced span.
    """
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"))
    assigned = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }
    targets = ast.literal_eval(assigned["TARGETS"])
    assert targets
    for _, module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), attr
        else:
            assert inspect.isfunction(getattr(module, attr, None)), attr
    importlib.import_module(ast.literal_eval(assigned["REPORTING"]))
    observed = {ast.literal_eval(key) for key in assigned["OBSERVERS"].keys}
    assert observed <= {name for name, _, _ in targets}


# --- running out of memory ------------------------------------------------------

OUT_OF_MEMORY = "out of memory (lower --max-states to build fewer states)"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


# One builder per command, each made to run out of memory.
_MEMORY_HUNGRY = [
    (("products",), cli, "valid_products"),
    (("compose",), feta.system._ComposeMixin, "_label_classes"),
    (("feta",), cli, "build_featured_team"),
    (("project", "-p", "lock"), cli, "build_featured_classes"),
    (("reqs",), cli, "reachable_featured_team"),
    (("check", "--weak"), cli, "check_family_receptiveness"),
    (("check", "-p", "lock"), cli, "product_team"),
    (("verify",), cli, "product_team"),
]


@pytest.mark.parametrize(
    "argv, owner, builder", _MEMORY_HUNGRY, ids=[" ".join(argv) for argv, _, _ in _MEMORY_HUNGRY]
)
def test_running_out_of_memory_is_an_input_error(capsys, monkeypatch, schema, argv, owner, builder):
    """Exit 2 with one `error:` line naming `--max-states`; nothing on
    stdout in text mode, the error envelope in JSON mode."""
    monkeypatch.setattr(owner, builder, _out_of_memory)
    code, out, err = run(capsys, *argv, ACCESS)
    assert (code, out, err) == (2, "", f"error: {OUT_OF_MEMORY}\n")
    code, payload = run_json(capsys, schema, *argv, "--format", "json", ACCESS)
    assert code == 2
    assert payload["error"] == {"message": OUT_OF_MEMORY, "diagnostics": []}


def test_only_main_catches_memory_errors():
    source = Path(cli.__file__).parent
    catching = [
        (path.name, line.strip())
        for path in sorted(source.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "MemoryError" in line
    ]
    assert catching == [("cli.py", "except MemoryError:")]


# --- report lines that only a disagreement or a gap prints ----------------------


def test_project_lists_each_transition_only_one_side_has(capsys, monkeypatch):
    """An own team that lacks one transition of the projection and has one
    that the projection lacks: both are listed, and `project` exits 1."""
    original = cli.product_team

    def planted(*args, **kwargs):
        own, *rest = original(*args, **kwargs)
        (src, label, dst), *others = own.transitions
        extra = feta.system.SystemTransition(dst, label, src)
        return (Lts(own.states, own.initial, own.actions, [*others, extra]), *rest)

    monkeypatch.setattr(cli, "product_team", planted)
    code, out, _ = run(capsys, "project", "-p", "lock", ACCESS)
    assert code == 1
    assert out.splitlines()[-3:] == [
        "projection agrees with the product's own team: no",
        "  only in the projection: (0,0,0) --{u1} join {s}--> (1,0,1)",
        "  only in the product's team: (1,0,1) --{u1} join {s}--> (0,0,0)",
    ]


def test_compose_lists_the_actions_without_a_sender_or_receiver(capsys, tmp_path):
    text = Path(TURNSTILE).read_text(encoding="utf-8")
    text = text.replace("output coin, push;", "output coin, push, wave;")
    text = text.replace("input coin, push;", "input coin, push, bell;")
    spec = tmp_path / "open.feta"
    spec.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "compose", str(spec))
    assert code == 0
    assert out.splitlines()[-3:] == [
        "closed: no",
        "  actions without a sender: bell",
        "  actions without a receiver: wave",
    ]


def test_a_family_without_products_is_vacuously_receptive(capsys, tmp_path):
    spec = turnstile_with(tmp_path, "feature_model true;", "feature_model false;")
    for mode in ("--strict", "--weak"):
        code, out, err = run(capsys, "check", mode, spec)
        assert code == 0
        assert "note: the feature model has no valid products; receptiveness holds vacuously" in out
        assert "warning: the feature model admits no products [empty-family]" in err
