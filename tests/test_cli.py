"""End-to-end command line behaviour, exit codes and report formats."""

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
import feta.team
import models
from feta import Budget, cli, features
from feta.automata import Lts

ACCESS = models.example_path()
RELAY = models.example_path("relay")
INPUTS = Path(__file__).parent / "inputs"
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
    """Only component guards and the feature model go through `expr_mask`.

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
    fsys, _ = access
    parts = sum(len(fsys.components[name].transitions) for name in fsys.names) + 1
    assert 0 < len(compiled) <= parts


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


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "check", "no_such_file.feta")
    assert code == 2
    assert "error: cannot read no_such_file.feta" in err


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

    The family requirements come with the strict and the weak family verdict,
    and each product's requirements with its one receptiveness report.
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
    assert len(calls["derive_family_requirements"]) <= 2
    assert len(calls["derive_requirements"]) == 2
    budget = Budget(states=1000, participants=7, products=100)
    assert [c["budget"] for c in calls["product_team"]] == [budget] * 2


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


# --- start-up -----------------------------------------------------------------


def test_start_up_imports_no_code_generation_or_resource_loading():
    """`import feta.cli` stays off `dataclasses` (and the `inspect` it loads)
    and off `importlib.resources`, which only `feta examples` needs.

    The child runs isolated and without `site`, so no `.pth` file of the
    installation loads any of them first.
    """
    package_root = str(Path(cli.__file__).resolve().parents[1])
    unwanted = ("dataclasses", "inspect", "importlib.resources")
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); import feta.cli; "
        f"print([name for name in {unwanted!r} if name in sys.modules])"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert child.stdout == "[]\n"
