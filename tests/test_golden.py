"""Golden command line outputs: the behaviour contract, byte for byte.

For each bundled example and each command below, `tests/golden/` holds the
exact stdout (`<example>.<command>.out`), the stderr when there is any
(`<example>.<command>.err`) and, in `exit-codes.json`, the exit code. The
per-product commands, which need a product of the example, and one JSON
error envelope are kept for `access_management` only. The family commands,
and `feta`, `compose` and `project` onto `{lock}` in every format, are also
kept on three scaled inputs in `tests/inputs/`: `acc4`, the access
example with four users (162 states, of which 48 are reachable);
`product_family_v08`, a six-feature family with 12 products; and `free4`,
the access example with four unconstrained features `x0..x3` added (32
products, so every condition is a large product disjunction). `feta` is
kept on `acc6` too, the access example with six users as the benchmark's
`inputs.acc(6)` writes it: its counts (1,458 states, 82,702 transitions,
a display core of 256 states and 1,714 transitions) are the ones the
benchmark's traced run checks. On
`access_management`, whole command lines that argparse answers itself are
kept too: help and version (wrapped at a fixed `COLUMNS`), usage errors,
and the abbreviated and `=`-joined flag spellings it accepts. The commands
run in-process from the input's directory on the bare file name, so no path
of the checkout ends up in the outputs. Every command of the CLI's table, in
each of its `--format` choices, has at least one case.

Re-record after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff of `tests/golden/` before committing it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

import pytest

from feta import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = Path(__file__).parent / "inputs"
EXIT_CODES = GOLDEN / "exit-codes.json"
EXAMPLES = (
    "access_management",
    "broadcast_logger",
    "dual_sign",
    "relay",
    "sensor_fusion",
    "turnstile",
)
COMMANDS = {
    "feta": ("feta",),
    "feta-dot": ("feta", "--format", "dot"),
    "feta-dot-reqs": ("feta", "--format", "dot", "--reqs"),
    "feta-json": ("feta", "--format", "json"),
    "products": ("products",),
    "products-json": ("products", "--format", "json"),
    "compose": ("compose",),
    "compose-json": ("compose", "--format", "json"),
    "compose-dot": ("compose", "--format", "dot"),
    "reqs-factors": ("reqs", "--show-factors"),
    "reqs-json": ("reqs", "--format", "json"),
    "check-strict": ("check", "--strict"),
    "check-strict-json": ("check", "--strict", "--format", "json"),
    "check-weak": ("check", "--weak"),
    "check-weak-json": ("check", "--weak", "--format", "json"),
    "verify": ("verify",),
    "verify-json": ("verify", "--format", "json"),
}
ACCESS_COMMANDS = {
    "examples": ("examples",),
    "project-lock": ("project", "-p", "lock"),
    "project-lock-json": ("project", "-p", "lock", "--format", "json"),
    "project-lock-dot": ("project", "-p", "lock", "--format", "dot"),
    "reqs-lock": ("reqs", "-p", "lock"),
    "reqs-lock-json": ("reqs", "-p", "lock", "--format", "json"),
    "check-lock": ("check", "-p", "lock"),
    "check-lock-json": ("check", "-p", "lock", "--format", "json"),
    "check-lock-weak": ("check", "-p", "lock", "--weak"),
    "check-unlock-weak": ("check", "-p", "unlock", "--weak"),
    "check-unlock-weak-json": ("check", "-p", "unlock", "--weak", "--format", "json"),
    "check-max-states-json": ("check", "--max-states", "3", "--format", "json"),
}
ARGV = {**COMMANDS, **ACCESS_COMMANDS}
# Whole command lines that argparse answers itself: help, version and usage
# errors, and the abbreviated and `=`-joined spellings that it accepts.
PARSER_COMMANDS = {
    "no-command": (),
    "help": ("--help",),
    "check-help": ("check", "--help"),
    "version": ("--version",),
    "check-format-xml": ("check", "--format", "xml", "access_management.feta"),
    "check-strict-weak": ("check", "--strict", "--weak", "access_management.feta"),
    "check-max-states-negative": ("check", "--max-states", "-3", "access_management.feta"),
    "check-max-states-x": ("check", "--max-states", "x", "access_management.feta"),
    "project-no-product": ("project", "access_management.feta"),
    "check-form-json": ("check", "--form", "json", "access_management.feta"),
    "check-format-joined-json": ("check", "--format=json", "access_management.feta"),
}
# Help is wrapped to the terminal's width, which COLUMNS sets.
COLUMNS = "80"
SCALED = ("acc4", "product_family_v08", "free4")
SCALED_COMMANDS = (
    "feta", "feta-json", "feta-dot", "feta-dot-reqs",
    "compose", "compose-json", "compose-dot",
    "reqs-factors", "check-strict", "check-weak-json", "verify",
    "project-lock", "project-lock-json", "project-lock-dot",
)
# The largest input kept, for its `feta` counts only (about 0.4 s).
ACC6_COMMANDS = ("feta",)
INPUT_FILES = (*SCALED, "acc6")
CASES = (
    [(example, command) for example in EXAMPLES for command in COMMANDS]
    + [("access_management", command) for command in ACCESS_COMMANDS]
    + [(example, command) for example in SCALED for command in SCALED_COMMANDS]
    + [("acc6", command) for command in ACC6_COMMANDS]
    + [("access_management", command) for command in PARSER_COMMANDS]
)


def run_case(example: str, command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command on one input."""
    if command in PARSER_COMMANDS:
        argv = list(PARSER_COMMANDS[command])
    else:
        argv = [*ARGV[command], f"{example}.feta"]
    folder = INPUTS if example in INPUT_FILES else resources.files("feta") / "examples"
    out, err = io.StringIO(), io.StringIO()
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(folder)
    os.environ["COLUMNS"] = COLUMNS
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads(EXIT_CODES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("example,command", CASES)
def test_output_matches_the_golden_file(example, command, exit_codes):
    code, out, err = run_case(example, command)
    stem = f"{example}.{command}"
    assert out == (GOLDEN / f"{stem}.out").read_text(encoding="utf-8")
    err_file = GOLDEN / f"{stem}.err"
    assert err == (err_file.read_text(encoding="utf-8") if err_file.exists() else "")
    assert code == exit_codes[stem]


def _subcommand_formats() -> dict[str, tuple[str, ...]]:
    """Each command of the CLI's command table with its `--format` choices ("text" if none)."""
    return {name: formats or ("text",) for name, (_, _, formats, _) in cli._COMMANDS.items()}


def _case_format(argv: tuple[str, ...]) -> tuple[str, str]:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
    return argv[0], fmt


def test_every_subcommand_and_format_has_a_golden_case():
    recorded = {_case_format(ARGV[command]) for _, command in CASES if command in ARGV}
    wanted = {
        (name, fmt) for name, formats in _subcommand_formats().items() for fmt in formats
    }
    assert wanted - recorded == set()
    assert recorded - wanted == set()


def test_every_golden_command_line_but_examples_is_read_without_argparse():
    """The command lines of the goldens but `examples` are plain: `cli._read`
    reads them, and argparse is not built."""
    for command, argv in ARGV.items():
        if argv[0] != "examples":
            assert cli._read([*argv, "x.feta"]) is not None, command


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.err"):
        old.unlink()
    codes = {}
    for example, command in CASES:
        code, out, err = run_case(example, command)
        stem = f"{example}.{command}"
        (GOLDEN / f"{stem}.out").write_text(out, encoding="utf-8")
        if err:
            (GOLDEN / f"{stem}.err").write_text(err, encoding="utf-8")
        codes[stem] = code
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
