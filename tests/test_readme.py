"""Claims the README makes about the library API, checked against the package."""

import inspect
import re
from pathlib import Path

import feta
from feta import Budget, FeaturedClasses, FeaturedSystem, Fts, System, cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_paragraph(opening: str) -> str:
    for paragraph in README.read_text(encoding="utf-8").split("\n\n"):
        if paragraph.startswith(opening):
            return paragraph
    raise AssertionError(f"README has no paragraph opening {opening!r}")


def test_every_budgeted_callable_takes_the_budget_last():
    """Each callable the budget paragraph names resolves from `feta`, and its
    last parameter is `budget: Budget = Budget()`."""
    paragraph = readme_paragraph("Every function that builds or explores under a bound")
    named = re.findall(r"`([\w.]+)\(", paragraph)
    assert len(named) == 12
    for name in named:
        target = feta
        for part in name.split("."):
            target = getattr(target, part)
        last = list(inspect.signature(target).parameters.values())[-1]
        assert (last.name, last.default) == ("budget", Budget()), name


def test_every_building_block_resolves_from_the_package_root():
    """Each name the exports paragraph lists is an attribute of `feta`;
    `verify`, a CLI command named there, is not an export."""
    paragraph = readme_paragraph("The building blocks are exported from the package root")
    named = set(re.findall(r"`(\w+)`", paragraph)) - {"verify"}
    assert len(named) == 40
    missing = sorted(name for name in named if not hasattr(feta, name))
    assert not missing


def test_every_value_type_named_resolves_from_the_package_root():
    """Each identifier the value types paragraph names is an attribute of
    `feta`, but for a declaration's field `loc` and the named tuples'
    `_replace`."""
    paragraph = readme_paragraph("Value types")
    named = set(re.findall(r"`(\w+)`", paragraph)) - {"loc", "_replace"}
    assert len(named) == 17
    missing = sorted(name for name in named if not hasattr(feta, name))
    assert not missing


# The objects the README's calls name by a variable or class: `featured`
# is a `FeaturedClasses`, `fsys` a `FeaturedSystem`, `fts` an `Fts`, `sys`
# a `System`.
RECEIVERS = {
    "featured": FeaturedClasses, "fsys": FeaturedSystem, "fts": Fts, "sys": System,
    "System": System, "cli": cli,
}


def test_every_call_written_names_its_parameters():
    """Each call the README writes with plain arguments, `name(a, b)`,
    names exactly the parameters of what it calls, in order, a method's
    `self` aside; a name resolves through `RECEIVERS` or from `feta`."""
    text = README.read_text(encoding="utf-8")
    calls = re.findall(r"`([A-Za-z_][\w.]*)\(([\w,\s]*)\)`", text)
    assert len(calls) == 25
    wrong = []
    for name, arguments in calls:
        head, _, rest = name.partition(".")
        target = RECEIVERS[head] if head in RECEIVERS else getattr(feta, head)
        for part in filter(None, rest.split(".")):
            target = getattr(target, part)
        parameters = list(inspect.signature(target).parameters)
        if parameters[:1] == ["self"]:
            parameters = parameters[1:]
        if [a.strip() for a in arguments.split(",") if a.strip()] != parameters:
            wrong.append((name, arguments, parameters))
    assert not wrong
