"""Claims the README makes about the library API, checked against the package."""

import inspect
import re
from pathlib import Path

import feta
from feta import Budget

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
    assert len(named) == 41
    missing = sorted(name for name in named if not hasattr(feta, name))
    assert not missing
