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
    assert len(named) == 11
    for name in named:
        target = feta
        for part in name.split("."):
            target = getattr(target, part)
        last = list(inspect.signature(target).parameters.values())[-1]
        assert (last.name, last.default) == ("budget", Budget()), name
