"""Spans around the public functions of feta's layers, installed from outside.

The wrappers replace each traced function in every `feta` module namespace
that holds it (the CLI imports most of them by name) and on the classes
that define the traced methods. A span is (name, start, end, parent); spans
stay in memory and are written as JSON when the command ends. A few
observers also count what a call produced, such as the states a composition
materialised, so that ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (span name, module, attribute); a dotted attribute is a method on a class.
TARGETS = (
    ("dsl.elaborate_text", "feta.dsl", "elaborate_text"),
    ("system.state_space", "feta.system", "_ComposeMixin.state_space"),
    ("synctypes.allowed_products", "feta.synctypes", "FeaturedSyncSpec.allowed_products"),
    ("synctypes.validate_total", "feta.synctypes", "FeaturedSyncSpec.validate_total"),
    ("team.build_featured_team", "feta.team", "build_featured_team"),
    ("team.prune_for_display", "feta.team", "prune_for_display"),
    ("team.check_projection_commutes", "feta.team", "check_projection_commutes"),
    ("team.build_team", "feta.team", "build_team"),
    ("automata.project", "feta.automata", "Fts.project"),
    ("automata.reachable", "feta.automata", "Lts.reachable"),
    ("features.evaluate", "feta.features", "evaluate"),
    ("features.is_satisfiable", "feta.features", "is_satisfiable"),
    ("features.entails", "feta.features", "entails"),
    ("features.valid_products", "feta.features", "valid_products"),
    ("features.product_set_expr", "feta.features", "product_set_expr"),
    ("family.derive_family_requirements", "feta.family", "derive_family_requirements"),
    ("family.reachable_products", "feta.family", "reachable_products"),
    ("family.check_family_compliance", "feta.family", "check_family_compliance"),
    ("family.check_family_weak_compliance", "feta.family", "check_family_weak_compliance"),
    ("family.check_family_receptiveness", "feta.family", "check_family_receptiveness"),
    ("family.crosscheck_requirement_projection", "feta.family", "crosscheck_requirement_projection"),
    ("family.crosscheck_compliance_unfolding", "feta.family", "crosscheck_compliance_unfolding"),
    ("family.crosscheck_family_vs_products", "feta.family", "crosscheck_family_vs_products"),
    ("receptiveness.check_receptiveness", "feta.receptiveness", "check_receptiveness"),
    ("receptiveness.check_weak_compliance", "feta.receptiveness", "check_weak_compliance"),
)
# Every public function of the reporting module is traced as well.
REPORTING = "feta.reporting"


def _count_state_space(counts, args, result, parent) -> None:
    states, transitions = result
    counts["system.states"] = counts.get("system.states", 0) + len(states)
    counts["system.transitions"] = counts.get("system.transitions", 0) + len(transitions)


def _count_prune(counts, args, result, parent) -> None:
    full = args[0]
    for key, value in (
        ("team.full_states", len(full.states)),
        ("team.full_transitions", len(full.transitions)),
        ("team.core_states", len(result.states)),
        ("team.core_transitions", len(result.transitions)),
    ):
        counts[key] = counts.get(key, 0) + value


def _count_satisfiable(counts, args, result, parent) -> None:
    # prune_for_display asks once per materialised transition, and
    # derive_family_requirements once per candidate sender group.
    if parent == "team.prune_for_display" and result:
        counts["team.live_transitions"] = counts.get("team.live_transitions", 0) + 1
    elif parent == "family.derive_family_requirements":
        counts["family.candidate_groups"] = counts.get("family.candidate_groups", 0) + 1


def _count_requirements(counts, args, result, parent) -> None:
    counts["family.requirements"] = counts.get("family.requirements", 0) + len(result)


def _count_compliance(counts, args, result, parent) -> None:
    if parent == "family.check_family_receptiveness":
        counts["family.checked_requirements"] = counts.get("family.checked_requirements", 0) + 1


OBSERVERS = {
    "system.state_space": _count_state_space,
    "team.prune_for_display": _count_prune,
    "features.is_satisfiable": _count_satisfiable,
    "family.derive_family_requirements": _count_requirements,
    "family.check_family_compliance": _count_compliance,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._open = [None]

    def wrap(self, name: str, fn):
        spans, stack, open_names, counts = self.spans, self._stack, self._open, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            open_names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
                open_names.pop()
            if observe is not None:
                observe(counts, args, result, open_names[-1])
            return result

        return traced

    def install(self) -> None:
        targets = list(TARGETS)
        reporting = importlib.import_module(REPORTING)
        for attr, value in vars(reporting).items():
            if inspect.isfunction(value) and value.__module__ == REPORTING and not attr.startswith("_"):
                targets.append((f"reporting.{attr}", REPORTING, attr))
        modules = [m for n, m in sys.modules.items() if n == "feta" or n.startswith("feta.")]
        for name, module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)

    def run_cli(self, argv: list[str]) -> int:
        start = time.perf_counter()
        import feta.cli

        self.spans.append(("cli.import", start, time.perf_counter(), -1))
        self.install()
        return feta.cli.main(argv)

    def write(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), start, end, parent]
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows, "counts": self.counts}, fh)
