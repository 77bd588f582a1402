"""Systems of named components and their induced transition relation.

A system binds an ordered list of names to component automata. A system
state is the tuple of local states in name order. A system label (S, a, R)
records which named components jointly take action a, the senders S drawn
from components that output a and the receivers R from components that input
a; at least one participant is required, and a component never appears on
both sides because its alphabet split is disjoint.

The induced relation contains every combination of participants that are
locally ready, including sender-only and receiver-only labels. Which of
those survive into a team is decided later by a synchronisation type
specification; composition itself is purely syntactic, so the featured
variant composes exactly like the plain one and guards are handled by the
team builder.
"""

from __future__ import annotations

import itertools
from typing import Mapping, NamedTuple

from .automata import Component, FeaturedComponent, state_key
from .errors import Budget, SpecificationError
from .features import FeatureExpr, FeatureSpace, Product
from .values import Value, init_field


class SystemLabel(Value):
    """A synchronising label: senders, one action, receivers."""

    __match_args__ = ("senders", "action", "receivers")

    def __init__(self, senders: frozenset[str], action: str, receivers: frozenset[str]) -> None:
        if not (senders or receivers):
            raise SpecificationError("a system label needs at least one participant")
        if senders & receivers:
            raise SpecificationError("a component cannot send and receive the same action")
        init_field(self, "senders", senders)
        init_field(self, "action", action)
        init_field(self, "receivers", receivers)

    def _key(self) -> tuple:
        return (self.senders, self.action, self.receivers)

    def participants(self) -> frozenset[str]:
        return self.senders | self.receivers

    def sort_key(self):
        return (self.action, tuple(sorted(self.senders)), tuple(sorted(self.receivers)))

    def __str__(self) -> str:
        return (
            "{" + ",".join(sorted(self.senders)) + "} "
            + self.action
            + " {" + ",".join(sorted(self.receivers)) + "}"
        )


class SystemTransition(NamedTuple):
    """One induced system step; compares and hashes like its plain triple."""

    source: tuple
    label: SystemLabel
    target: tuple

    @property
    def action(self) -> str:
        return self.label.action

    @property
    def senders(self) -> frozenset[str]:
        return self.label.senders

    @property
    def receivers(self) -> frozenset[str]:
        return self.label.receivers

    def __str__(self) -> str:
        src = "(" + ",".join(self.source) + ")"
        dst = "(" + ",".join(self.target) + ")"
        return f"{src} --{self.label}--> {dst}"


class ClosureReport(NamedTuple):
    """Which actions lack a potential sender or receiver somewhere in the system."""

    missing_senders: tuple[str, ...]
    missing_receivers: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not (self.missing_senders or self.missing_receivers)


def _subsets(items):
    items = tuple(items)
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


class _ComposeMixin:
    """Shared composition machinery for plain and featured systems."""

    def component(self, name: str):
        try:
            return self.components[name]
        except KeyError:
            raise SpecificationError(f"unknown component name {name!r}") from None

    @property
    def actions(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for name in self.names:
            out |= self.components[name].actions
        return out

    def initial_states(self) -> frozenset[tuple]:
        return frozenset(
            itertools.product(*(sorted(self.components[n].initial) for n in self.names))
        )

    def state_count(self) -> int:
        count = 1
        for name in self.names:
            count *= len(self.components[name].states)
        return count

    def validate_closed(self) -> ClosureReport:
        """Check that every action can be sent and received somewhere."""
        no_sender, no_receiver = [], []
        for action in sorted(self.actions):
            if not any(action in self.components[n].outputs for n in self.names):
                no_sender.append(action)
            if not any(action in self.components[n].inputs for n in self.names):
                no_receiver.append(action)
        return ClosureReport(tuple(no_sender), tuple(no_receiver))

    def successors(self, state: tuple, budget: Budget = Budget()) -> tuple[SystemTransition, ...]:
        """All induced transitions from the state, in deterministic order."""
        if len(state) != len(self.names):
            raise SpecificationError(f"state {state!r} has wrong arity")
        local = dict(zip(self.names, state))
        out: list[SystemTransition] = []
        for action in sorted(self.actions):
            targets: dict[str, list] = {}
            senders, receivers = [], []
            for name in self.names:
                comp = self.components[name]
                if action not in comp.actions:
                    continue
                dests = sorted(
                    (dst for src, act, dst in comp.successors_from(local[name]) if act == action),
                    key=state_key,
                )
                if not dests:
                    continue
                targets[name] = dests
                (senders if action in comp.outputs else receivers).append(name)
            budget.check(
                "participants", len(senders) + len(receivers), f"ready participants of {action!r}"
            )
            for chosen_s in _subsets(senders):
                for chosen_r in _subsets(receivers):
                    involved = chosen_s + chosen_r
                    if not involved:
                        continue
                    label = SystemLabel(frozenset(chosen_s), action, frozenset(chosen_r))
                    for combo in itertools.product(*(targets[n] for n in involved)):
                        moved = dict(zip(involved, combo))
                        target = tuple(moved.get(n, local[n]) for n in self.names)
                        out.append(SystemTransition(state, label, target))
        out.sort(key=lambda t: (t.label.sort_key(), state_key(t.target)))
        return tuple(out)

    def state_space(self, budget: Budget = Budget()) -> tuple[tuple, tuple[SystemTransition, ...]]:
        """The full product state set and every induced transition.

        The state set is the whole product of the local state sets, not just
        its reachable part; projections of a featured team must agree with
        per-product composition on the full sets, and `budget.states` bounds
        that whole product.
        """
        budget.check("states", self.state_count(), "states in the full product of local states")
        states = tuple(
            itertools.product(*(list(self.components[n].states) for n in self.names))
        )
        transitions: list[SystemTransition] = []
        for q in states:
            transitions.extend(self.successors(q, budget))
        return states, tuple(transitions)


class System(_ComposeMixin):
    """An ordered family of plain component automata."""

    __match_args__ = ("names", "components")

    def __init__(self, names: tuple[str, ...], components: Mapping[str, Component]) -> None:
        self.names = tuple(names)
        self.components = dict(components)
        _check_bindings(self.names, self.components, Component)


class FeaturedSystem(_ComposeMixin):
    """An ordered family of featured components over one shared feature model."""

    __match_args__ = ("names", "components", "space", "feature_model")

    def __init__(
        self, names: tuple[str, ...], components: Mapping[str, FeaturedComponent],
        space: FeatureSpace, feature_model: FeatureExpr,
    ) -> None:
        self.names = tuple(names)
        self.components = dict(components)
        self.space = space
        self.feature_model = feature_model
        _check_bindings(self.names, self.components, FeaturedComponent)
        for name in self.names:
            comp = self.components[name]
            if comp.space != self.space or comp.feature_model != self.feature_model:
                raise SpecificationError(
                    f"component {name!r} does not share the system's feature space and model"
                )

    def project(self, product: Product) -> System:
        """The plain system of one valid product."""
        return System(
            self.names, {n: self.components[n].project(product) for n in self.names}
        )


def _check_bindings(names, components, kind) -> None:
    if not names:
        raise SpecificationError("a system needs at least one component")
    if len(set(names)) != len(names):
        raise SpecificationError("duplicate component names in the system")
    if set(names) != set(components):
        raise SpecificationError("system names and component bindings do not match")
    for name in names:
        if not isinstance(components[name], kind):
            raise SpecificationError(f"component {name!r} has the wrong automaton kind")
