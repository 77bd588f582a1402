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
import math
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from operator import itemgetter

from .automata import Component, FeaturedComponent, state_key
from .errors import Budget, SpecificationError
from .features import FeatureExpr, FeatureSpace, Product, product_set_expr, products_in
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
        # Labels sort transitions, so the sort key is worked out once.
        init_field(self, "_sort_key", (action, tuple(sorted(senders)), tuple(sorted(receivers))))

    def _key(self) -> tuple:
        return (self.senders, self.action, self.receivers)

    def participants(self) -> frozenset[str]:
        return self.senders | self.receivers

    def sort_key(self):
        return self._sort_key

    def __str__(self) -> str:
        return (
            "{" + ",".join(sorted(self.senders)) + "} "
            + self.action
            + " {" + ",".join(sorted(self.receivers)) + "}"
        )


class SystemTransition(namedtuple("SystemTransition", "source label target")):
    """One induced system step; compares and hashes like its plain triple."""

    __slots__ = ()

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


class ClosureReport(namedtuple("ClosureReport", "missing_senders missing_receivers")):
    """Which actions lack a potential sender or receiver somewhere in the system."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not (self.missing_senders or self.missing_receivers)


def _subsets(items):
    items = tuple(items)
    for size in range(len(items) + 1):
        yield from itertools.combinations(items, size)


def _picker(indices):
    """The function taking a tuple to its items at the indices, as a tuple:
    a label class's key, read off a state."""
    if len(indices) == 1:
        (idx,) = indices
        return lambda state: (state[idx],)
    return itemgetter(*indices) if indices else lambda state: ()


def _local_steps(comp) -> dict:
    """The component's local state -> action -> targets sorted by `state_key`."""
    row: dict = {q: {} for q in comp.states}
    for src, act, dst in comp.transitions:
        row[src].setdefault(act, []).append(dst)
    for by_action in row.values():
        for act, dests in by_action.items():
            by_action[act] = sorted(dests, key=state_key)
    return row


class _StepTable:
    """What composition reads of a system's components, worked out once.

    `steps` holds per component, in name order, its `_local_steps`; `plan`
    holds per action, in sorted order, the (index, sends) pairs of the
    components whose alphabet has it and the text of its participants check.
    Labels are shared per (action, senders, receivers), and `pattern` keeps
    the labels of each set of ready participants in sort-key order, so that
    composition needs no sort. `involved` maps each label made so far to the
    `_picker` of its participants' indices. Only `steps` reads the
    components' transitions; the rest depends on the names and alphabets
    alone (`with_steps`).
    """

    def __init__(self, names: tuple[str, ...], components) -> None:
        self.names = names
        self.components = components
        self.steps = [_local_steps(comp) for comp in components]
        self.plan = tuple(
            (
                action,
                tuple(
                    (idx, action in comp.outputs)
                    for idx, comp in enumerate(components)
                    if action in comp.actions
                ),
                f"ready participants of {action!r}",
            )
            for action in sorted(frozenset().union(*(comp.actions for comp in components)))
        )
        self._choices: dict[tuple, tuple[SystemLabel, tuple[int, ...]]] = {}
        self.involved: dict = {}
        self._patterns: dict[tuple, tuple] = {}

    def with_steps(self, components) -> _StepTable:
        """The table of other components under the same names with the same
        alphabets and input/output splits: their own `steps`, and this
        table's `plan`, labels and patterns, shared and filled by both.
        """
        table = _StepTable.__new__(_StepTable)
        table.__dict__.update(self.__dict__)
        table.components = components
        table.steps = [_local_steps(comp) for comp in components]
        return table

    def choice(self, action: str, senders: tuple[int, ...], receivers: tuple[int, ...]):
        """The label of these participants' indices, with the indices in
        ascending order; one shared pair per (action, senders, receivers).
        """
        key = (action, senders, receivers)
        if key not in self._choices:
            label = SystemLabel(
                frozenset(self.names[i] for i in senders),
                action,
                frozenset(self.names[i] for i in receivers),
            )
            indices = tuple(sorted(senders + receivers))
            self.involved[label] = _picker(indices)
            self._choices[key] = (label, indices)
        return self._choices[key]

    def pattern(self, action: str, senders: tuple[int, ...], receivers: tuple[int, ...]):
        """The `choice` of every nonempty subset of these ready senders and
        receivers, in label sort-key order.
        """
        key = (action, senders, receivers)
        if key not in self._patterns:
            chosen = sorted(
                (
                    self.choice(action, s, r)
                    for s in _subsets(senders)
                    for r in _subsets(receivers)
                    if s or r
                ),
                key=lambda pair: pair[0].sort_key(),
            )
            self._patterns[key] = tuple(chosen)
        return self._patterns[key]

    def refuse(self, state: tuple, rows: list, budget: Budget) -> None:
        """Make `_ready_labels`'s checks of the state without walking its
        labels: per action in order, the participants check, raising first
        as the first unknown local state does in a component's
        `successors_from` (a row is None for an unknown local state).
        """
        for action, takers, counted in self.plan:
            ready = 0
            for idx, _ in takers:
                if rows[idx] is None:
                    self.components[idx].successors_from(state[idx])
                ready += action in rows[idx]
            budget.check("participants", ready, counted)


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

    @cached_property
    def _step_table(self) -> _StepTable:
        return _StepTable(self.names, [self.components[n] for n in self.names])

    def _ready_labels(self, state: tuple, budget: Budget = Budget(), keep=None):
        """Per label that the state enables and `keep` (if given) accepts, in
        sort-key order: the label, its participants' indices in ascending
        order and, per participant, its targets sorted by `state_key`; the
        one per-state label walk, of `successors` and of the featured
        teams' masks.

        The arity, unknown-state and per-action participants checks raise as
        the components' own `successors_from` would, in action order,
        whatever `keep` says.
        """
        if len(state) != len(self.names):
            raise SpecificationError(f"state {state!r} has wrong arity")
        table = self._step_table
        rows = [steps.get(local) for steps, local in zip(table.steps, state)]
        if None in rows:
            table.refuse(state, rows, budget)
        for action, takers, counted in table.plan:
            senders, receivers = [], []
            for idx, sends in takers:
                if action in rows[idx]:
                    (senders if sends else receivers).append(idx)
            ready = len(senders) + len(receivers)
            if ready > budget.participants:
                budget.check("participants", ready, counted)
            if not ready:
                continue
            for label, involved in table.pattern(action, tuple(senders), tuple(receivers)):
                if keep is None or keep(label):
                    yield label, involved, [rows[idx][action] for idx in involved]

    def _label_classes(self, states: tuple, budget: Budget = Budget()):
        """Every label class of the induced transitions over the full
        product `states` (`_full_states`), without walking a state: per
        action in sorted order, per label of the takers ready at some local
        state (in sort-key order), per choice of the participants' local
        steps, the label, its participants' indices, their local sources and
        targets, and the class's size.

        A transition's class is its label and its participants' local steps.
        Over the full product the idle components take every combination of
        their states, so each class holds exactly those transitions, as many
        as the product of the idle components' state counts, and every label
        of the ready takers occurs. `budget.participants` is refused as
        `successors` of each state in order refuses it, at the first (state,
        action); the states are scanned for it (`_StepTable.refuse`) only
        when some action's takers ready somewhere exceed the bound.
        """
        table = self._step_table
        if not states:
            return
        somewhere = [
            (action, [
                (idx, sends) for idx, sends in takers
                if any(action in row for row in table.steps[idx].values())
            ])
            for action, takers, _ in table.plan
        ]
        if any(len(ready) > budget.participants for _, ready in somewhere):
            for state in states:
                table.refuse(state, [table.steps[i][q] for i, q in enumerate(state)], budget)
        counts = [len(self.components[name].states) for name in self.names]
        for action, ready in somewhere:
            senders = tuple(idx for idx, sends in ready if sends)
            receivers = tuple(idx for idx, sends in ready if not sends)
            for label, involved in table.pattern(action, senders, receivers):
                steps = [
                    [(src, dst) for src, row in table.steps[idx].items() for dst in row.get(action, ())]
                    for idx in involved
                ]
                size = len(states) // math.prod(counts[idx] for idx in involved)
                for combo in itertools.product(*steps):
                    sources, targets = tuple(s for s, _ in combo), tuple(d for _, d in combo)
                    yield label, involved, sources, targets, size

    def successors(self, state: tuple, budget: Budget = Budget()) -> tuple[SystemTransition, ...]:
        """All induced transitions from the state, in deterministic order:
        per action in sorted order, every nonempty choice of locally ready
        senders and receivers, each moving to one of its targets, by label
        sort key, then by target.

        One transition per label of `_ready_labels` and choice of its
        participants' targets. No sort is needed: labels come in key order,
        and the targets differ only at the participants, whose sorted
        targets taken in index order give them in `state_key` order.
        """
        out = []
        for label, involved, targets in self._ready_labels(state, budget):
            for combo in itertools.product(*targets):
                moved = list(state)
                for idx, dst in zip(involved, combo):
                    moved[idx] = dst
                out.append(SystemTransition(state, label, tuple(moved)))
        return tuple(out)

    def _full_states(self, budget: Budget = Budget()) -> tuple[tuple, ...]:
        """The whole product of the local state sets, sorted by `state_key`.

        Projections of a featured team must agree with per-product
        composition on the full sets, and `budget.states` bounds that whole
        product.
        """
        budget.check("states", self.state_count(), "states in the full product of local states")
        return tuple(itertools.product(*(list(self.components[n].states) for n in self.names)))

    def state_space(self, budget: Budget = Budget()) -> tuple[tuple, tuple[SystemTransition, ...]]:
        """The full product state set (`_full_states`), not just its reachable
        part, and every induced transition (`_full_transitions`).
        """
        states = self._full_states(budget)
        return states, self._full_transitions(states, budget)

    def _full_transitions(self, states: tuple, budget: Budget = Budget(), keep=None) -> tuple:
        """The induced transitions over the full product `states`
        (`_full_states`) whose label `keep` (if given) accepts: those of
        `successors` of each state in order, with its errors, expanded label
        class by label class (`_label_classes`) instead of walking every
        state's labels.

        The full product numbers its states in mixed radix, so the members
        of a class, which differ only at the idle components, are the states
        at the class's own source and target numbers plus each idle offset
        (the same offsets for every class of a label). Filed under their
        sources, taken in order, they come in transition order: the classes
        come in label order and, from one source, a label's classes in
        `state_key` order of their targets. Sources and targets are the
        tuples of `states` itself.
        """
        counts = [len(self.components[name].states) for name in self.names]
        strides = [math.prod(counts[idx + 1:]) for idx in range(len(counts))]
        number = [
            {local: i * stride for i, local in enumerate(self.components[name].states)}
            for name, stride in zip(self.names, strides)
        ]
        leaving: list[list] = [[] for _ in states]
        last = None
        for label, involved, sources, targets, _ in self._label_classes(states, budget):
            if keep is not None and not keep(label):
                continue
            if label is not last:
                idle = [
                    range(0, counts[idx] * strides[idx], strides[idx])
                    for idx in range(len(counts)) if idx not in involved
                ]
                offsets, last = [sum(choice) for choice in itertools.product(*idle)], label
            src = sum(number[idx][local] for idx, local in zip(involved, sources))
            dst = sum(number[idx][local] for idx, local in zip(involved, targets))
            for offset in offsets:
                leaving[src + offset].append(
                    SystemTransition(states[src + offset], label, states[dst + offset])
                )
        return tuple(itertools.chain.from_iterable(leaving))


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
        self._exprs: dict[int, FeatureExpr] = {}

    def products_expr(self, mask: int) -> FeatureExpr:
        """The expression satisfied by exactly the valid products in the mask,
        one object per mask: the teams' guards and family conditions share it."""
        if mask not in self._exprs:
            chosen = products_in(mask, self.feature_model, self.space)
            self._exprs[mask] = product_set_expr(chosen, self.space)
        return self._exprs[mask]

    def project(self, product: Product) -> System:
        """The plain system of one valid product.

        Projection keeps every component's alphabet and input/output split,
        so the projected system composes with this system's labels and
        patterns (`_StepTable.with_steps`) and only its local steps are new.
        """
        projected = System(
            self.names, {n: self.components[n].project(product) for n in self.names}
        )
        projected._step_table = self._step_table.with_steps(
            [projected.components[n] for n in self.names]
        )
        return projected


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
