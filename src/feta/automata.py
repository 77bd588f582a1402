"""Transition-system core: plain and featured automata.

An `Lts` is a labelled transition system: states, initial states, an action
alphabet and a set of (source, label, target) triples. An `Fts` attaches a
feature space, a feature model and a guard (feature expression) to every
transition; projecting it onto a product keeps exactly the transitions whose
guard the product satisfies, over the unchanged state set.

Component automata split the alphabet into inputs and outputs. Composite
automata built in `system` and `team` reuse these classes with tuple states
and structured labels.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from functools import cache, cached_property

from .errors import InvalidProductError, SpecificationError
from .features import (
    FeatureExpr, FeatureSpace, Product, evaluate, expr_mask, holds, model_mask, variables,
)


def state_key(state):
    """Sort key usable for both plain state names and composite state tuples."""
    return state if isinstance(state, tuple) else (state,)


def label_key(label):
    """Sort key usable for both action names and structured labels."""
    sort = getattr(label, "sort_key", None)
    return sort() if callable(sort) else (label, (), ())


def transition_key(transition):
    src, label, dst = transition
    return (state_key(src), label_key(label), state_key(dst))


def label_action(label) -> str:
    """The action name of a transition label (the label itself for components)."""
    return getattr(label, "action", label)


class Lts:
    """A labelled transition system over hashable states and labels."""

    __match_args__ = ("states", "initial", "actions", "transitions")

    def __init__(self, states, initial, actions, transitions) -> None:
        """Sort, de-duplicate and check a caller's parts."""
        self.states = tuple(sorted(set(states), key=state_key))
        self.initial = frozenset(initial)
        self.actions = frozenset(actions)
        self.transitions = tuple(sorted(set(transitions), key=transition_key))
        known = set(self.states)
        if not self.initial <= known:
            raise SpecificationError(f"initial states {sorted(self.initial - known, key=state_key)} not declared")
        for src, label, dst in self.transitions:
            if src not in known or dst not in known:
                raise SpecificationError(f"transition {src} -> {dst} uses undeclared states")
            if label_action(label) not in self.actions:
                raise SpecificationError(f"transition uses undeclared action {label_action(label)!r}")

    @classmethod
    def _built(cls, states: tuple, initial, actions, transitions: tuple):
        """An automaton from a builder's own parts, taken as they are.

        The builder guarantees what `__init__` would sort and check: `states`
        sorted by `state_key`, `transitions` strictly increasing by
        `transition_key`, with declared endpoints and actions.
        """
        made = cls.__new__(cls)
        made.states, made.transitions = states, transitions
        made.initial, made.actions = frozenset(initial), frozenset(actions)
        return made

    @cached_property
    def _adjacency(self) -> dict:
        out: dict = {q: [] for q in self.states}
        for t in self.transitions:
            out[t[0]].append(t)
        return {q: tuple(leaving) for q, leaving in out.items()}

    def successors_from(self, state) -> tuple:
        """Transitions leaving the state, in deterministic order."""
        try:
            return self._adjacency[state]
        except KeyError:
            raise SpecificationError(f"unknown state {state!r}") from None

    @cached_property
    def _sends(self) -> dict:
        """A team's transitions that let a group send to at least one
        receiver, grouped by (source, senders, action), each group in
        transition order."""
        groups: dict = {}
        for t in self.transitions:
            label = t[1]
            if label.receivers:
                groups.setdefault((t[0], label.senders, label.action), []).append(t)
        return groups

    def enabled(self, state, label) -> bool:
        """Whether some transition from the state carries the label.

        For component automata the label is the action name; a name outside
        the alphabet is simply not enabled.
        """
        if state not in self._adjacency:
            raise SpecificationError(f"unknown state {state!r}")
        return any(t[1] == label for t in self._adjacency[state])

    def reachable(self) -> frozenset:
        """States reachable from the initial states."""
        seen = set(self.initial)
        pending = list(seen)
        while pending:
            for _, _, dst in self._adjacency[pending.pop()]:
                if dst not in seen:
                    seen.add(dst)
                    pending.append(dst)
        return frozenset(seen)


def _split_alphabet(automaton, inputs, outputs) -> None:
    automaton.inputs = frozenset(inputs)
    automaton.outputs = frozenset(outputs)
    overlap = automaton.inputs & automaton.outputs
    if overlap:
        raise SpecificationError(f"actions {sorted(overlap)} declared both input and output")
    if automaton.inputs | automaton.outputs != automaton.actions:
        raise SpecificationError("alphabet must equal inputs plus outputs")


class Component(Lts):
    """A component automaton: an LTS whose alphabet is split into inputs and outputs."""

    __match_args__ = Lts.__match_args__ + ("inputs", "outputs")

    def __init__(self, states, initial, actions, transitions, inputs, outputs) -> None:
        super().__init__(states, initial, actions, transitions)
        _split_alphabet(self, inputs, outputs)


class Fts(Lts):
    """A featured LTS: every transition carries a feature-expression guard.

    Guards a caller passes are checked against `space`, and their masks are
    compiled from them when first read. A builder's team (`_built`) keeps
    the builder's guard and mask functions instead: its guards are correct
    by construction, each made when first asked for (`_guard`), its masks
    are read state by state (`_leaving`), and `guards` and `guard_masks`
    are only made when first read in full.
    """

    __match_args__ = Lts.__match_args__ + ("space", "feature_model", "guards")

    def __init__(
        self, states, initial, actions, transitions, space: FeatureSpace,
        feature_model: FeatureExpr, guards: Mapping,
    ) -> None:
        super().__init__(states, initial, actions, transitions)
        self.space = space
        self.feature_model = feature_model
        self.guards = dict(guards)
        missing = set(self.transitions) - set(self.guards)
        if missing:
            raise SpecificationError(f"{len(missing)} transitions have no guard")
        for t, g in self.guards.items():
            unknown = variables(g) - self.space.name_set
            if unknown:
                raise SpecificationError(
                    f"guard of {t!r} references undeclared features {sorted(unknown)}"
                )

    @classmethod
    def _built(
        cls, states: tuple, initial, actions, transitions: tuple, space: FeatureSpace,
        feature_model: FeatureExpr, guard, leaving,
    ):
        """A featured automaton from a builder's own parts, taken as they are.

        Besides `Lts._built`'s order: `guard(transition)` returns a guard made
        from parts already checked against `space`, and `leaving(state)`
        lists the state's transitions whose guard mask is not 0, each with
        its mask, in transition order. They replace `_guard` and `_leaving`.
        """
        made = super()._built(states, initial, actions, transitions)
        made.space, made.feature_model = space, feature_model
        made._guard, made._leaving = guard, leaving
        return made

    @cached_property
    def guards(self) -> dict:
        """Every transition's guard. A caller's `__init__` sets its own; a
        builder's team makes it, in transition order, on first read."""
        return {t: self._guard(t) for t in self.transitions}

    def _guard(self, transition) -> FeatureExpr:
        return self.guards[transition]

    @cached_property
    def guard_masks(self) -> dict:
        """The mask of every transition's guard, keyed by the transitions in
        order and worked out on first read: a caller's compiled from its
        guards, a builder's team's read off `_leaving` state by state, with 0
        for every transition it skips."""
        if "_leaving" not in vars(self):
            return {t: expr_mask(g, self.space) for t, g in self.guards.items()}
        masks = {t: mask for q in self.states for t, mask in self._leaving(q)}
        return {t: masks.get(t, 0) for t in self.transitions}

    def _leaving(self, state) -> list:
        """The transitions leaving the state whose guard mask is not 0, each
        with its mask, in transition order."""
        masks = self.guard_masks
        return [(t, masks[t]) for t in self._adjacency[state] if masks[t]]

    @cached_property
    def reachable_masks(self) -> dict:
        """Per state, the mask of the valid products under which it is reachable.

        One forward fixpoint over all products at once (`reach_masks`): a
        transition carries the products that reach its source and satisfy
        its guard. Each reached state's masks are read once (`_leaving`),
        however often it gains products. Unreached states read 0.
        `reachable_featured_team` sets it to the fixpoint that built the team.
        """
        reach = reach_masks(
            self.initial, model_mask(self.feature_model, self.space), cache(self._leaving)
        )
        return {q: reach.get(q, 0) for q in self.states}

    def _projected_parts(self, product: Product):
        """States, initial states, actions and the transitions whose guard the
        product satisfies, in transition order. Every guard names only
        features of `space` (checked by `__init__`, or by construction in
        `_built`), so once the product is known to be over it the guards are
        evaluated unchecked.
        """
        check_product(product, self.space, self.feature_model)
        guard = self._guard
        kept = tuple(t for t in self.transitions if holds(guard(t), product))
        return self.states, self.initial, self.actions, kept

    def project(self, product: Product) -> Lts:
        """The behaviour of one valid product: same states, guarded transitions
        kept, in order.
        """
        return Lts._built(*self._projected_parts(product))


def check_product(product: Product, space: FeatureSpace, feature_model: FeatureExpr) -> None:
    """Refuse a product over another space or outside the feature model."""
    if product.space != space:
        raise InvalidProductError(f"product {product} is over a different feature space")
    if not evaluate(feature_model, product):
        raise InvalidProductError(f"product {product} does not satisfy the feature model")


def reach_masks(initial, seed: int, steps, reached=lambda count: None) -> dict:
    """Per reached state, the mask of the products that reach it from `initial`.

    The initial states start with `seed`; `steps(state)` yields the (transition,
    mask) pairs leaving a state, which a worklist propagates as
    `reach[dst] |= reach[src] & mask` until nothing changes, re-queueing a
    state whenever it gains products. `reached(count)` hears the number of
    states reached, first for the initial states and then for each new one.
    """
    reach = dict.fromkeys(initial, seed)
    reached(len(reach))
    pending = deque(sorted(reach, key=state_key))
    queued = set(pending)
    while pending:
        src = pending.popleft()
        queued.discard(src)
        for t, mask in steps(src):
            dst = t[2]
            gained = reach[src] & mask & ~reach.get(dst, 0)
            if not gained:
                continue
            if dst not in reach:
                reach[dst] = 0
                reached(len(reach))
            reach[dst] |= gained
            if dst not in queued:
                queued.add(dst)
                pending.append(dst)
    return reach


class FeaturedComponent(Fts):
    """A featured component automaton: a featured LTS with an input/output split."""

    __match_args__ = Fts.__match_args__ + ("inputs", "outputs")

    def __init__(
        self, states, initial, actions, transitions, space: FeatureSpace,
        feature_model: FeatureExpr, guards: Mapping, inputs, outputs,
    ) -> None:
        super().__init__(states, initial, actions, transitions, space, feature_model, guards)
        _split_alphabet(self, inputs, outputs)

    def project(self, product: Product) -> Component:
        states, initial, actions, kept = self._projected_parts(product)
        return Component(states, initial, actions, kept, self.inputs, self.outputs)
