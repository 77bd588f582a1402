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
from functools import cached_property
from typing import Mapping

from .errors import InvalidProductError, SpecificationError
from .features import FeatureExpr, FeatureSpace, Product, evaluate, expr_mask, variables


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

    @cached_property
    def _adjacency(self) -> dict:
        out: dict = {q: [] for q in self.states}
        for t in self.transitions:
            out[t[0]].append(t)
        return out

    def successors_from(self, state) -> tuple:
        """Transitions leaving the state, in deterministic order."""
        try:
            return tuple(self._adjacency[state])
        except KeyError:
            raise SpecificationError(f"unknown state {state!r}") from None

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
        frontier = sorted(self.initial, key=state_key)
        while frontier:
            nxt = []
            for q in frontier:
                for _, _, dst in self._adjacency[q]:
                    if dst not in seen:
                        seen.add(dst)
                        nxt.append(dst)
            frontier = sorted(set(nxt), key=state_key)
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

    `masks` holds the guard masks when the builder already has them; they are
    compiled otherwise.
    """

    __match_args__ = Lts.__match_args__ + ("space", "feature_model", "guards")

    def __init__(
        self, states, initial, actions, transitions, space: FeatureSpace,
        feature_model: FeatureExpr, guards: Mapping, *, masks: Mapping | None = None,
    ) -> None:
        super().__init__(states, initial, actions, transitions)
        self.space = space
        self.feature_model = feature_model
        self.guards = dict(guards)
        self.masks = masks
        missing = set(self.transitions) - set(self.guards)
        if missing:
            raise SpecificationError(f"{len(missing)} transitions have no guard")
        for t, g in self.guards.items():
            unknown = variables(g) - set(self.space.names)
            if unknown:
                raise SpecificationError(
                    f"guard of {t!r} references undeclared features {sorted(unknown)}"
                )

    @cached_property
    def guard_masks(self) -> dict:
        """The `expr_mask` of every transition's guard: `masks` if given, else compiled."""
        if self.masks is not None:
            return dict(self.masks)
        return {t: expr_mask(g, self.space) for t, g in self.guards.items()}

    @cached_property
    def reachable_masks(self) -> dict:
        """Per state, the mask of the valid products under which it is reachable.

        One forward fixpoint over all products at once (`reach_masks`): a
        transition carries the products that reach its source and satisfy
        its guard. Unreached states read 0.
        """
        guards = self.guard_masks
        reach = reach_masks(
            self.initial,
            expr_mask(self.feature_model, self.space),
            lambda q: ((t, guards[t]) for t in self._adjacency[q]),
        )
        return {q: reach.get(q, 0) for q in self.states}

    def _check_product(self, product: Product) -> None:
        if product.space != self.space:
            raise InvalidProductError(f"product {product} is over a different feature space")
        if not evaluate(self.feature_model, product):
            raise InvalidProductError(f"product {product} does not satisfy the feature model")

    def _projected_parts(self, product: Product):
        self._check_product(product)
        kept = tuple(t for t in self.transitions if evaluate(self.guards[t], product))
        return self.states, self.initial, self.actions, kept

    def project(self, product: Product) -> Lts:
        """The behaviour of one valid product: same states, guarded transitions kept."""
        return Lts(*self._projected_parts(product))


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
        feature_model: FeatureExpr, guards: Mapping, inputs, outputs, *,
        masks: Mapping | None = None,
    ) -> None:
        super().__init__(
            states, initial, actions, transitions, space, feature_model, guards, masks=masks
        )
        _split_alphabet(self, inputs, outputs)

    def project(self, product: Product) -> Component:
        states, initial, actions, kept = self._projected_parts(product)
        return Component(states, initial, actions, kept, self.inputs, self.outputs)
