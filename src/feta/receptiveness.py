"""Receptiveness of one team: are willing senders ever left hanging?

At every reachable team state, any group of components that is locally ready
to send an action the specification expects to be received forms a
receptiveness requirement. The team complies with a requirement if it can
let exactly that group send to at least one receiver right away; it complies
weakly if the rest of the team can first do some finite warm-up that does
not involve the group, after which the send goes through. A team is
receptive when every requirement is met, in the strict or the weak sense.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple

from .automata import Lts, state_key
from .errors import Budget, SpecificationError
from .synctypes import SyncTypeSpec
from .system import System

STRICT = "strict"
WEAK = "weak"

COMPLIANT = "compliant"
WEAKLY_COMPLIANT = "weakly-compliant"
FEATURED_COMPLIANT = "featured-compliant"
FEATURED_WEAKLY_COMPLIANT = "featured-weakly-compliant"
VIOLATED = "violated"


class Requirement(namedtuple("Requirement", "state senders action")):
    """A group of ready senders and the action they want received, at a state."""

    __slots__ = ()

    def sort_key(self):
        return (state_key(self.state), self.action, tuple(sorted(self.senders)))

    def __str__(self) -> str:
        group = ",".join(sorted(self.senders))
        st = "(" + ",".join(self.state) + ")"
        return f"rcp({{{group}}}, {self.action}) @ {st}"


class ComplianceVerdict(namedtuple("ComplianceVerdict", "requirement status witness")):
    """How one requirement fared; the witness is a path ending in the send."""

    __slots__ = ()


class ReceptivenessReport(namedtuple("ReceptivenessReport", "mode entries warnings")):
    """The verdict of every requirement of a team or a family in one mode, and the notes."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return not self.violations

    @property
    def violations(self) -> tuple:
        """Strict: all but the (featured-)compliant entries; weak: the violated ones."""
        if self.mode == STRICT:
            return tuple(e for e in self.entries if e.status not in (COMPLIANT, FEATURED_COMPLIANT))
        return tuple(e for e in self.entries if e.status == VIOLATED)


def _check_mode(mode: str) -> None:
    if mode not in (STRICT, WEAK):
        raise SpecificationError(f"unknown receptiveness mode {mode!r}")


def ready_senders(sys, state: tuple, action: str, budget: Budget = Budget()) -> list[str]:
    """Components that output the action and are locally ready for it, guards aside."""
    ready = [
        name
        for idx, name in enumerate(sys.names)
        if action in sys.components[name].outputs
        and sys.components[name].enabled(state[idx], action)
    ]
    budget.check("participants", len(ready), f"ready senders of {action!r}")
    return ready


def derive_requirements(
    team: Lts,
    spec: SyncTypeSpec,
    sys: System,
    budget: Budget = Budget(),
) -> tuple[Requirement, ...]:
    """All requirements at the team's reachable states.

    A group qualifies when each member outputs the action and is locally
    ready for it, the group size fits the action's sender interval, and the
    receiver interval does not admit zero receivers (otherwise nobody owes
    the group a reception).
    """
    out: list[Requirement] = []
    actions = sorted(sys.actions)
    for q in sorted(team.reachable(), key=state_key):
        for action in actions:
            st = spec.for_action(action)
            if st.receivers.contains(0):
                continue
            ready = ready_senders(sys, q, action, budget)
            for size in range(1, len(ready) + 1):
                if not st.senders.contains(size):
                    continue
                for group in itertools.combinations(ready, size):
                    out.append(Requirement(q, frozenset(group), action))
    out.sort(key=Requirement.sort_key)
    return tuple(out)


def sends(transition, req) -> bool:
    """Whether the transition lets exactly the requirement's group send to someone."""
    label = transition[1]
    return label.action == req.action and label.senders == req.senders and bool(label.receivers)


def search_weak_compliance(req: Requirement, successors) -> ComplianceVerdict:
    """Breadth-first search for a group-free warm-up after which the send works.

    `successors(state)` gives the transitions leaving a state, in order.
    Only the requirement's state, senders and action are read, so a family
    requirement serves as well. Returns the shortest witness path; a
    requirement met immediately counts as compliant with an empty warm-up.
    """
    parents: dict = {req.state: None}
    queue = deque((req.state,))
    while queue:
        state = queue.popleft()
        steps = successors(state)
        witness = next((t for t in steps if sends(t, req)), None)
        if witness is not None:
            path = [witness]
            cursor = state
            while parents[cursor] is not None:
                step = parents[cursor]
                path.append(step)
                cursor = step[0]
            path.reverse()
            status = COMPLIANT if len(path) == 1 else WEAKLY_COMPLIANT
            return ComplianceVerdict(req, status, tuple(path))
        for t in steps:
            if t[1].participants() & req.senders:
                continue
            if t[2] not in parents:
                parents[t[2]] = t
                queue.append(t[2])
    return ComplianceVerdict(req, VIOLATED, None)


def check_weak_compliance(team: Lts, req: Requirement) -> ComplianceVerdict:
    """The shortest group-free warm-up in the team after which the send works."""
    return search_weak_compliance(req, team.successors_from)


def check_receptiveness(
    team: Lts,
    spec: SyncTypeSpec,
    sys: System,
    mode: str = STRICT,
    budget: Budget = Budget(),
) -> ReceptivenessReport:
    """Verdict over all requirements, in strict or weak mode."""
    _check_mode(mode)
    warnings_: list[str] = []
    if not team.initial:
        warnings_.append("team has no initial states; receptiveness holds vacuously")
    # One search per requirement in either mode: its first step is the strict
    # check, and a strict report reads a weakly compliant entry as violated.
    requirements = derive_requirements(team, spec, sys, budget)
    entries = tuple(check_weak_compliance(team, req) for req in requirements)
    return ReceptivenessReport(mode, entries, tuple(warnings_))
