"""A fixed amount of pure-Python work against which the benchmark scales its times.

    python3 -I perfbench/reference.py

It explores the product of seven small counters breadth-first, with the
tuple, dict, set and deque work that dominates feta's own analyses, and
prints what it found. It imports nothing from feta, so no change to the
program moves its time; only the speed of the machine does.
"""

from __future__ import annotations

import itertools
from collections import deque

COUNTERS = 7
MODULUS = 3


def explore() -> tuple[int, int, int]:
    """States, transitions and distinct state contents of the product."""
    step = {(a, d): (a + d) % MODULUS for a in range(MODULUS) for d in range(3)}
    start = (0,) * COUNTERS
    seen = {start: 0}
    queue = deque([start])
    transitions = 0
    while queue:
        state = queue.popleft()
        for i, j in itertools.combinations(range(COUNTERS), 2):
            for d in range(2):
                succ = list(state)
                succ[i] = step[(state[i], d)]
                succ[j] = step[(state[j], d + 1)]
                succ = tuple(succ)
                transitions += 1
                if succ not in seen:
                    seen[succ] = len(seen)
                    queue.append(succ)
    contents: dict = {}
    for state, index in seen.items():
        contents.setdefault(frozenset(state), []).append(index)
    return len(seen), transitions, len(contents)


if __name__ == "__main__":
    print(*explore())
