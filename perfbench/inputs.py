"""Specification generators for the benchmark workloads.

`acc` scales the bundled access-management example by binding more `User`
instances. `product_family` builds a family of fixed size whose structure
is drawn from the seed: which optional-feature role each user plays and
with which polarity. Every draw has the same states, features and products,
and the draws' analysis times differ by less than the run-to-run noise, so
the seed changes the text and the reports but not the amount of work.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

EXAMPLES = Path("src") / "feta" / "examples"
ACCESS_SYSTEM_LINE = "system Access = { u1: User, u2: User, s: Server };"

# How user i's optional feature o<i> guards its automaton. Each family uses
# every role once, so at least two users can always join under unlock and the
# flaky server always leaves a willing sender unserved.
ROLES = ("leave", "join", "confirm")
VARIANTS = tuple(
    (roles, polarity)
    for roles in itertools.permutations(ROLES)
    for polarity in itertools.product((True, False), repeat=len(ROLES))
)


def acc(root: Path, users: int) -> str:
    """The access-management example with `users` User instances."""
    text = (root / EXAMPLES / "access_management.feta").read_text(encoding="utf-8")
    if ACCESS_SYSTEM_LINE not in text:
        raise ValueError("access_management.feta no longer has the expected system line")
    bound = ", ".join(f"u{i}: User" for i in range(1, users + 1))
    return text.replace(ACCESS_SYSTEM_LINE, f"system Access = {{ {bound}, s: Server }};")


def product_variant(seed: int) -> int:
    return random.Random(seed).randrange(len(VARIANTS))


def product_family(variant: int) -> str:
    """Three users and a server over six features and 12 valid products.

    Products with `flaky` drop the server's `join?` under `unlock`, so they
    are not weakly receptive; `lock` products are weakly but not strictly
    receptive, as in the bundled example. Tying `o2` to `o3` halves the
    product count, so that a pass is short enough to repeat several times.
    """
    roles, polarity = VARIANTS[variant]
    users = len(roles)
    lines = [
        "# Generated: access management with optional per-user features and a flaky server.",
        "",
        "features lock, unlock, flaky, " + ", ".join(f"o{i}" for i in range(1, users + 1)) + ";",
        "feature_model (lock xor unlock) && (flaky -> unlock) && (o2 <-> o3);",
    ]
    for i, (role, positive) in enumerate(zip(roles, polarity), start=1):
        opt = f"o{i}" if positive else f"!o{i}"
        guard = {
            "join": ("unlock && " + opt, "lock", ""),
            "confirm": ("unlock", "lock && " + opt, ""),
            "leave": ("unlock", "lock", " when " + opt),
        }[role]
        lines += [
            "",
            f"component User{i} {{",
            "  output join, leave;",
            "  input confirm;",
            "  init 0;",
            "  0 -> 1 by join! when lock;",
            f"  0 -> 2 by join! when {guard[0]};",
            f"  1 -> 2 by confirm? when {guard[1]};",
            f"  2 -> 0 by leave!{guard[2]};",
            "}",
        ]
    bound = ", ".join(f"u{i}: User{i}" for i in range(1, users + 1))
    lines += [
        "",
        "component Server {",
        "  input join, leave;",
        "  output confirm;",
        "  init 0;",
        "  0 -> 1 by join? when lock;",
        "  0 -> 0 by join? when unlock && !flaky;",
        "  0 -> 0 by leave?;",
        "  1 -> 0 by confirm! when lock;",
        "}",
        "",
        f"system Access = {{ {bound}, s: Server }};",
        "",
        "sync {",
        "  confirm: [1,1] -> [1,1];",
        "  join, leave: [1,1] -> [1,1] when lock;",
        "  join, leave: [1,*] -> [1,1] when unlock;",
        "}",
    ]
    return "\n".join(lines) + "\n"
