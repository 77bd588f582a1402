"""Rendering helpers shared by the command line: text blocks, JSON payloads, DOT."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .automata import Fts, Lts
from .family import FamilyRequirement
from .features import format_expr, simplified, valid_products
from .receptiveness import ReceptivenessReport, Requirement
from .system import FeaturedSystem, SystemLabel

SCHEMA = "report-v1"


def state_text(state) -> str:
    if isinstance(state, tuple):
        return "(" + ",".join(state) + ")"
    return str(state)


def state_json(state):
    return list(state) if isinstance(state, tuple) else state


def transition_json(transition):
    src, label, dst = transition
    out = {"source": state_json(src), "target": state_json(dst)}
    if isinstance(label, SystemLabel):
        out["senders"] = sorted(label.senders)
        out["action"] = label.action
        out["receivers"] = sorted(label.receivers)
    else:
        out["action"] = label
    return out


def _scoped_rcp_text(freq: FamilyRequirement) -> str:
    group = ",".join(sorted(freq.senders))
    return f"[{format_expr(simplified(freq.condition))}] rcp({{{group}}}, {freq.action})"


def family_requirement_text(freq: FamilyRequirement) -> str:
    return f"{_scoped_rcp_text(freq)} @ {state_text(freq.state)}"


def requirement_json(req: Requirement):
    return {
        "state": state_json(req.state),
        "senders": sorted(req.senders),
        "action": req.action,
    }


def family_requirement_json(freq: FamilyRequirement):
    condition = freq.condition
    return {
        **requirement_json(freq),
        "condition": format_expr(condition),
        "condition_pretty": format_expr(simplified(condition)),
        "factors": {
            "enabling": format_expr(freq.enabling),
            "sync": format_expr(freq.sync_condition),
            "reach": format_expr(freq.reach_condition),
        },
    }


def team_stats(fsys: FeaturedSystem, feta: Fts, pruned: Fts) -> dict:
    return {
        "states": len(feta.states),
        "transitions": len(feta.transitions),
        "features": len(fsys.space),
        "products": len(valid_products(fsys.feature_model, fsys.space)),
        "core_states": len(pruned.states),
        "core_transitions": len(pruned.transitions),
    }


def stats_text(stats: Mapping) -> list[str]:
    labels = {
        "core_states": "reachable core states",
        "core_transitions": "reachable core transitions",
    }
    return [f"{labels.get(key, key)}: {value}" for key, value in stats.items()]


def receptiveness_json(report: ReceptivenessReport):
    return {
        "mode": report.mode,
        "holds": report.holds,
        "entries": [
            {
                "requirement": requirement_json(e.requirement),
                "status": e.status,
                "witness": None
                if e.witness is None
                else [transition_json(t) for t in e.witness],
            }
            for e in report.entries
        ],
    }


def family_report_json(report: ReceptivenessReport):
    return {
        "mode": report.mode,
        "holds": report.holds,
        "entries": [
            {
                "requirement": family_requirement_json(e.requirement),
                "status": e.status,
                "violation_product": None
                if e.violation_product is None
                else sorted(e.violation_product.selected),
            }
            for e in report.entries
        ],
    }


def render_json(payload: Mapping) -> str:
    import json  # only JSON output needs it; it loads `re` and `enum`

    return json.dumps(payload, indent=2) + "\n"


# --- DOT --------------------------------------------------------------------


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_id(state) -> str:
    return ",".join(state) if isinstance(state, tuple) else str(state)


def _edge_label(automaton, transition) -> str:
    core = str(transition[1])
    if isinstance(automaton, Fts):
        guard = format_expr(simplified(automaton.guards[transition]))
        return f"[{guard}] {core}"
    return core


def to_dot(automaton: Lts, notes: Mapping | None = None) -> str:
    """Deterministic DOT text for an automaton.

    `notes` maps states to lines drawn in a dashed annotation box next to
    the state. Output is byte-stable for equal inputs: states and
    transitions follow the automaton's stored order.
    """
    lines = ["digraph {"]
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=ellipse];")
    for idx, state in enumerate(sorted(automaton.initial, key=_node_id)):
        lines.append(f"  __init{idx} [shape=point, style=invis];")
        lines.append(f"  __init{idx} -> {_quote(_node_id(state))};")
    for state in automaton.states:
        lines.append(f"  {_quote(_node_id(state))};")
    notes = notes or {}
    for idx, state in enumerate(sorted(notes, key=_node_id)):
        body = "\\l".join(notes[state]) + "\\l"
        lines.append(
            f"  __note{idx} [shape=note, style=dashed, fontsize=10, label={_quote_raw(body)}];"
        )
        lines.append(f"  __note{idx} -> {_quote(_node_id(state))} [style=dashed, arrowhead=none];")
    for transition in automaton.transitions:
        src, _, dst = transition
        lines.append(
            f"  {_quote(_node_id(src))} -> {_quote(_node_id(dst))}"
            f" [label={_quote(_edge_label(automaton, transition))}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quote_raw(text: str) -> str:
    # like _quote but keeps \l line separators intact
    return '"' + text.replace('"', '\\"') + '"'


def components_dot(fsys: FeaturedSystem) -> str:
    """All component automata side by side, one cluster per instance."""
    lines = ["digraph {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for idx, name in enumerate(fsys.names):
        comp = fsys.components[name]
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f"    label={_quote(name)};")
        prefix = f"{name}."
        for jdx, state in enumerate(sorted(comp.initial, key=str)):
            lines.append(f"    {_quote(prefix + '__init' + str(jdx))} [shape=point, style=invis];")
            lines.append(
                f"    {_quote(prefix + '__init' + str(jdx))} -> {_quote(prefix + str(state))};"
            )
        for state in comp.states:
            lines.append(f"    {_quote(prefix + str(state))} [label={_quote(str(state))}];")
        for t in comp.transitions:
            src, action, dst = t
            direction = "!" if action in comp.outputs else "?"
            guard = format_expr(simplified(comp.guards[t]))
            label = f"[{guard}] {action}{direction}"
            lines.append(
                f"    {_quote(prefix + str(src))} -> {_quote(prefix + str(dst))}"
                f" [label={_quote(label)}];"
            )
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def family_notes(freqs: Iterable[FamilyRequirement]) -> dict:
    """Group requirement lines by state for DOT annotation boxes."""
    notes: dict = {}
    for freq in freqs:
        notes.setdefault(freq.state, []).append(_scoped_rcp_text(freq))
    return notes
