"""Command line entry point.

Every subcommand reads one specification file, prints a report to stdout
and signals the outcome through the exit code: 0 when the checked property
holds (or the command only lists things), 1 when a checked property is
violated, 2 when the input cannot be processed. Diagnostics and warnings
go to stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings as _warnings
from pathlib import Path

from . import __version__
from .dsl import elaborate_text
from .errors import Budget, FetaError, ResourceLimitError
from .family import (
    check_family_receptiveness,
    crosscheck_compliance_unfolding,
    crosscheck_family_vs_products,
    crosscheck_requirement_projection,
    derive_family_requirements,
)
from .features import Product, evaluate, format_expr, valid_products
from .automata import Lts
from .receptiveness import (
    COMPLIANT,
    STRICT,
    VIOLATED,
    WEAK,
    WEAKLY_COMPLIANT,
    check_receptiveness,
    derive_requirements,
)
from .reporting import (
    SCHEMA,
    components_dot,
    family_notes,
    family_report_json,
    family_requirement_json,
    family_requirement_text,
    receptiveness_json,
    render_json,
    requirement_json,
    stats_text,
    team_stats,
    to_dot,
    transition_text,
)
from .synctypes import FeaturedSyncSpec
from .system import FeaturedSystem
from .team import (
    OpenSystemWarning,
    build_featured_team,
    check_projection_commutes,
    product_team,
    prune_for_display,
    reachable_featured_team,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


class CliError(Exception):
    """An input problem: bad file, bad specification, bad flag value."""

    def __init__(self, message: str, details: tuple[str, ...] = ()):
        super().__init__(message)
        self.details = tuple(details)


def _budget(text: str) -> int:
    """A resource bound given on the command line: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feta",
        description="Build featured team automata and decide featured receptiveness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    defaults = Budget()

    def common(p, formats=("text", "json")):
        p.add_argument("input", help="specification file (.feta)")
        p.add_argument("--format", choices=formats, default="text", help="output format")
        p.add_argument("--max-states", type=_budget, default=defaults.states, metavar="N")
        p.add_argument(
            "--max-participants", type=_budget, default=defaults.participants, metavar="N"
        )
        p.add_argument("--max-products", type=_budget, default=defaults.products, metavar="N")
        p.add_argument(
            "--strict-sync",
            action="store_true",
            help="reject rule lists where a shadowed rule would assign a different type",
        )
        p.add_argument("-o", "--output", metavar="FILE", help="write the report to FILE")

    p = sub.add_parser("products", help="list the valid products of the feature model")
    common(p)
    p.set_defaults(handler=cmd_products)

    p = sub.add_parser("compose", help="compose the system and report its size")
    common(p, formats=("text", "json", "dot"))
    p.set_defaults(handler=cmd_compose)

    p = sub.add_parser("feta", help="build the featured team automaton")
    common(p, formats=("text", "json", "dot"))
    p.add_argument(
        "--reqs",
        action="store_true",
        help="annotate DOT output with the featured receptiveness requirements",
    )
    p.set_defaults(handler=cmd_feta)

    p = sub.add_parser("project", help="project the featured team onto one product")
    common(p, formats=("text", "json", "dot"))
    p.add_argument(
        "-p",
        "--product",
        required=True,
        metavar="FEATURES",
        help="comma separated feature names; empty string for the empty product",
    )
    p.set_defaults(handler=cmd_project)

    p = sub.add_parser("reqs", help="derive receptiveness requirements")
    common(p)
    p.add_argument(
        "-p",
        "--product",
        default=None,
        metavar="FEATURES",
        help="derive for one product instead of the whole family",
    )
    p.add_argument(
        "--show-factors",
        action="store_true",
        help="also print the three factors of each requirement condition",
    )
    p.set_defaults(handler=cmd_reqs)

    p = sub.add_parser("check", help="decide (weak) receptiveness")
    common(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict", dest="mode", action="store_const", const=STRICT, help="require immediate compliance (default)"
    )
    mode.add_argument(
        "--weak", dest="mode", action="store_const", const=WEAK, help="allow compliance after internal moves"
    )
    p.set_defaults(mode=STRICT)
    p.add_argument(
        "-p",
        "--product",
        default=None,
        metavar="FEATURES",
        help="check one product instead of the whole family",
    )
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser(
        "verify",
        help="cross-check the family analyses against per-product analyses",
    )
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("examples", help="list or print the bundled examples")
    p.add_argument("name", nargs="?", help="print this example to stdout")
    p.set_defaults(handler=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_INPUT
    try:
        return args.handler(args)
    except CliError as exc:
        return _fail(args, str(exc), exc.details)
    except ResourceLimitError as exc:
        return _fail(args, f"{exc} (--max-{exc.bound})", ())
    except FetaError as exc:
        return _fail(args, str(exc), ())
    except OSError as exc:
        return _fail(args, str(exc), ())


def _fail(args, message: str, details: tuple[str, ...]) -> int:
    for line in details:
        print(f"error: {line}", file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    if getattr(args, "format", "text") == "json":
        payload = {
            "schema": SCHEMA,
            "command": args.command,
            "input": getattr(args, "input", ""),
            "error": {"message": message, "diagnostics": list(details)},
        }
        try:
            _emit(args, render_json(payload))
        except OSError as exc:
            # The report's destination itself may be what failed.
            if str(exc) != message:
                print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


def _emit(args, text: str) -> None:
    output = getattr(args, "output", None)
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(args) -> tuple[FeaturedSystem, FeaturedSyncSpec, Budget, list[str]]:
    """Read and elaborate the input, and build the budget from the `--max-*` flags."""
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {args.input}: not UTF-8 text (byte {exc.start})") from None
    result = elaborate_text(text)
    notes: list[str] = []
    errors: list[str] = []
    for diag in result.diagnostics:
        line = f"{args.input}:{diag}"
        if diag.severity == "error":
            errors.append(line)
        else:
            notes.append(line)
            print(line, file=sys.stderr)
    if not result.ok:
        raise CliError("the specification has errors", tuple(errors))
    ceiling = Budget().products
    if args.max_products > ceiling:
        raise CliError(f"--max-products {args.max_products} is above its ceiling {ceiling}")
    budget = Budget(args.max_states, args.max_participants, args.max_products)
    space = result.system.space
    budget.check("products", 2 ** len(space), f"products of the {len(space)}-feature space")
    if args.strict_sync:
        overlaps = result.sync.find_overlaps()
        if overlaps:
            lines = tuple(
                f"for {product} and {action!r} the matching rule gives {first}"
                f" but a later rule gives {later}"
                for product, action, first, later in overlaps
            )
            raise CliError("overlapping synchronisation rules (--strict-sync)", lines)
    return result.system, result.sync, budget, notes


def _build_teams(args, fsys, fspec, budget, warns: list[str], *builders) -> list:
    """One team per builder; each distinct warning of the builds is reported once."""
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always", OpenSystemWarning)
        teams = [build(fsys, fspec, budget) for build in builders]
    for message in dict.fromkeys(str(item.message) for item in caught):
        line = f"{args.input}: warning: {message}"
        warns.append(line)
        print(line, file=sys.stderr)
    return teams


def _parse_product(text: str, fsys: FeaturedSystem) -> Product:
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = sorted(set(names) - set(fsys.space.names))
    if unknown:
        raise CliError(f"unknown features in product: {', '.join(unknown)}")
    product = Product.of(fsys.space, *names)
    if not evaluate(fsys.feature_model, product):
        raise CliError(f"product {product} does not satisfy the feature model")
    return product


def _envelope(args, warns: list[str], **payload) -> dict:
    out = {"schema": SCHEMA, "command": args.command, "input": args.input}
    if warns:
        out["warnings"] = list(warns)
    out.update(payload)
    return out


def _core(lts: Lts) -> Lts:
    keep = lts.reachable()
    return Lts(
        states=tuple(s for s in lts.states if s in keep),
        initial=lts.initial,
        actions=lts.actions,
        transitions=tuple(t for t in lts.transitions if t[0] in keep),
    )


# --- subcommands -------------------------------------------------------------


def cmd_products(args) -> int:
    fsys, _, _, warns = _load(args)
    products = valid_products(fsys.feature_model, fsys.space)
    if args.format == "json":
        payload = _envelope(
            args,
            warns,
            features=list(fsys.space.sorted_names()),
            feature_model=format_expr(fsys.feature_model),
            products=[sorted(p.selected) for p in products],
        )
        _emit(args, render_json(payload))
        return EXIT_OK
    lines = [
        f"features: {', '.join(fsys.space.sorted_names())}",
        f"feature model: {format_expr(fsys.feature_model)}",
        f"valid products ({len(products)}):",
    ]
    lines += [f"  {product}" for product in products]
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compose(args) -> int:
    fsys, _, budget, warns = _load(args)
    if args.format == "dot":
        _emit(args, components_dot(fsys))
        return EXIT_OK
    states, transitions = fsys.state_space(budget)
    closure = fsys.validate_closed()
    stats = {
        "states": len(states),
        "transitions": len(transitions),
        "features": len(fsys.space),
        "products": len(valid_products(fsys.feature_model, fsys.space)),
    }
    if args.format == "json":
        payload = _envelope(
            args,
            warns,
            stats=stats,
            closed=closure.ok,
            closure={
                "ok": closure.ok,
                "missing_senders": list(closure.missing_senders),
                "missing_receivers": list(closure.missing_receivers),
            },
        )
        _emit(args, render_json(payload))
        return EXIT_OK
    lines = stats_text(stats)
    if closure.ok:
        lines.append("closed: yes")
    else:
        lines.append("closed: no")
        if closure.missing_senders:
            lines.append(f"  actions without a sender: {', '.join(closure.missing_senders)}")
        if closure.missing_receivers:
            lines.append(f"  actions without a receiver: {', '.join(closure.missing_receivers)}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_feta(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    (feta,) = _build_teams(args, fsys, fspec, budget, warns, build_featured_team)
    pruned = prune_for_display(feta)
    if args.format == "dot":
        notes = None
        if args.reqs:
            freqs = derive_family_requirements(feta, fsys, fspec, budget)
            notes = family_notes(freqs)
        _emit(args, to_dot(pruned, notes=notes))
        return EXIT_OK
    stats = team_stats(fsys, feta, pruned)
    if args.format == "json":
        _emit(args, render_json(_envelope(args, warns, stats=stats)))
        return EXIT_OK
    _emit(args, "\n".join(stats_text(stats)) + "\n")
    return EXIT_OK


def cmd_project(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    product = _parse_product(args.product, fsys)
    (feta,) = _build_teams(args, fsys, fspec, budget, warns, build_featured_team)
    projection = feta.project(product)
    own = product_team(fsys, fspec, product, budget)[0]
    result = check_projection_commutes(feta, product, own)
    if args.format == "dot":
        _emit(args, to_dot(_core(projection)))
        return EXIT_OK if result.ok else EXIT_VIOLATION
    core = _core(projection)
    stats = {
        "states": len(projection.states),
        "transitions": len(projection.transitions),
        "core_states": len(core.states),
        "core_transitions": len(core.transitions),
    }
    if args.format == "json":
        payload = _envelope(
            args,
            warns,
            product=sorted(product.selected),
            stats=stats,
            projection_agrees=result.ok,
        )
        _emit(args, render_json(payload))
        return EXIT_OK if result.ok else EXIT_VIOLATION
    lines = [f"product: {product}"]
    lines += stats_text(stats)
    lines.append(f"projection agrees with the product's own team: {'yes' if result.ok else 'no'}")
    for t in result.only_in_projection:
        lines.append(f"  only in the projection: {transition_text(t)}")
    for t in result.only_in_composition:
        lines.append(f"  only in the product's team: {transition_text(t)}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if result.ok else EXIT_VIOLATION


def cmd_reqs(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    if args.product is not None:
        product = _parse_product(args.product, fsys)
        reqs = derive_requirements(*product_team(fsys, fspec, product, budget), budget)
        if args.format == "json":
            payload = _envelope(
                args,
                warns,
                product=sorted(product.selected),
                requirements=[requirement_json(r) for r in reqs],
            )
            _emit(args, render_json(payload))
            return EXIT_OK
        lines = [f"requirements for {product} ({len(reqs)}):"]
        lines += [f"  {req}" for req in reqs]
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    (feta,) = _build_teams(args, fsys, fspec, budget, warns, reachable_featured_team)
    freqs = derive_family_requirements(feta, fsys, fspec, budget)
    if args.format == "json":
        payload = _envelope(
            args, warns, requirements=[family_requirement_json(f) for f in freqs]
        )
        _emit(args, render_json(payload))
        return EXIT_OK
    lines = [f"featured requirements ({len(freqs)}):"]
    for freq in freqs:
        lines.append(f"  {family_requirement_text(freq)}")
        if args.show_factors:
            lines.append(f"    ready: {format_expr(freq.enabling)}")
            lines.append(f"    sync:  {format_expr(freq.sync_condition)}")
            lines.append(f"    reach: {format_expr(freq.reach_condition)}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


_PRODUCT_STATUS = {
    COMPLIANT: "compliant",
    WEAKLY_COMPLIANT: "weakly compliant",
    VIOLATED: "violated",
}


def cmd_check(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    if args.product is not None:
        return _check_product(args, fsys, fspec, budget, warns)
    (feta,) = _build_teams(args, fsys, fspec, budget, warns, reachable_featured_team)
    report = check_family_receptiveness(feta, fsys, fspec, args.mode, budget)
    verdict = _family_verdict(args.mode, report.holds)
    if args.format == "json":
        payload = _envelope(args, warns, verdict=verdict, **family_report_json(report))
        _emit(args, render_json(payload))
        return EXIT_OK if report.holds else EXIT_VIOLATION
    lines = [f"mode: {args.mode}"]
    for note in report.warnings:
        lines.append(f"note: {note}")
    for entry in report.entries:
        status = entry.status.replace("_", " ")
        line = f"  {family_requirement_text(entry.requirement)}: {status}"
        if entry.violation_product is not None:
            line += f" (for example under {entry.violation_product})"
        lines.append(line)
    lines.append(f"verdict: {verdict}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def _family_verdict(mode: str, holds: bool) -> str:
    name = "featured receptive" if mode == STRICT else "featured weakly receptive"
    return f"the family is {name}" if holds else f"the family is not {name}"


def _product_verdict(mode: str, holds: bool) -> str:
    name = "receptive" if mode == STRICT else "weakly receptive"
    return f"the team is {name}" if holds else f"the team is not {name}"


def _check_product(args, fsys, fspec, budget, warns) -> int:
    product = _parse_product(args.product, fsys)
    report = check_receptiveness(*product_team(fsys, fspec, product, budget), args.mode, budget)
    verdict = _product_verdict(args.mode, report.holds)
    if args.format == "json":
        payload = _envelope(
            args,
            warns,
            product=sorted(product.selected),
            verdict=verdict,
            **receptiveness_json(report),
        )
        _emit(args, render_json(payload))
        return EXIT_OK if report.holds else EXIT_VIOLATION
    lines = [f"product: {product}", f"mode: {args.mode}"]
    for note in report.warnings:
        lines.append(f"note: {note}")
    for entry in report.entries:
        lines.append(f"  {entry.requirement}: {_PRODUCT_STATUS[entry.status]}")
        if entry.status == WEAKLY_COMPLIANT and entry.witness and args.mode == WEAK:
            for t in entry.witness:
                lines.append(f"    via {transition_text(t)}")
    lines.append(f"verdict: {verdict}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if report.holds else EXIT_VIOLATION


def cmd_verify(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    # Projections commute on the full team; the family is decided, as by
    # `check` and `reqs`, on its reachable part. Each valid product's own
    # team is built once, under the same budget, and feeds every
    # per-product half; only the outcomes outlive the loop.
    full, feta = _build_teams(
        args, fsys, fspec, budget, warns, build_featured_team, reachable_featured_team
    )
    family = {
        mode: check_family_receptiveness(feta, fsys, fspec, mode, budget) for mode in (STRICT, WEAK)
    }
    freqs = [entry.requirement for entry in family[STRICT].entries]
    commutes, projects = [], []
    product_reports = {mode: [] for mode in family}
    for product in valid_products(fsys.feature_model, fsys.space):
        own, spec_p, sys_p = product_team(fsys, fspec, product, budget)
        result = check_projection_commutes(full, product, own)
        detail = ""
        if not result.ok:
            extra = len(result.only_in_projection) + len(result.only_in_composition)
            detail = f"{extra} transitions differ"
        commutes.append((f"projection of the team commutes for {product}", result.ok, detail))
        # A product's verdict entries are the same in both modes; only the
        # report's mode, and so how `holds` reads them, differs.
        verdicts = check_receptiveness(own, spec_p, sys_p, STRICT, budget)
        own_reqs = [entry.requirement for entry in verdicts.entries]
        agreement = crosscheck_requirement_projection(freqs, product, own_reqs)
        detail = ""
        if not agreement.ok:
            detail = (
                f"{len(agreement.only_in_family)} only in the family,"
                f" {len(agreement.only_in_product)} only in the product"
            )
        projects.append((f"requirements project correctly for {product}", agreement.ok, detail))
        for mode, reports in product_reports.items():
            reports.append((product, verdicts._replace(mode=mode)))
    checks: list[tuple[str, bool, str]] = commutes + projects
    unfolds = all(crosscheck_compliance_unfolding(feta, v) for v in family[STRICT].entries)
    checks.append(
        (f"compliance unfolds product by product ({len(freqs)} requirements)", unfolds, "")
    )
    for mode, reports in product_reports.items():
        agreement = crosscheck_family_vs_products(family[mode], reports)
        detail = f"family {agreement.family_holds}, products {agreement.products_hold}"
        checks.append(
            (f"family verdict equals all product verdicts ({mode})", agreement.ok, detail)
        )
    all_ok = all(ok for _, ok, _ in checks)
    if args.format == "json":
        payload = _envelope(
            args,
            warns,
            checks=[
                {"name": name, "ok": ok, "details": detail} for name, ok, detail in checks
            ],
            ok=all_ok,
        )
        _emit(args, render_json(payload))
        return EXIT_OK if all_ok else EXIT_VIOLATION
    lines = []
    for name, ok, detail in checks:
        line = f"{'ok' if ok else 'FAIL'}: {name}"
        if detail and not ok:
            line += f" ({detail})"
        lines.append(line)
    lines.append(
        f"verify: {len(checks)} checks passed"
        if all_ok
        else f"verify: {sum(1 for _, ok, _ in checks if not ok)} of {len(checks)} checks failed"
    )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VIOLATION


def cmd_examples(args) -> int:
    # Imported here: `importlib.resources` pulls in dozens of modules that
    # no other command needs.
    from importlib import resources

    root = resources.files("feta") / "examples"
    names = sorted(
        entry.name for entry in root.iterdir() if entry.name.endswith(".feta")
    )
    if args.name is None:
        for name in names:
            sys.stdout.write(name + "\n")
        return EXIT_OK
    wanted = args.name if args.name.endswith(".feta") else args.name + ".feta"
    if wanted not in names:
        print(f"error: no bundled example named {args.name!r}", file=sys.stderr)
        print(f"available: {', '.join(names)}", file=sys.stderr)
        return EXIT_INPUT
    sys.stdout.write((root / wanted).read_text(encoding="utf-8"))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
