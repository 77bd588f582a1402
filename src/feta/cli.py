"""Command line entry point.

Every subcommand reads one specification file, prints a report to stdout
and signals the outcome through the exit code: 0 when the checked property
holds (or the command only lists things), 1 when a checked property is
violated, 2 when the input cannot be processed or memory runs out.
Diagnostics and warnings go to stderr. Each report goes through `_report`,
which writes the chosen format and maps the verdict to the exit code;
failures go through `_fail`.
"""

from __future__ import annotations

import atexit
import gc
import sys
from types import SimpleNamespace

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
from .features import Product, check_product, format_expr, valid_products
from .automata import Lts, transition_key
from .receptiveness import (
    STRICT,
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
)
from .synctypes import FeaturedSyncSpec
from .system import FeaturedSystem
from .team import (
    build_featured_classes,
    build_featured_team,
    check_projection_commutes,
    product_team,
    prune_for_display,
    reachable_featured_team,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

# `gc.freeze` once `main` has registered it to run at exit.
_exit_freeze = None


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
        value = None
    if value is None or value < 0:
        import argparse  # only for the error, which argparse reports

        if value is None:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser():
    """The argparse parser of `_COMMANDS`, the author of help, usage and errors."""
    import argparse  # `_read` reads plain command lines without it

    parser = argparse.ArgumentParser(
        prog="feta",
        description="Build featured team automata and decide featured receptiveness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (handler, text, formats, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        group = None
        for flags, dest, kind, default, metavar, text in options:
            how = {"dest": dest if flags else None, "default": default, "metavar": metavar}
            how.update(help=text, **_KINDS.get(kind, {}))
            if kind == "format":
                how["choices"] = formats
            if kind == "mode":
                how["const"] = flags[0][2:]
                group = group or p.add_mutually_exclusive_group()
            how = {key: value for key, value in how.items() if value is not None}
            (group if kind == "mode" else p).add_argument(*flags or [dest], **how)
    return parser


def _read(argv: list[str]):
    """The namespace argparse would give a plain command line; None for others.

    Plain: a command other than `examples`, exact option names each followed
    by its value as the next word, values that do not start with `-` and
    that the choices and `_budget` accept, one input word, every required
    option, and not both `--strict` and `--weak`. Help, version, errors and
    every other spelling are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS or argv[0] == "examples":
        return None
    handler, _, formats, options = _COMMANDS[argv[0]]
    by_flag = {flag: option for option in options for flag in option[0]}
    args = {"command": argv[0], "handler": handler}
    args.update((dest, default) for _, dest, _, default, _, _ in options)
    given, words = set(), iter(argv[1:])
    for word in words:
        _, dest, kind, *_ = by_flag.get(word, _INPUT)
        if kind == "flag":
            value = True
        elif kind == "mode":
            value = word[2:]
            if dest in given and args[dest] != value:
                return None
        else:
            value = word if kind == "input" else next(words, "-")  # "-" if it is missing
            if value.startswith("-") or (kind == "input" and dest in given):
                return None
            if kind == "format" and value not in formats:
                return None
            if kind == "budget":
                try:
                    value = _budget(value)
                except Exception:  # argparse.ArgumentTypeError, which argparse reports
                    return None
        args[dest] = value
        given.add(dest)
    if any(dest not in given for _, dest, kind, *_ in options if kind in ("input", "required")):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    global _exit_freeze
    if _exit_freeze is None:
        # The collections of interpreter shutdown skip a frozen heap, and
        # the process is about to end.
        _exit_freeze = atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
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
    except MemoryError:
        pass
    # Reported out of the handler, whose traceback holds the partial build.
    return _fail(args, "out of memory (lower --max-states to build fewer states)", ())


def _fail(args, message: str, details: tuple[str, ...]) -> int:
    for line in details:
        print(f"error: {line}", file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    if getattr(args, "format", "text") == "json":
        error = {"message": message, "diagnostics": list(details)}
        try:
            _emit(args, _envelope(args, [], {"error": error}))
        except OSError as exc:
            # The report's destination itself may be what failed.
            if str(exc) != message:
                print(f"error: {exc}", file=sys.stderr)
    return EXIT_INPUT


def _report(args, warns: list[str], ok: bool, text, fields, dot=None) -> int:
    """Write the chosen view of a command's result; exit 0 if `ok`, else 1.

    The views are zero-argument callables, so only the chosen one is built:
    `text` gives the report's lines, `fields` the JSON fields that follow
    the envelope's, and `dot`, where the command offers it, the DOT text.
    """
    if args.format == "dot":
        out = dot()
    elif args.format == "json":
        out = _envelope(args, warns, fields())
    else:
        out = "\n".join(text()) + "\n"
    _emit(args, out)
    return EXIT_OK if ok else EXIT_VIOLATION


def _envelope(args, warns: list[str], fields: dict) -> str:
    head = {"schema": SCHEMA, "command": args.command, "input": getattr(args, "input", "")}
    if warns:
        head["warnings"] = list(warns)
    return render_json({**head, **fields})


def _emit(args, text: str) -> None:
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load(args) -> tuple[FeaturedSystem, FeaturedSyncSpec, Budget, list[str]]:
    """Read and elaborate the input, and build the budget from the `--max-*` flags."""
    try:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
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


def _parse_product(text: str, fsys: FeaturedSystem) -> Product:
    names = [part.strip() for part in text.split(",") if part.strip()]
    unknown = sorted(set(names) - fsys.space.name_set)
    if unknown:
        raise CliError(f"unknown features in product: {', '.join(unknown)}")
    product = Product.of(fsys.space, *names)
    check_product(product, fsys.space, fsys.feature_model)
    return product


def _core(lts: Lts) -> Lts:
    """The part of an automaton reachable from its initial states, in its order."""
    keep = lts.reachable()
    return Lts._built(
        tuple(s for s in lts.states if s in keep), lts.initial, lts.actions,
        tuple(t for t in lts.transitions if t[0] in keep),
    )


# --- subcommands -------------------------------------------------------------


def cmd_products(args) -> int:
    fsys, _, _, warns = _load(args)
    products = valid_products(fsys.feature_model, fsys.space)
    names, model = fsys.space.sorted_names(), format_expr(fsys.feature_model)

    def text():
        lines = [f"features: {', '.join(names)}", f"feature model: {model}"]
        return lines + [f"valid products ({len(products)}):"] + [f"  {p}" for p in products]

    def fields():
        selected = [sorted(p.selected) for p in products]
        return {"features": list(names), "feature_model": model, "products": selected}

    return _report(args, warns, True, text, fields)


def cmd_compose(args) -> int:
    fsys, _, budget, warns = _load(args)

    def summary():
        # The full product's transitions, counted class by class, none built.
        states = fsys._full_states(budget)
        stats = {
            "states": len(states),
            "transitions": sum(size for *_, size in fsys._label_classes(states, budget)),
            "features": len(fsys.space),
            "products": len(valid_products(fsys.feature_model, fsys.space)),
        }
        return stats, fsys.validate_closed()

    def text():
        stats, closure = summary()
        lines = stats_text(stats) + [f"closed: {'yes' if closure.ok else 'no'}"]
        if closure.missing_senders:
            lines.append(f"  actions without a sender: {', '.join(closure.missing_senders)}")
        if closure.missing_receivers:
            lines.append(f"  actions without a receiver: {', '.join(closure.missing_receivers)}")
        return lines

    def fields():
        stats, closure = summary()
        closed = {"ok": closure.ok, **closure._asdict()}
        return {"stats": stats, "closed": closure.ok, "closure": closed}

    return _report(args, warns, True, text, fields, lambda: components_dot(fsys))


def cmd_feta(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    feta = build_featured_team(fsys, fspec, budget)
    pruned = prune_for_display(feta)

    def dot():
        freqs = derive_family_requirements(feta, fsys, fspec, budget) if args.reqs else ()
        return to_dot(pruned, notes=family_notes(freqs))

    def stats():
        return team_stats(fsys, feta, pruned)

    return _report(args, warns, True, lambda: stats_text(stats()), lambda: {"stats": stats()}, dot)


def cmd_project(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    product = _parse_product(args.product, fsys)
    classes = build_featured_classes(fsys, fspec, budget)
    own = product_team(fsys, fspec, product, budget)[0]
    result = check_projection_commutes(classes, product, classes.kept(product), own)
    # The projection as the check defines it, kept in `own`'s order.
    extra = set(result.only_in_composition)
    transitions = tuple(t for t in own.transitions if t not in extra) if extra else own.transitions
    if result.only_in_projection:
        transitions = tuple(sorted(transitions + result.only_in_projection, key=transition_key))
    projection = Lts._built(classes.states, classes.initial, classes.actions, transitions)
    core = _core(projection)
    stats = {
        "states": len(projection.states),
        "transitions": len(projection.transitions),
        "core_states": len(core.states),
        "core_transitions": len(core.transitions),
    }

    def text():
        agrees = "yes" if result.ok else "no"
        lines = [f"product: {product}", *stats_text(stats)]
        lines.append(f"projection agrees with the product's own team: {agrees}")
        for t in result.only_in_projection:
            lines.append(f"  only in the projection: {t}")
        for t in result.only_in_composition:
            lines.append(f"  only in the product's team: {t}")
        return lines

    def fields():
        selected = sorted(product.selected)
        return {"product": selected, "stats": stats, "projection_agrees": result.ok}

    return _report(args, warns, result.ok, text, fields, lambda: to_dot(core))


def cmd_reqs(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    if args.product is None:
        feta = reachable_featured_team(fsys, fspec, budget)
        reqs = derive_family_requirements(feta, fsys, fspec, budget)
        title, where, as_json = "featured requirements", {}, family_requirement_json

        def lines_of(freq):
            lines = [f"  {family_requirement_text(freq)}"]
            if args.show_factors:
                lines.append(f"    ready: {format_expr(freq.enabling)}")
                lines.append(f"    sync:  {format_expr(freq.sync_condition)}")
                lines.append(f"    reach: {format_expr(freq.reach_condition)}")
            return lines

    else:
        product = _parse_product(args.product, fsys)
        reqs = derive_requirements(*product_team(fsys, fspec, product, budget), budget)
        where = {"product": sorted(product.selected)}
        title, as_json = f"requirements for {product}", requirement_json

        def lines_of(req):
            return [f"  {req}"]

    def text():
        return [f"{title} ({len(reqs)}):"] + [line for req in reqs for line in lines_of(req)]

    def fields():
        return {**where, "requirements": [as_json(req) for req in reqs]}

    return _report(args, warns, True, text, fields)


def cmd_check(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    if args.product is None:
        feta = reachable_featured_team(fsys, fspec, budget)
        report = check_family_receptiveness(feta, fsys, fspec, args.mode, budget)
        head, where, as_json = [], {}, family_report_json

        def lines_of(entry):
            line = f"  {family_requirement_text(entry.requirement)}: {entry.status}"
            if entry.violation_product is not None:
                line += f" (for example under {entry.violation_product})"
            return [line]

    else:
        product = _parse_product(args.product, fsys)
        team = product_team(fsys, fspec, product, budget)
        report = check_receptiveness(*team, args.mode, budget)
        where = {"product": sorted(product.selected)}
        head, as_json = [f"product: {product}"], receptiveness_json

        def lines_of(entry):
            lines = [f"  {entry.requirement}: {entry.status.replace('-', ' ')}"]
            if entry.status == WEAKLY_COMPLIANT and entry.witness and args.mode == WEAK:
                lines += [f"    via {t}" for t in entry.witness]
            return lines

    verdict = _verdict(args.product is None, args.mode, report.holds)

    def text():
        lines = head + [f"mode: {args.mode}"] + [f"note: {note}" for note in report.warnings]
        lines += [line for entry in report.entries for line in lines_of(entry)]
        return lines + [f"verdict: {verdict}"]

    def fields():
        return {**where, "verdict": verdict, **as_json(report)}

    return _report(args, warns, report.holds, text, fields)


def _verdict(family: bool, mode: str, holds: bool) -> str:
    """The verdict of `check`, e.g. "the family is not featured weakly receptive"."""
    name = "receptive" if mode == STRICT else "weakly receptive"
    subject, name = ("family", f"featured {name}") if family else ("team", name)
    return f"the {subject} is {name}" if holds else f"the {subject} is not {name}"


def cmd_verify(args) -> int:
    fsys, fspec, budget, warns = _load(args)
    # Projections commute on the full team, compared class by class; the
    # family is decided, as by `check` and `reqs`, on its reachable part.
    # Each valid product's own team is built once, under the same budget,
    # and feeds every per-product half; only the outcomes outlive the loop.
    full = build_featured_classes(fsys, fspec, budget)
    feta = reachable_featured_team(fsys, fspec, budget)
    # Weak mode keeps every strictly compliant entry and re-decides only the
    # violated ones, so read in strict mode the same entries give its verdict.
    weak = check_family_receptiveness(feta, fsys, fspec, WEAK, budget)
    family = {STRICT: weak._replace(mode=STRICT), WEAK: weak}
    freqs = [entry.requirement for entry in weak.entries]
    commutes, projects = [], []
    product_reports = {mode: [] for mode in family}
    for product in valid_products(fsys.feature_model, fsys.space):
        own, spec_p, sys_p = product_team(fsys, fspec, product, budget)
        result = check_projection_commutes(full, product, full.kept(product), own)
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
    unfolds = not crosscheck_compliance_unfolding(feta, family[STRICT].entries)
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

    def text():
        lines = []
        for name, ok, detail in checks:
            line = f"{'ok' if ok else 'FAIL'}: {name}"
            lines.append(f"{line} ({detail})" if detail and not ok else line)
        failed = sum(1 for _, ok, _ in checks if not ok)
        if all_ok:
            return lines + [f"verify: {len(checks)} checks passed"]
        return lines + [f"verify: {failed} of {len(checks)} checks failed"]

    def fields():
        named = [{"name": name, "ok": ok, "details": detail} for name, ok, detail in checks]
        return {"checks": named, "ok": all_ok}

    return _report(args, warns, all_ok, text, fields)


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


# --- the command table -------------------------------------------------------

# An option is (flags, dest, kind, default, metavar, help); a positional one
# has no flags. Its kind says what it reads: "input" the one input word,
# "name" an optional word, "format" one of the command's formats, "budget" a
# word through `_budget`, "value" any word, "required" any word that must be
# given, "flag" nothing, storing True, and "mode" nothing, storing its flag's
# name (`--weak` stores "weak"); the "mode" options of a command exclude each other.
_KINDS = {
    "name": {"nargs": "?"},
    "budget": {"type": _budget},
    "required": {"required": True},
    "flag": {"action": "store_true"},
    "mode": {"action": "store_const"},
}
_INPUT = ((), "input", "input", None, None, "specification file (.feta)")
_COMMON = (
    _INPUT,
    (("--format",), "format", "format", "text", None, "output format"),
    (("--max-states",), "max_states", "budget", Budget().states, "N", None),
    (("--max-participants",), "max_participants", "budget", Budget().participants, "N", None),
    (("--max-products",), "max_products", "budget", Budget().products, "N", None),
    (("--strict-sync",), "strict_sync", "flag", False, None,
     "reject rule lists where a shadowed rule would assign a different type"),
    (("-o", "--output"), "output", "value", None, "FILE", "write the report to FILE"),
)
_FORMATS, _DOT_FORMATS = ("text", "json"), ("text", "json", "dot")

# Each command: (handler, help, `--format` choices, options).
_COMMANDS = {
    "products": (cmd_products, "list the valid products of the feature model", _FORMATS, _COMMON),
    "compose": (cmd_compose, "compose the system and report its size", _DOT_FORMATS, _COMMON),
    "feta": (cmd_feta, "build the featured team automaton", _DOT_FORMATS, _COMMON + (
        (("--reqs",), "reqs", "flag", False, None,
         "annotate DOT output with the featured receptiveness requirements"),
    )),
    "project": (cmd_project, "project the featured team onto one product", _DOT_FORMATS, _COMMON + (
        (("-p", "--product"), "product", "required", None, "FEATURES",
         "comma separated feature names; empty string for the empty product"),
    )),
    "reqs": (cmd_reqs, "derive receptiveness requirements", _FORMATS, _COMMON + (
        (("-p", "--product"), "product", "value", None, "FEATURES",
         "derive for one product instead of the whole family"),
        (("--show-factors",), "show_factors", "flag", False, None,
         "also print the three factors of each requirement condition"),
    )),
    "check": (cmd_check, "decide (weak) receptiveness", _FORMATS, _COMMON + (
        (("--strict",), "mode", "mode", STRICT, None, "require immediate compliance (default)"),
        (("--weak",), "mode", "mode", STRICT, None, "allow compliance after internal moves"),
        (("-p", "--product"), "product", "value", None, "FEATURES",
         "check one product instead of the whole family"),
    )),
    "verify": (cmd_verify, "cross-check the family analyses against per-product analyses",
               _FORMATS, _COMMON),
    "examples": (cmd_examples, "list or print the bundled examples", None, (
        ((), "name", "name", None, None, "print this example to stdout"),
    )),
}


if __name__ == "__main__":
    sys.exit(main())
