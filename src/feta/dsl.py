"""The textual model language (.feta files).

A document declares a feature space, a feature model, component automata,
one system of named component instances and one block of synchronisation
rules:

    features lock, unlock;
    feature_model lock xor unlock;

    component User {
      output join, leave;
      input confirm;
      init 0;
      0 -> 1 by join! when lock;
      2 -> 0 by leave!;
    }

    system Access = { u1: User, u2: User, s: Server };

    sync {
      confirm: [1,1] -> [1,1];
      join, leave: [1,*] -> [1,1] when unlock;
      default [1,1] -> [1,1];
    }

Comments run from '#' to the end of the line. State names are identifiers
or bare numbers; an optional `states` line declares them explicitly, and a
component without one uses the states mentioned by `init` and transitions.
The `!` / `?` suffix on a transition's action is optional, but when present
it must match the action's declared direction. A missing `when` means the
guard is true. Sync rules apply first match wins, top to bottom; `default`
covers every action.

Feature expressions use `true false ! && xor || -> <->` with precedence
`!` over `&&` over `xor` over `||` over `->` over `<->`, and `->`
associating to the right, as the table `features.CONNECTIVES` gives them
to the parser and to `format_expr` alike. An expression may nest at most
`MAX_EXPR_DEPTH` levels, counting operators and parentheses.
"""

from __future__ import annotations

from collections import namedtuple

from .automata import FeaturedComponent
from .errors import FetaError, ResourceLimitError, SpecificationError
from .features import (
    CONNECTIVES,
    FALSE,
    TRUE,
    FeatureExpr,
    FeatureSpace,
    Not,
    Var,
    valid_products,
    variables,
)
from .synctypes import FeaturedSyncSpec, Interval, SyncRule, SyncType
from .system import FeaturedSystem

ERROR = "error"
WARNING = "warning"

_KEYWORDS = {
    "features", "feature_model", "component", "system", "sync",
    "input", "output", "states", "init", "by", "when", "default",
    "true", "false", "xor",
}

_MULTI_SYMBOLS = ("<->", "->", "&&", "||")
_MULTI_STARTS = frozenset(symbol[0] for symbol in _MULTI_SYMBOLS)
_SINGLE_SYMBOLS = set("{}()[],;:=*!?")

# Every pass over a feature expression recurses on its operands, so deeper
# input would exhaust the interpreter's stack instead of being diagnosed.
MAX_EXPR_DEPTH = 100


class Diagnostic(namedtuple("Diagnostic", "severity line col message code")):
    """One finding at a 1-based line and column: its severity ("error" or
    "warning"), message and stable code."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message} [{self.code}]"


def has_errors(diagnostics) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


# --- abstract syntax --------------------------------------------------------
#
# Each declaration ends with its source position `loc` (line, column), which
# `==` and `hash` compare like every other field. An omitted guard or action
# suffix is None, as are a component's undeclared `states`, the `actions` of
# the `default` rule and an upper bound `*`.

TransitionDecl = namedtuple(
    "TransitionDecl", "source target action suffix guard loc", defaults=((1, 1),)
)
ComponentDecl = namedtuple(
    "ComponentDecl", "name inputs outputs states init transitions loc", defaults=((1, 1),)
)
SystemDecl = namedtuple("SystemDecl", "name bindings loc", defaults=((1, 1),))
SyncRuleDecl = namedtuple(
    "SyncRuleDecl", "actions send_lo send_hi recv_lo recv_hi guard loc", defaults=((1, 1),)
)


# The declared feature names, the model (or None), the component
# declarations, the system declaration (or None) and the sync rules (or None).
SpecDocument = namedtuple("SpecDocument", "features model components system sync")
# The document (None if parsing failed) and every diagnostic of the parse.
ParseResult = namedtuple("ParseResult", "document diagnostics")


class ElaborationResult(namedtuple("ElaborationResult", "system sync diagnostics")):
    """The featured system and specification, each None if elaboration failed,
    and every diagnostic."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.system is not None and self.sync is not None


# --- lexer ------------------------------------------------------------------


# `kind` is ident, number, sym or eof.
Token = namedtuple("Token", "kind text line col")


class _SyntaxError(SpecificationError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _MULTI_STARTS:
            matched = next((s for s in _MULTI_SYMBOLS if text.startswith(s, i)), None)
            if matched:
                tokens.append(Token("sym", matched, line, col))
                i += len(matched)
                col += len(matched)
                continue
        if ch in _SINGLE_SYMBOLS:
            tokens.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, col))
            col += i - start
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("number", text[start:i], line, col))
            col += i - start
            continue
        raise _SyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


def _expected(what: str, tok: Token) -> _SyntaxError:
    found = "end of input" if tok.kind == "eof" else repr(tok.text)
    return _SyntaxError(f"expected {what}, found {found}", tok.line, tok.col)


class _TokenStream:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def check(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise _expected(repr(text), tok)
        return self.advance()

    def expect_kind(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise _expected(what, tok)
        return self.advance()


# --- parser -----------------------------------------------------------------

def _check_depth(depth: int, tok: Token) -> None:
    if depth > MAX_EXPR_DEPTH:
        raise _SyntaxError(
            f"feature expression nested deeper than {MAX_EXPR_DEPTH} levels", tok.line, tok.col
        )


def _flatten(kind, left: FeatureExpr, right: FeatureExpr) -> FeatureExpr:
    lhs = left.operands if isinstance(left, kind) else (left,)
    rhs = right.operands if isinstance(right, kind) else (right,)
    return kind(lhs + rhs)


class _Parser:
    def __init__(self, stream: _TokenStream) -> None:
        self.stream = stream
        self.diagnostics: list[Diagnostic] = []

    def error(self, loc: tuple[int, int], message: str, code: str) -> None:
        self.diagnostics.append(Diagnostic(ERROR, loc[0], loc[1], message, code))

    # expressions

    def parse_expr(self) -> FeatureExpr:
        return self._expr(0, 0)[0]

    def _expr(self, min_strength: int, nesting: int) -> tuple[FeatureExpr, int]:
        """An expression and the depth of its tree.

        `nesting` counts the operators and parentheses enclosing it; it bounds
        the recursion here, while the returned depth bounds chains such as
        `a xor b xor c` that grow the tree without recursing.
        """
        left, depth = self._unary(nesting)
        while True:
            tok = self.stream.peek()
            connective = CONNECTIVES.get(tok.text)
            if connective is None or connective.strength < min_strength:
                return left, depth
            self.stream.advance()
            _, kind, strength, assoc = connective
            right, right_depth = self._expr(strength + (assoc != "right"), nesting + 1)
            if assoc == "flat":
                # Flattening lifts the operands of a same-kind side one level.
                depth -= isinstance(left, kind)
                right_depth -= isinstance(right, kind)
                left = _flatten(kind, left, right)
            else:
                left = kind(left, right)
            depth = max(depth, right_depth) + 1
            _check_depth(depth, tok)

    def _unary(self, nesting: int) -> tuple[FeatureExpr, int]:
        tok = self.stream.peek()
        _check_depth(nesting + 1, tok)
        if tok.text == "!":
            self.stream.advance()
            operand, depth = self._unary(nesting + 1)
            _check_depth(depth + 1, tok)
            return Not(operand), depth + 1
        if tok.text == "(":
            self.stream.advance()
            result = self._expr(0, nesting + 1)
            self.stream.expect(")")
            return result
        if tok.text == "true":
            self.stream.advance()
            return TRUE, 1
        if tok.text == "false":
            self.stream.advance()
            return FALSE, 1
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.stream.advance()
            return Var(tok.text), 1
        raise _expected("a feature expression", tok)

    # helpers

    def _name_list(self, what: str) -> list[tuple[str, Token]]:
        names = []
        while True:
            tok = self.stream.expect_kind("ident", what)
            if tok.text in _KEYWORDS:
                raise _SyntaxError(f"{tok.text!r} is a keyword, not a {what}", tok.line, tok.col)
            names.append((tok.text, tok))
            if not self.stream.accept(","):
                return names

    def _state_name(self) -> Token:
        tok = self.stream.peek()
        if tok.kind == "number":
            return self.stream.advance()
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return self.stream.advance()
        raise _expected("a state name", tok)

    def _state_list(self) -> list[str]:
        names = [self._state_name().text]
        while self.stream.accept(","):
            names.append(self._state_name().text)
        return names

    def _number(self, what: str) -> int:
        tok = self.stream.expect_kind("number", what)
        try:
            return int(tok.text)
        except ValueError:  # a digit such as '²' that is not decimal, or 4300+ digits
            shown = tok.text if len(tok.text) <= 20 else tok.text[:20] + "..."
            raise _SyntaxError(f"expected {what}, found {shown!r}", tok.line, tok.col) from None

    def _interval(self) -> tuple[int, int | None]:
        self.stream.expect("[")
        lo = self._number("an interval minimum")
        self.stream.expect(",")
        if self.stream.accept("*"):
            hi: int | None = None
        else:
            hi = self._number("an interval maximum")
        self.stream.expect("]")
        return lo, hi

    # document items

    def parse_document(self) -> SpecDocument:
        features: list[str] = []
        feature_locs: dict[str, Token] = {}
        model: FeatureExpr | None = None
        components: list[ComponentDecl] = []
        system: SystemDecl | None = None
        sync: tuple[SyncRuleDecl, ...] | None = None

        while True:
            tok = self.stream.peek()
            if tok.kind == "eof":
                break
            loc = (tok.line, tok.col)
            if self.stream.accept("features"):
                for name, name_tok in self._name_list("feature name"):
                    if name in feature_locs:
                        self.error(
                            (name_tok.line, name_tok.col),
                            f"feature {name!r} declared twice",
                            "duplicate-feature",
                        )
                    else:
                        feature_locs[name] = name_tok
                        features.append(name)
                self.stream.expect(";")
            elif self.stream.accept("feature_model"):
                expr = self.parse_expr()
                self.stream.expect(";")
                if model is not None:
                    self.error(loc, "feature model declared twice", "duplicate-section")
                else:
                    model = expr
            elif self.stream.check("component"):
                components.append(self._component())
            elif self.stream.check("system"):
                decl = self._system()
                if system is not None:
                    self.error(loc, "system declared twice", "duplicate-section")
                else:
                    system = decl
            elif self.stream.check("sync"):
                rules = self._sync()
                if sync is not None:
                    self.error(loc, "sync block declared twice", "duplicate-section")
                else:
                    sync = rules
            else:
                raise _expected("a declaration", tok)

        if model is None:
            self.error((1, 1), "missing feature model", "missing-feature-model")
        if system is None:
            self.error((1, 1), "missing system declaration", "missing-system")
        if sync is None:
            self.error((1, 1), "missing sync block", "missing-sync")
        return SpecDocument(
            tuple(features), model, tuple(components), system, sync
        )

    def _component(self) -> ComponentDecl:
        start = self.stream.expect("component")
        loc = (start.line, start.col)
        name = self.stream.expect_kind("ident", "a component name").text
        self.stream.expect("{")
        inputs: list[str] = []
        outputs: list[str] = []
        states: list[str] | None = None
        init: list[str] = []
        transitions: list[TransitionDecl] = []
        while not self.stream.accept("}"):
            tok = self.stream.peek()
            if tok.kind == "eof":
                raise _SyntaxError("unterminated component body", tok.line, tok.col)
            item_loc = (tok.line, tok.col)
            if self.stream.accept("input"):
                self._alphabet_names(inputs, inputs + outputs, "input")
            elif self.stream.accept("output"):
                self._alphabet_names(outputs, inputs + outputs, "output")
            elif self.stream.accept("states"):
                declared = self._state_list()
                self.stream.expect(";")
                if states is None:
                    states = []
                for s in declared:
                    if s in states:
                        self.error(item_loc, f"state {s!r} declared twice", "duplicate-state")
                    else:
                        states.append(s)
            elif self.stream.accept("init"):
                for s in self._state_list():
                    if s in init:
                        self.error(item_loc, f"initial state {s!r} listed twice", "duplicate-state")
                    else:
                        init.append(s)
                self.stream.expect(";")
            else:
                transitions.append(self._transition(item_loc))
        return ComponentDecl(
            name, tuple(inputs), tuple(outputs),
            None if states is None else tuple(states),
            tuple(init), tuple(transitions), loc,
        )

    def _alphabet_names(self, target: list[str], seen: list[str], what: str) -> None:
        for name, tok in self._name_list(f"an {what} action name"):
            if name in seen or name in target:
                self.error(
                    (tok.line, tok.col), f"action {name!r} declared twice", "duplicate-action"
                )
            else:
                target.append(name)
        self.stream.expect(";")

    def _transition(self, loc: tuple[int, int]) -> TransitionDecl:
        source = self._state_name().text
        self.stream.expect("->")
        target = self._state_name().text
        self.stream.expect("by")
        action = self.stream.expect_kind("ident", "an action name").text
        suffix = None
        if self.stream.accept("!"):
            suffix = "!"
        elif self.stream.accept("?"):
            suffix = "?"
        guard = None
        if self.stream.accept("when"):
            guard = self.parse_expr()
        self.stream.expect(";")
        return TransitionDecl(source, target, action, suffix, guard, loc)

    def _system(self) -> SystemDecl:
        start = self.stream.expect("system")
        name = self.stream.expect_kind("ident", "a system name").text
        self.stream.expect("=")
        self.stream.expect("{")
        bindings: list[tuple[str, str]] = []
        while True:
            instance = self.stream.expect_kind("ident", "an instance name").text
            self.stream.expect(":")
            component = self.stream.expect_kind("ident", "a component name").text
            bindings.append((instance, component))
            if not self.stream.accept(","):
                break
        self.stream.expect("}")
        self.stream.expect(";")
        return SystemDecl(name, tuple(bindings), (start.line, start.col))

    def _sync(self) -> tuple[SyncRuleDecl, ...]:
        self.stream.expect("sync")
        self.stream.expect("{")
        rules: list[SyncRuleDecl] = []
        while not self.stream.accept("}"):
            tok = self.stream.peek()
            if tok.kind == "eof":
                raise _SyntaxError("unterminated sync block", tok.line, tok.col)
            loc = (tok.line, tok.col)
            if self.stream.accept("default"):
                actions: tuple[str, ...] | None = None
            else:
                actions = tuple(name for name, _ in self._name_list("an action name"))
                self.stream.expect(":")
            send_lo, send_hi = self._interval()
            self.stream.expect("->")
            recv_lo, recv_hi = self._interval()
            guard = self.parse_expr() if self.stream.accept("when") else None
            self.stream.expect(";")
            rules.append(SyncRuleDecl(actions, send_lo, send_hi, recv_lo, recv_hi, guard, loc))
        return tuple(rules)


def parse(text: str) -> ParseResult:
    """Parse a document; a syntax error yields no document and one diagnostic."""
    try:
        parser = _Parser(_TokenStream(_lex(text)))
        document = parser.parse_document()
        return ParseResult(document, tuple(parser.diagnostics))
    except _SyntaxError as exc:
        diag = Diagnostic(ERROR, exc.line, exc.col, exc.message, "syntax")
        return ParseResult(None, (diag,))


def parse_expr(text: str) -> FeatureExpr:
    """Parse a standalone feature expression."""
    parser = _Parser(_TokenStream(_lex(text)))
    expr = parser.parse_expr()
    trailing = parser.stream.peek()
    if trailing.kind != "eof":
        raise _SyntaxError(
            f"unexpected {trailing.text!r} after expression", trailing.line, trailing.col
        )
    return expr


# --- elaboration ------------------------------------------------------------


def elaborate(document: SpecDocument) -> ElaborationResult:
    """Turn a parsed document into a featured system and sync specification.

    All semantic validations report through diagnostics; any error leaves
    both results empty. Warnings (open system, a feature model without
    products) do not.
    """
    diags: list[Diagnostic] = []

    def error(loc, message, code) -> None:
        diags.append(Diagnostic(ERROR, loc[0], loc[1], message, code))

    def warning(loc, message, code) -> None:
        diags.append(Diagnostic(WARNING, loc[0], loc[1], message, code))

    try:
        space = FeatureSpace(tuple(document.features))
    except FetaError as exc:
        error((1, 1), str(exc), "duplicate-feature")
        space = FeatureSpace(tuple(dict.fromkeys(document.features)))
    model = document.model if document.model is not None else TRUE
    if document.model is None:
        error((1, 1), "missing feature model", "missing-feature-model")
    if not _names_declared_features(model, "feature model", (1, 1), space, error):
        model = TRUE

    components: dict[str, FeaturedComponent] = {}
    for decl in document.components:
        if decl.name in components:
            error(decl.loc, f"component {decl.name!r} declared twice", "duplicate-name")
            continue
        built = _elaborate_component(decl, space, model, error)
        if built is not None:
            components[decl.name] = built

    fsys: FeaturedSystem | None = None
    if document.system is None:
        error((1, 1), "missing system declaration", "missing-system")
    elif not has_errors(diags):
        fsys = _elaborate_system(document.system, components, space, model, error)

    fspec: FeaturedSyncSpec | None = None
    if document.sync is None:
        error((1, 1), "missing sync block", "missing-sync")
    elif fsys is not None and not has_errors(diags):
        fspec = _elaborate_sync(document.sync, fsys, space, model, error)

    if fsys is not None and fspec is not None and not has_errors(diags):
        try:
            products = valid_products(model, space)
        except ResourceLimitError as exc:
            error((1, 1), str(exc), "resource")
            products = ()
        if not products:
            warning((1, 1), "the feature model admits no products", "empty-family")
        closure = fsys.validate_closed()
        if closure.missing_receivers:
            warning(
                (1, 1),
                "no component inputs " + ", ".join(closure.missing_receivers),
                "open-system",
            )
        if closure.missing_senders:
            warning(
                (1, 1),
                "no component outputs " + ", ".join(closure.missing_senders),
                "open-system",
            )

    if has_errors(diags):
        return ElaborationResult(None, None, tuple(diags))
    return ElaborationResult(fsys, fspec, tuple(diags))


def _names_declared_features(expr, what, loc, space, error) -> bool:
    """Is the feature model or guard a feature expression over declared
    features? Reports it if not; a document built by hand may hold anything.
    """
    try:
        unknown = variables(expr) - space.name_set
    except SpecificationError as exc:
        error(loc, f"{what}: {exc}", "invalid-expression")
        return False
    if unknown:
        error(loc, f"{what} references undeclared features {sorted(unknown)}", "unknown-feature")
    return not unknown


def _elaborate_component(decl, space, model, error) -> FeaturedComponent | None:
    ok = True
    actions = set(decl.inputs) | set(decl.outputs)
    guards = {}
    triples = []
    mentioned: list[str] = list(decl.init)
    for t in decl.transitions:
        mentioned.extend((t.source, t.target))
    if decl.states is None:
        states = tuple(dict.fromkeys(mentioned))
    else:
        states = decl.states
        undeclared = [s for s in dict.fromkeys(mentioned) if s not in states]
        if undeclared:
            error(decl.loc, f"states {undeclared} not in the states list", "unknown-state")
            ok = False
    if not decl.init:
        error(decl.loc, f"component {decl.name!r} has no init", "missing-init")
        ok = False

    for t in decl.transitions:
        if t.action not in actions:
            error(t.loc, f"action {t.action!r} is not declared", "unknown-action")
            ok = False
            continue
        direction = "?" if t.action in decl.inputs else "!"
        if t.suffix is not None and t.suffix != direction:
            kind = "an input" if direction == "?" else "an output"
            error(
                t.loc,
                f"action {t.action!r} is {kind} of {decl.name!r} but written with {t.suffix!r}",
                "suffix-mismatch",
            )
            ok = False
        guard = t.guard if t.guard is not None else TRUE
        if not _names_declared_features(guard, "guard", t.loc, space, error):
            ok = False
        triple = (t.source, t.action, t.target)
        if triple in guards:
            error(
                t.loc,
                f"transition {t.source} -> {t.target} by {t.action} declared twice",
                "duplicate-transition",
            )
            ok = False
        guards[triple] = guard
        triples.append(triple)

    if not ok:
        return None
    try:
        return FeaturedComponent(
            states=states,
            initial=frozenset(decl.init),
            actions=frozenset(actions),
            transitions=tuple(triples),
            space=space,
            feature_model=model,
            guards=guards,
            inputs=frozenset(decl.inputs),
            outputs=frozenset(decl.outputs),
        )
    except FetaError as exc:
        error(decl.loc, str(exc), "invalid-component")
        return None


def _elaborate_system(decl, components, space, model, error) -> FeaturedSystem | None:
    names = []
    bound = {}
    ok = True
    for instance, component in decl.bindings:
        if instance in bound:
            error(decl.loc, f"instance name {instance!r} used twice", "duplicate-name")
            ok = False
            continue
        if component not in components:
            error(decl.loc, f"unknown component {component!r}", "unknown-component")
            ok = False
            continue
        names.append(instance)
        bound[instance] = components[component]
    if not ok:
        return None
    try:
        return FeaturedSystem(tuple(names), bound, space, model)
    except FetaError as exc:
        error(decl.loc, str(exc), "invalid-system")
        return None


def _elaborate_sync(rules, fsys, space, model, error) -> FeaturedSyncSpec | None:
    alphabet = fsys.actions
    built = []
    ok = True
    for rule in rules:
        if rule.actions is not None:
            unknown = [a for a in rule.actions if a not in alphabet]
            if unknown:
                error(rule.loc, f"sync rule names unknown actions {unknown}", "unknown-action")
                ok = False
                continue
        guard = rule.guard if rule.guard is not None else TRUE
        if not _names_declared_features(guard, "guard", rule.loc, space, error):
            ok = False
            continue
        try:
            sync_type = SyncType(
                Interval(rule.send_lo, rule.send_hi), Interval(rule.recv_lo, rule.recv_hi)
            )
        except FetaError as exc:
            error(rule.loc, str(exc), "empty-interval")
            ok = False
            continue
        actions = None if rule.actions is None else frozenset(rule.actions)
        built.append(SyncRule(guard, actions, sync_type))
    if not ok:
        return None
    try:
        fspec = FeaturedSyncSpec(tuple(built), alphabet, space, model)
        missing = fspec.validate_total()
    except ResourceLimitError as exc:
        error((1, 1), str(exc), "resource")
        return None
    if missing:
        shown = ", ".join(f"({p}, {a})" for p, a in missing[:4])
        more = "" if len(missing) <= 4 else f" and {len(missing) - 4} more"
        error(
            (1, 1),
            f"sync rules do not cover every product and action: {shown}{more}",
            "not-total",
        )
        return None
    return fspec


def elaborate_text(text: str) -> ElaborationResult:
    """Parse and elaborate in one step, merging the diagnostics."""
    parsed = parse(text)
    if parsed.document is None or has_errors(parsed.diagnostics):
        return ElaborationResult(None, None, parsed.diagnostics)
    result = elaborate(parsed.document)
    return ElaborationResult(
        result.system, result.sync, parsed.diagnostics + result.diagnostics
    )
