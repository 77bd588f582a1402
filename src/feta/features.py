"""Feature expressions, products and satisfiability.

A feature space is a finite set of feature names. A product is a subset of
those names: the features switched on in one variant. Feature expressions are
propositional formulas over the feature names and are evaluated against a
product by reading each name as "this feature is selected". The feature model
of a family is itself a feature expression; the products satisfying it are the
valid products of the family.

Expressions are kept structurally as built. Nothing here rewrites or
normalises a stored expression; `simplified` produces a cheaper-to-read
equivalent for display only.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import Budget, SpecificationError
from .values import Value, init_field, kept


class FeatureSpace(Value):
    """The finite universe of feature names, in declaration order.

    It keeps one positive and one negative literal per name (`_literals`),
    which every `product_expr` over the space shares, and what is worked
    out over it: per feature model, the `valid_products` record (`_valid`),
    and each feature's bit pattern (`_patterns`). They live and die with
    the space.
    """

    __match_args__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate feature names in {names}")
        init_field(self, "names", names)
        init_field(self, "name_set", frozenset(names))
        init_field(self, "_literals", {n: (Var(n), Not(Var(n))) for n in names})
        init_field(self, "_valid", {})

    def _key(self) -> tuple:
        return (self.names,)

    @classmethod
    def of(cls, *names: str) -> FeatureSpace:
        return cls(tuple(names))

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def sorted_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.names))


class Product(Value):
    """A subset of the feature space: one variant of the family."""

    __match_args__ = ("selected", "space")

    def __init__(self, selected: frozenset[str], space: FeatureSpace) -> None:
        extra = selected - space.name_set
        if extra:
            raise SpecificationError(f"product selects unknown features {sorted(extra)}")
        init_field(self, "selected", selected)
        init_field(self, "space", space)

    def _key(self) -> tuple:
        return (self.selected, self.space)

    @classmethod
    def of(cls, space: FeatureSpace, *names: str) -> Product:
        return cls(frozenset(names), space)

    def __contains__(self, name: object) -> bool:
        return name in self.selected

    def __iter__(self):
        return iter(sorted(self.selected))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.selected))

    def sort_key(self) -> tuple[str, ...]:
        return self.names()

    def __str__(self) -> str:
        return "{" + ",".join(self.names()) + "}"


class FeatureExpr(Value):
    """Base class of the expression nodes. Nodes are immutable and hashable.

    Nodes of different classes are never equal: `And((a, b)) != Or((a, b))`.
    """

    __slots__ = ()

    def __and__(self, other: FeatureExpr) -> FeatureExpr:
        return And((self, other))

    def __or__(self, other: FeatureExpr) -> FeatureExpr:
        return Or((self, other))

    def __invert__(self) -> FeatureExpr:
        return Not(self)

    def __str__(self) -> str:
        return format_expr(self)


class Const(FeatureExpr):
    __match_args__ = ("value",)

    def __init__(self, value: bool) -> None:
        init_field(self, "value", value)

    def _key(self) -> tuple:
        return (self.value,)


TRUE = Const(True)
FALSE = Const(False)


class Var(FeatureExpr):
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        init_field(self, "name", name)

    def _key(self) -> tuple:
        return (self.name,)


class Not(FeatureExpr):
    __match_args__ = ("operand",)

    def __init__(self, operand: FeatureExpr) -> None:
        init_field(self, "operand", operand)

    def _key(self) -> tuple:
        return (self.operand,)


class And(FeatureExpr):
    __match_args__ = ("operands",)

    def __init__(self, operands: tuple[FeatureExpr, ...]) -> None:
        init_field(self, "operands", operands)

    def _key(self) -> tuple:
        return (self.operands,)


class Or(FeatureExpr):
    __match_args__ = ("operands",)

    def __init__(self, operands: tuple[FeatureExpr, ...]) -> None:
        init_field(self, "operands", operands)

    def _key(self) -> tuple:
        return (self.operands,)


class Implies(FeatureExpr):
    __match_args__ = ("antecedent", "consequent")

    def __init__(self, antecedent: FeatureExpr, consequent: FeatureExpr) -> None:
        init_field(self, "antecedent", antecedent)
        init_field(self, "consequent", consequent)

    def _key(self) -> tuple:
        return (self.antecedent, self.consequent)


class Iff(FeatureExpr):
    __match_args__ = ("left", "right")

    def __init__(self, left: FeatureExpr, right: FeatureExpr) -> None:
        init_field(self, "left", left)
        init_field(self, "right", right)

    def _key(self) -> tuple:
        return (self.left, self.right)


class Xor(FeatureExpr):
    __match_args__ = ("left", "right")

    def __init__(self, left: FeatureExpr, right: FeatureExpr) -> None:
        init_field(self, "left", left)
        init_field(self, "right", right)

    def _key(self) -> tuple:
        return (self.left, self.right)


def conj(operands) -> FeatureExpr:
    """Conjunction of a sequence; the empty conjunction is true."""
    ops = tuple(operands)
    if not ops:
        return TRUE
    if len(ops) == 1:
        return ops[0]
    return And(ops)


def disj(operands) -> FeatureExpr:
    """Disjunction of a sequence; the empty disjunction is false."""
    ops = tuple(operands)
    if not ops:
        return FALSE
    if len(ops) == 1:
        return ops[0]
    return Or(ops)


@kept
def variables(expr: FeatureExpr) -> frozenset[str]:
    """The feature names occurring in the expression.

    A node shares an operand's set when that holds all its names, as a team
    guard's sync part, which names every feature, does.
    """
    match expr:
        case Const():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Not(operand):
            return variables(operand)
        case And(operands) | Or(operands):
            out: frozenset[str] = frozenset()
            for op in operands:
                out = _union(out, variables(op))
            return out
        case Implies(a, b) | Iff(a, b) | Xor(a, b):
            return _union(variables(a), variables(b))
    raise SpecificationError(f"not a feature expression: {expr!r}")


def _union(left: frozenset[str], right: frozenset[str]) -> frozenset[str]:
    if right <= left:
        return left
    return right if left <= right else left | right


def _holds(expr: FeatureExpr, selected) -> bool:
    """Whether the selected feature names satisfy the expression; names unchecked."""
    return _HOLDS.get(expr.__class__, _not_an_expr)(expr, selected)


def _not_an_expr(expr, selected) -> bool:
    raise SpecificationError(f"not a feature expression: {expr!r}")


def _holds_and(expr: And, selected) -> bool:
    for op in expr.operands:
        if not _holds(op, selected):
            return False
    return True


def _holds_or(expr: Or, selected) -> bool:
    for op in expr.operands:
        if _holds(op, selected):
            return True
    return False


# `_holds` per node class, looked up by the node's exact class.
_HOLDS = {
    Const: lambda expr, selected: expr.value,
    Var: lambda expr, selected: expr.name in selected,
    Not: lambda expr, selected: not _holds(expr.operand, selected),
    And: _holds_and,
    Or: _holds_or,
    Implies: lambda expr, selected: (
        not _holds(expr.antecedent, selected) or _holds(expr.consequent, selected)
    ),
    Iff: lambda expr, selected: _holds(expr.left, selected) == _holds(expr.right, selected),
    Xor: lambda expr, selected: _holds(expr.left, selected) != _holds(expr.right, selected),
}


def _check_vars(expr: FeatureExpr, space: FeatureSpace) -> None:
    unknown = variables(expr) - space.name_set
    if unknown:
        raise SpecificationError(f"expression references undeclared features {sorted(unknown)}")


def evaluate(expr: FeatureExpr, product: Product) -> bool:
    """Whether the product satisfies the expression."""
    _check_vars(expr, product.space)
    return _holds(expr, product.selected)


def holds(expr: FeatureExpr, product: Product) -> bool:
    """`evaluate` for an expression whose names the caller has already checked
    against the product's space, as `Fts` does for its guards.
    """
    return _holds(expr, product.selected)


def all_products(space: FeatureSpace, budget: Budget = Budget()) -> tuple[Product, ...]:
    """Every subset of the space, ordered lexicographically by feature names."""
    budget.check("products", 2 ** len(space), f"products of the {len(space)}-feature space")
    names = space.sorted_names()
    subsets = [
        tuple(n for n, keep in zip(names, mask) if keep)
        for mask in itertools.product((False, True), repeat=len(names))
    ]
    subsets.sort()
    return tuple(Product(frozenset(s), space) for s in subsets)


def valid_products(feature_model: FeatureExpr, space: FeatureSpace) -> tuple[Product, ...]:
    """The products satisfying the feature model, in lexicographic order."""
    return _valid(feature_model, space)[0]


def _valid(feature_model: FeatureExpr, space: FeatureSpace) -> tuple:
    """(valid products, their `product_index` bits, those bits' OR), kept on
    the space per model: the one record of which bit a product has.
    """
    known = space._valid.get(feature_model)
    if known is None:
        _check_vars(feature_model, space)
        products = tuple(p for p in all_products(space) if _holds(feature_model, p.selected))
        bits = tuple(product_index(p) for p in products)
        raw = bytearray(((1 << len(space)) + 7) // 8)
        for bit in bits:
            raw[bit >> 3] |= 1 << (bit & 7)
        known = space._valid[feature_model] = (products, bits, int.from_bytes(raw, "little"))
    return known


def product_expr(product: Product) -> FeatureExpr:
    """The expression satisfied by exactly this product of its space, from
    the space's own literals."""
    literals = product.space._literals
    pos = [literals[n][0] for n in sorted(product.selected)]
    neg = [literals[n][1] for n in sorted(product.space.name_set - product.selected)]
    return conj(pos + neg)


def product_set_expr(products, space: FeatureSpace) -> FeatureExpr:
    """The expression satisfied by exactly the given set of products."""
    chosen = sorted(products, key=Product.sort_key)
    for p in chosen:
        if p.space != space:
            raise SpecificationError("product set mixes feature spaces")
    return disj(product_expr(p) for p in chosen)


# --- satisfiability ---------------------------------------------------------


@kept
def _patterns(space: FeatureSpace) -> dict[str, int]:
    """Per feature, the assignments of the space that select it, as bits."""
    width, out = len(space), {}
    for index, name in enumerate(space.names):
        run = 1 << index
        mask = ((1 << run) - 1) << run
        span = 2 * run
        while span < 1 << width:
            mask |= mask << span
            span *= 2
        out[name] = mask
    return out


def expr_mask(expr: FeatureExpr, space: FeatureSpace) -> int:
    """The products of the space (valid or not) satisfying the expression, as bits.

    Bit `k` stands for the product selecting each feature `space.names[j]`
    for which bit `j` of `k` is set, so a space of n features has 2**n bits.
    """
    Budget().check("products", 2 ** len(space), f"products of the {len(space)}-feature space")
    full = (1 << (1 << len(space))) - 1
    patterns = _patterns(space)

    def walk(node: FeatureExpr) -> int:
        match node:
            case Const(value):
                return full if value else 0
            case Var(name):
                if name not in patterns:
                    _check_vars(expr, space)
                return patterns[name]
            case Not(operand):
                return full ^ walk(operand)
            case And(operands):
                out = full
                for op in operands:
                    out &= walk(op)
                return out
            case Or(operands):
                out = 0
                for op in operands:
                    out |= walk(op)
                return out
            case Implies(a, b):
                return (full ^ walk(a)) | walk(b)
            case Iff(a, b):
                return full ^ walk(a) ^ walk(b)
            case Xor(a, b):
                return walk(a) ^ walk(b)
        raise SpecificationError(f"not a feature expression: {node!r}")

    return walk(expr)


def model_mask(feature_model: FeatureExpr, space: FeatureSpace) -> int:
    """The valid products as bits, equal to `expr_mask` of the feature model:
    read off the record `valid_products` keeps, so nothing is compiled.
    """
    return _valid(feature_model, space)[2]


def product_index(product: Product) -> int:
    """The bit of `expr_mask` that stands for this product."""
    selected = product.selected
    return sum(1 << i for i, name in enumerate(product.space.names) if name in selected)


def mask_union(masks) -> int:
    """The OR of the masks; 0 for none."""
    out = 0
    for mask in masks:
        out |= mask
    return out


def product_bits(mask: int, feature_model: FeatureExpr, space: FeatureSpace):
    """The valid products whose bit is set in the mask, each with that bit's
    position (its `product_index`), in `valid_products` order.
    """
    if mask:
        products, bits, _ = _valid(feature_model, space)
        for product, bit in zip(products, bits):
            if mask >> bit & 1:
                yield product, bit


def products_in(mask: int, feature_model: FeatureExpr, space: FeatureSpace) -> tuple[Product, ...]:
    """The products of `product_bits`."""
    return tuple(product for product, _ in product_bits(mask, feature_model, space))


def first_product_in(mask: int, feature_model: FeatureExpr, space: FeatureSpace) -> Product | None:
    """The first of `products_in`, or None when it is empty."""
    return next((product for product, _ in product_bits(mask, feature_model, space)), None)


def is_satisfiable(expr: FeatureExpr, space: FeatureSpace) -> bool:
    """Whether some product of the space (valid or not) satisfies the expression."""
    return expr_mask(expr, space) != 0


def entails(lhs: FeatureExpr, rhs: FeatureExpr, space: FeatureSpace) -> bool:
    """Whether every product satisfying lhs also satisfies rhs."""
    return expr_mask(lhs, space) & ~expr_mask(rhs, space) == 0


def equivalent(lhs: FeatureExpr, rhs: FeatureExpr, space: FeatureSpace) -> bool:
    """Whether the two expressions are satisfied by exactly the same products."""
    return expr_mask(lhs, space) == expr_mask(rhs, space)


# --- rendering -------------------------------------------------------------


# A connective's surface symbol, node class, binding strength (higher binds
# tighter) and associativity: "left", "right", or "flat" for an n-ary node
# (`And`, `Or`).
Connective = namedtuple("Connective", "symbol kind strength assoc")


# The binary connectives by surface symbol, loosest first; the parser and
# `format_expr` both read their grammar here. A "left" chain groups as
# `(a xor b) xor c`, a "right" one as `a -> (b -> c)`.
CONNECTIVES = {
    c.symbol: c
    for c in (
        Connective("<->", Iff, 1, "left"),
        Connective("->", Implies, 2, "right"),
        Connective("||", Or, 3, "flat"),
        Connective("xor", Xor, 4, "left"),
        Connective("&&", And, 5, "flat"),
    )
}
_CONNECTIVE_OF = {c.kind: c for c in CONNECTIVES.values()}
# `!` binds tighter than every binary connective, and an atom tighter still.
_NOT_STRENGTH, _ATOM_STRENGTH = 6, 7


def _strength(expr: FeatureExpr) -> int:
    connective = _CONNECTIVE_OF.get(expr.__class__)
    if connective is not None:
        return connective.strength
    return _NOT_STRENGTH if isinstance(expr, Not) else _ATOM_STRENGTH


@kept
def format_expr(expr: FeatureExpr) -> str:
    """Surface syntax of an expression with minimal parentheses."""

    def wrap(child: FeatureExpr, minimum: int) -> str:
        text = format_expr(child)
        return f"({text})" if _strength(child) < minimum else text

    connective = _CONNECTIVE_OF.get(expr.__class__)
    if connective is not None:
        symbol, _, strength, assoc = connective
        if assoc == "flat":
            parts = [wrap(op, strength) for op in expr.operands]
        else:
            left, right = expr._key()  # the two operands
            parts = [wrap(left, strength + (assoc == "right")), wrap(right, strength + (assoc == "left"))]
        return f" {symbol} ".join(parts)
    match expr:
        case Const(value):
            return "true" if value else "false"
        case Var(name):
            return name
        case Not(operand):
            return "!" + wrap(operand, _NOT_STRENGTH)
    raise SpecificationError(f"not a feature expression: {expr!r}")


@kept
def simplified(expr: FeatureExpr) -> FeatureExpr:
    """A lighter equivalent for display: folds constants, flattens, dedups.

    Not a normal form. Semantic questions go through `expr_mask` instead.
    """
    match expr:
        case Const() | Var():
            return expr
        case Not(operand):
            inner = simplified(operand)
            if isinstance(inner, Const):
                return FALSE if inner.value else TRUE
            if isinstance(inner, Not):
                return inner.operand
            return Not(inner)
        case And(operands) | Or(operands):
            is_and = isinstance(expr, And)
            absorbing, neutral = (FALSE, TRUE) if is_and else (TRUE, FALSE)
            kind = And if is_and else Or
            flat: list[FeatureExpr] = []
            for op in operands:
                s = simplified(op)
                if isinstance(s, kind):
                    flat.extend(s.operands)
                else:
                    flat.append(s)
            # Ordered, first of equal operands kept, duplicates found by hash.
            unique: dict[FeatureExpr, None] = {}
            for s in flat:
                if s == absorbing:
                    return absorbing
                if s != neutral:
                    unique.setdefault(s)
            return conj(unique) if is_and else disj(unique)
        case Implies(ant, con):
            a, b = simplified(ant), simplified(con)
            if a == FALSE or b == TRUE:
                return TRUE
            if a == TRUE:
                return b
            if b == FALSE:
                return simplified(Not(a))
            return Implies(a, b)
        case Iff(left, right):
            a, b = simplified(left), simplified(right)
            if a == TRUE:
                return b
            if b == TRUE:
                return a
            if a == FALSE:
                return simplified(Not(b))
            if b == FALSE:
                return simplified(Not(a))
            if a == b:
                return TRUE
            return Iff(a, b)
        case Xor(left, right):
            a, b = simplified(left), simplified(right)
            if a == FALSE:
                return b
            if b == FALSE:
                return a
            if a == TRUE:
                return simplified(Not(b))
            if b == TRUE:
                return simplified(Not(a))
            if a == b:
                return FALSE
            return Xor(a, b)
    raise SpecificationError(f"not a feature expression: {expr!r}")
