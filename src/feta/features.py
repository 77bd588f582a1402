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
from functools import lru_cache, wraps

from .errors import Budget, SpecificationError
from .values import Value, init_field


class FeatureSpace(Value):
    """The finite universe of feature names, in declaration order."""

    __match_args__ = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if len(set(names)) != len(names):
            raise SpecificationError(f"duplicate feature names in {names}")
        init_field(self, "names", names)

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
        extra = selected - set(space.names)
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


def _kept_on_node(fn):
    """Keep `fn(expr)` on the node itself, so a shared subexpression is done once.

    Family conditions share their sync and reach factors, which are large
    disjunctions of products; the result, never None, lives and dies with
    the node. It is an attribute because reading `__dict__` would give the
    node a dictionary of its own (66 bytes per node on CPython 3.11).
    """
    key = f"_{fn.__name__}"

    @wraps(fn)
    def kept(expr):
        value = getattr(expr, key, None)
        if value is None:
            value = fn(expr)
            object.__setattr__(expr, key, value)
        return value

    return kept


@_kept_on_node
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
    match expr:
        case Const(value):
            return value
        case Var(name):
            return name in selected
        case Not(operand):
            return not _holds(operand, selected)
        case And(operands):
            return all(_holds(op, selected) for op in operands)
        case Or(operands):
            return any(_holds(op, selected) for op in operands)
        case Implies(a, b):
            return (not _holds(a, selected)) or _holds(b, selected)
        case Iff(a, b):
            return _holds(a, selected) == _holds(b, selected)
        case Xor(a, b):
            return _holds(a, selected) != _holds(b, selected)
    raise SpecificationError(f"not a feature expression: {expr!r}")


def _check_vars(expr: FeatureExpr, space: FeatureSpace) -> None:
    unknown = variables(expr) - set(space.names)
    if unknown:
        raise SpecificationError(f"expression references undeclared features {sorted(unknown)}")


def evaluate(expr: FeatureExpr, product: Product) -> bool:
    """Whether the product satisfies the expression."""
    _check_vars(expr, product.space)
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
    """The products satisfying the feature model, in lexicographic order.

    The answer is kept on the model's node with the space it was asked for,
    so it lives and dies with the node. One node can meet many spaces (the
    shared `TRUE` is the model of every specification without a
    `feature_model` line); it keeps the last.
    """
    kept = getattr(feature_model, "_valid_products", None)
    if kept is None or kept[0] != space:
        _check_vars(feature_model, space)
        products = tuple(p for p in all_products(space) if _holds(feature_model, p.selected))
        kept = (space, products)
        object.__setattr__(feature_model, "_valid_products", kept)
    return kept[1]


def product_expr(product: Product) -> FeatureExpr:
    """The expression satisfied by exactly this product of its space."""
    pos = [Var(n) for n in sorted(product.selected)]
    neg = [Not(Var(n)) for n in sorted(set(product.space.names) - product.selected)]
    return conj(pos + neg)


def product_set_expr(products, space: FeatureSpace) -> FeatureExpr:
    """The expression satisfied by exactly the given set of products."""
    chosen = sorted(products, key=Product.sort_key)
    for p in chosen:
        if p.space != space:
            raise SpecificationError("product set mixes feature spaces")
    return disj(product_expr(p) for p in chosen)


# --- satisfiability ---------------------------------------------------------


@lru_cache(maxsize=None)
def _var_mask(index: int, width: int) -> int:
    """The assignments of a `width`-feature space that select feature `index`.

    Bounded by the size check in `expr_mask`: at most 136 (index, width) pairs.
    """
    run = 1 << index
    mask = ((1 << run) - 1) << run
    span = 2 * run
    while span < 1 << width:
        mask |= mask << span
        span *= 2
    return mask


def expr_mask(expr: FeatureExpr, space: FeatureSpace) -> int:
    """The products of the space (valid or not) satisfying the expression, as bits.

    Bit `k` stands for the product selecting each feature `space.names[j]`
    for which bit `j` of `k` is set, so a space of n features has 2**n bits.
    """
    Budget().check("products", 2 ** len(space), f"products of the {len(space)}-feature space")
    width = len(space)
    full = (1 << (1 << width)) - 1
    index = {name: i for i, name in enumerate(space.names)}

    def walk(node: FeatureExpr) -> int:
        match node:
            case Const(value):
                return full if value else 0
            case Var(name):
                if name not in index:
                    _check_vars(expr, space)
                return _var_mask(index[name], width)
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


def product_index(product: Product) -> int:
    """The bit of `expr_mask` that stands for this product."""
    return sum(1 << product.space.names.index(name) for name in product.selected)


def products_mask(products) -> int:
    """The mask with exactly the bits of the given products set."""
    mask = 0
    for product in products:
        mask |= 1 << product_index(product)
    return mask


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


# Binding strength of each connective, loosest first.
_LEVEL_IFF, _LEVEL_IMPLIES, _LEVEL_OR, _LEVEL_XOR, _LEVEL_AND, _LEVEL_NOT, _LEVEL_ATOM = range(7)


def _level(expr: FeatureExpr) -> int:
    match expr:
        case Const() | Var():
            return _LEVEL_ATOM
        case Not():
            return _LEVEL_NOT
        case And():
            return _LEVEL_AND
        case Xor():
            return _LEVEL_XOR
        case Or():
            return _LEVEL_OR
        case Implies():
            return _LEVEL_IMPLIES
        case Iff():
            return _LEVEL_IFF
    raise SpecificationError(f"not a feature expression: {expr!r}")


@_kept_on_node
def format_expr(expr: FeatureExpr) -> str:
    """Surface syntax of an expression with minimal parentheses."""

    def wrap(child: FeatureExpr, minimum: int) -> str:
        text = format_expr(child)
        return f"({text})" if _level(child) < minimum else text

    match expr:
        case Const(value):
            return "true" if value else "false"
        case Var(name):
            return name
        case Not(operand):
            return "!" + wrap(operand, _LEVEL_NOT)
        case And(operands):
            return " && ".join(wrap(op, _LEVEL_AND) for op in operands)
        case Or(operands):
            return " || ".join(wrap(op, _LEVEL_OR) for op in operands)
        case Xor(left, right):
            # xor chains associate to the left
            return f"{wrap(left, _LEVEL_XOR)} xor {wrap(right, _LEVEL_XOR + 1)}"
        case Implies(ant, con):
            # implication associates to the right
            return f"{wrap(ant, _LEVEL_IMPLIES + 1)} -> {wrap(con, _LEVEL_IMPLIES)}"
        case Iff(left, right):
            return f"{wrap(left, _LEVEL_IFF)} <-> {wrap(right, _LEVEL_IFF + 1)}"
    raise SpecificationError(f"not a feature expression: {expr!r}")


@_kept_on_node
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
            kept: list[FeatureExpr] = []
            for s in flat:
                if s == absorbing:
                    return absorbing
                if s == neutral or s in kept:
                    continue
                kept.append(s)
            return conj(kept) if is_and else disj(kept)
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
