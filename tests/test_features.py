"""Feature expressions, products and their bit-masks."""

import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feta import (
    FALSE,
    TRUE,
    And,
    Budget,
    FeatureSpace,
    Iff,
    InvalidProductError,
    Implies,
    Not,
    Or,
    Product,
    ResourceLimitError,
    SpecificationError,
    Var,
    Xor,
    all_products,
    conj,
    disj,
    entails,
    evaluate,
    expr_mask,
    format_expr,
    is_satisfiable,
    product_expr,
    product_index,
    product_set_expr,
    products_in,
    simplified,
    valid_products,
    variables,
)
from feta import features
from feta.dsl import parse_expr
from feta.features import check_product, evaluator, first_product_in, model_mask, product_bits

AB = FeatureSpace.of("a", "b")
ABC = FeatureSpace.of("a", "b", "c")
A, B, C = Var("a"), Var("b"), Var("c")


def brute_holds(expr, product):
    return evaluate(expr, product)


def brute_satisfiable(expr, space):
    return any(brute_holds(expr, p) for p in all_products(space))


# --- spaces and products -----------------------------------------------------


def test_feature_space_rejects_duplicates():
    with pytest.raises(SpecificationError):
        FeatureSpace.of("a", "a")


def test_product_of_unknown_feature():
    with pytest.raises(SpecificationError):
        Product.of(AB, "z")


def test_product_str_sorted():
    p = Product.of(AB, "b", "a")
    assert str(p) == "{a,b}"
    assert str(Product.of(AB)) == "{}"


def test_check_product_refuses_another_space_and_given_a_model_what_it_excludes():
    """Without a model only the space is checked; a space is its names in order."""
    a = Product.of(AB, "a")
    check_product(a, AB)
    check_product(a, AB, Var("a"))
    check_product(Product.of(AB, "b"), AB)
    with pytest.raises(InvalidProductError, match=r"product \{b\} does not satisfy the feature model"):
        check_product(Product.of(AB, "b"), AB, Var("a"))
    for space in (FeatureSpace.of("b", "a"), ABC):
        with pytest.raises(InvalidProductError, match="over a different feature space"):
            check_product(Product.of(space, "a"), AB)


def test_all_products_is_lexicographic():
    names = [tuple(sorted(p.selected)) for p in all_products(ABC)]
    assert names == sorted(names)
    assert len(names) == 8


def test_all_products_respects_limit():
    with pytest.raises(ResourceLimitError) as refused:
        all_products(ABC, Budget(products=7))
    assert refused.value.bound == "products"
    assert str(refused.value) == "products of the 3-feature space: 8, above the bound 7"
    assert len(all_products(ABC, Budget(products=8))) == 8


def test_valid_products_filters_by_model():
    products = valid_products(Xor(A, B), AB)
    assert [sorted(p.selected) for p in products] == [["a"], ["b"]]


def test_valid_products_of_unsatisfiable_model():
    assert valid_products(And((A, Not(A))), AB) == ()


def test_valid_products_keep_no_model_or_space_alive():
    space = FeatureSpace.of("dropped", "too")
    model = Or((Var("dropped"), Var("too")))
    assert len(valid_products(model, space)) == 3
    assert valid_products(model, space) is valid_products(model, space)
    dropped = [weakref.ref(model), weakref.ref(space)]
    del model, space
    gc.collect()
    assert [ref() for ref in dropped] == [None, None]


def test_a_dropped_space_frees_what_was_worked_out_over_it():
    """The shared `TRUE` keeps nothing of a space it was the model of: the
    valid products and the bit patterns live and die with the space."""
    space = FeatureSpace(tuple(f"f{i}" for i in range(16)))
    products = valid_products(TRUE, space)
    assert len(products) == 1 << 16
    assert expr_mask(Var("f15"), space) == ((1 << (1 << 15)) - 1) << (1 << 15)
    dropped = [weakref.ref(space), weakref.ref(products[0]), weakref.ref(products[-1])]
    del space, products
    gc.collect()
    assert [ref() for ref in dropped] == [None, None, None]


def test_one_model_answers_each_space_it_meets():
    """`TRUE` is the model of every specification without a feature model."""
    assert len(valid_products(TRUE, AB)) == 4
    assert len(valid_products(TRUE, ABC)) == 8
    assert {p.space for p in valid_products(TRUE, AB)} == {AB}


# --- evaluation ---------------------------------------------------------------


def test_connective_truth_tables():
    for sa, sb in itertools.product((False, True), repeat=2):
        selected = {n for n, s in (("a", sa), ("b", sb)) if s}
        p = Product.of(AB, *selected)
        assert evaluate(Implies(A, B), p) == ((not sa) or sb)
        assert evaluate(Iff(A, B), p) == (sa == sb)
        assert evaluate(Xor(A, B), p) == (sa != sb)
        assert evaluate(And((A, B)), p) == (sa and sb)
        assert evaluate(Or((A, B)), p) == (sa or sb)
        assert evaluate(Not(A), p) == (not sa)


def test_evaluate_rejects_unknown_variables():
    with pytest.raises(SpecificationError):
        evaluate(Var("z"), Product.of(AB, "a"))


@pytest.mark.parametrize("expr", [And((A, "a")), Or((B, 3)), Not(3), Implies(A, None)], ids=repr)
def test_evaluate_rejects_a_nested_non_expression(expr):
    p = Product.of(AB, "a")
    with pytest.raises(SpecificationError, match="not a feature expression"):
        evaluate(expr, p)
    with pytest.raises(SpecificationError, match="not a feature expression"):
        evaluator(p)(expr)


def test_empty_connectives_evaluate_as_their_units():
    for p in all_products(AB):
        assert evaluate(And(()), p) is True
        assert evaluate(Or(()), p) is False


def test_first_product_in_follows_valid_products_order():
    model = Or((A, B))
    products = valid_products(model, AB)
    for mask in range(16):
        chosen = products_in(mask, model, AB)
        assert first_product_in(mask, model, AB) == (chosen[0] if chosen else None)
        bits = list(product_bits(mask, model, AB))
        assert bits == [(p, product_index(p)) for p in chosen]


def test_model_mask_is_read_off_the_valid_products(monkeypatch):
    model = Or((A, B))
    compiled = []

    def counting(expr, space):
        compiled.append(expr)
        return expr_mask(expr, space)

    monkeypatch.setattr(features, "expr_mask", counting)
    for space in (AB, ABC, AB):
        assert model_mask(model, space) == expr_mask(model, space)
        assert model_mask(model, space) == sum(
            1 << product_index(p) for p in valid_products(model, space)
        )
    assert compiled == []


def test_empty_conjunction_is_true_and_empty_disjunction_is_false():
    assert conj(()) is TRUE
    assert disj(()) is FALSE
    assert conj((A,)) is A
    assert disj((A,)) is A


def test_variables():
    expr = Implies(And((A, Not(B))), Xor(C, TRUE))
    assert variables(expr) == frozenset({"a", "b", "c"})


def test_variables_keeps_no_expression_alive():
    expr = And((Var("kept"), Not(Var("gone"))))
    assert variables(expr) == frozenset({"kept", "gone"})
    dropped = weakref.ref(expr)
    del expr
    gc.collect()
    assert dropped() is None


def test_operator_sugar():
    p = Product.of(AB, "a")
    assert evaluate((A & ~B) | B, p)


# --- product characterisation --------------------------------------------------


def test_product_expr_characterises_exactly_one_product():
    for p in all_products(ABC):
        expr = product_expr(p)
        for q in all_products(ABC):
            assert evaluate(expr, q) == (p == q)


def test_product_index_is_the_bit_of_the_products_own_mask():
    # Declaration order differs from name order, so bit order and the
    # lexicographic order of `valid_products` differ too.
    space = FeatureSpace.of("f", "b", "e", "a", "d", "c")
    model = parse_expr("(a -> b) && !(c && d)")
    valid = valid_products(model, space)
    assert 0 < len(valid) < 64
    for p in all_products(space):
        bit = 1 << product_index(p)
        assert expr_mask(product_expr(p), space) == bit
        assert products_in(bit, model, space) == ((p,) if p in valid else ())


def test_product_set_expr_characterises_exactly_the_set():
    chosen = [p for p in all_products(ABC) if len(p.selected) == 1]
    expr = product_set_expr(chosen, ABC)
    for q in all_products(ABC):
        assert evaluate(expr, q) == (q in chosen)


def test_product_set_expr_of_empty_set_is_unsatisfiable():
    assert not is_satisfiable(product_set_expr([], ABC), ABC)


def test_product_set_expr_rejects_foreign_spaces():
    with pytest.raises(SpecificationError):
        product_set_expr([Product.of(AB, "a")], ABC)


# --- satisfiability and entailment ---------------------------------------------


def test_satisfiability_ranges_over_all_products_not_only_valid_ones():
    # b && !a is satisfied only by {b}; whether {b} passes some feature
    # model is irrelevant to satisfiability.
    assert is_satisfiable(And((B, Not(A))), AB)


def test_entails_and_equivalent():
    assert entails(And((A, B)), A, AB)
    assert not entails(A, And((A, B)), AB)
    assert expr_mask(Implies(A, B), AB) == expr_mask(Or((Not(A), B)), AB)
    assert expr_mask(A, AB) != expr_mask(B, AB)


def test_masks_refuse_spaces_above_the_product_bound():
    big = FeatureSpace.of(*[f"f{i}" for i in range(17)])
    with pytest.raises(ResourceLimitError) as refused:
        is_satisfiable(Var("f0"), big)
    assert refused.value.bound == "products"
    assert str(refused.value) == "products of the 17-feature space: 131072, above the bound 65536"


def test_mask_rejects_unknown_variables():
    with pytest.raises(SpecificationError, match="undeclared features"):
        expr_mask(And((A, Var("z"))), AB)


# --- formatting -----------------------------------------------------------------


@pytest.mark.parametrize(
    "expr, text",
    [
        (And((A, B)), "a && b"),
        (Or((And((A, B)), C)), "a && b || c"),
        (And((A, Or((B, C)))), "a && (b || c)"),
        (Not(A), "!a"),
        (Not(And((A, B))), "!(a && b)"),
        (Implies(A, Implies(B, C)), "a -> b -> c"),
        (Implies(Implies(A, B), C), "(a -> b) -> c"),
        (Xor(A, And((B, C))), "a xor b && c"),
        (Iff(A, Implies(B, C)), "a <-> b -> c"),
        (Implies(A, Iff(B, C)), "a -> (b <-> c)"),
        (TRUE, "true"),
        (FALSE, "false"),
    ],
)
def test_format_expr_minimal_parentheses(expr, text):
    assert format_expr(expr) == text
    assert parse_expr(text) == expr


# --- property tests --------------------------------------------------------------

NAMES = ("a", "b", "c", "d")
SPACE4 = FeatureSpace.of(*NAMES)

exprs = st.recursive(
    st.sampled_from([TRUE, FALSE, A, B, C, Var("d")]),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(And),
        st.tuples(kids, kids).map(Or),
        st.tuples(kids, kids).map(lambda ab: Implies(*ab)),
        st.tuples(kids, kids).map(lambda ab: Iff(*ab)),
        st.tuples(kids, kids).map(lambda ab: Xor(*ab)),
    ),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exprs)
def test_mask_agrees_with_evaluation(expr):
    mask = expr_mask(expr, SPACE4)
    for p in all_products(SPACE4):
        bit = sum(1 << SPACE4.names.index(name) for name in p.selected)
        assert (mask >> bit) & 1 == brute_holds(expr, p)
    assert is_satisfiable(expr, SPACE4) == brute_satisfiable(expr, SPACE4)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exprs)
def test_format_then_parse_preserves_meaning(expr):
    reparsed = parse_expr(format_expr(expr))
    for p in all_products(SPACE4):
        assert evaluate(reparsed, p) == evaluate(expr, p)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exprs)
def test_format_parse_reaches_a_fixpoint(expr):
    once = parse_expr(format_expr(expr))
    twice = parse_expr(format_expr(once))
    assert once == twice


@settings(max_examples=150, deadline=None, derandomize=True)
@given(exprs)
def test_simplified_preserves_meaning(expr):
    simple = simplified(expr)
    for p in all_products(SPACE4):
        assert evaluate(simple, p) == evaluate(expr, p)


def test_simplified_dedups_in_linear_time(monkeypatch):
    """Removing duplicate operands hashes them instead of scanning the kept
    ones, so the equality tests grow linearly with a disjunction's products."""
    from feta.values import Value

    calls = []
    compare = Value.__eq__

    def counting(self, other):
        calls.append(None)
        return compare(self, other)

    monkeypatch.setattr(Value, "__eq__", counting)
    per_product = {}
    for k in (6, 9):
        space = FeatureSpace.of(*(f"f{i}" for i in range(k)))
        expr = Or(tuple(product_expr(p) for p in all_products(space)))
        calls.clear()
        simple = simplified(expr)
        per_product[k] = len(calls) / 2**k
        assert simple == expr
    # A scan of the kept operands would cost each product 8 times as much
    # at k = 9 as at k = 6; hashing leaves that cost near flat.
    assert per_product[9] < 2 * per_product[6]


def test_each_node_hashes_its_tree_once(monkeypatch):
    """A node keeps its hash, so 2^k conjunctions sharing one disjunction
    of 2^k products hash it once: the `_key` calls grow linearly in 2^k."""
    calls = []
    for cls in (Var, Not, And, Or):

        def counting(self, key=cls._key):
            calls.append(None)
            return key(self)

        monkeypatch.setattr(cls, "_key", counting)
    per_node = {}
    for k in (6, 9):
        space = FeatureSpace.of(*(f"f{i}" for i in range(k)))
        shared = Or(tuple(product_expr(p) for p in all_products(space)))
        nodes = [And((Var(f"x{i}"), shared)) for i in range(2**k)]
        calls.clear()
        for node in nodes:
            hash(node)
        per_node[k] = len(calls) / 2**k
    # Rehashing the shared disjunction would cost each node 8 times as much
    # at k = 9 as at k = 6.
    assert per_node[9] < 2 * per_node[6]
