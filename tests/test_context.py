import copy
import random

import pytest
from hypothesis import given, strategies as st

from minpl.context import (
    BracketItem,
    Context,
    FormulaItem,
    bracket,
    fuse,
    insert,
    measure,
    normalize,
    parse_context,
)
from minpl.syntax import Node, ParseError, parse_formula

from helpers import (
    clean_form,
    is_clean,
    left_chain,
    nested_brackets,
    random_context,
    recursion_limit,
    reference_free_vars,
    rewrite_steps,
    sorted_levels,
)


def ctx(text: str) -> Context:
    return normalize(parse_context(text))


def item(text: str) -> FormulaItem:
    return FormulaItem(parse_formula(text))


# ---------------------------------------------------------------------------
# Free variables


def test_free_vars_of_fully_bracketed_context():
    c = parse_context("[P(x) -> P(y)]_{x,y}, [P(x)]_{x}")
    assert reference_free_vars(c) == frozenset()


def test_free_vars_of_formula_item():
    assert reference_free_vars(item("P(x) -> Q")) == {"x"}


def test_free_vars_bracket_subtracts_bound():
    c = parse_context("[P(x) -> Q(z)]_{x}")
    assert reference_free_vars(c) == {"z"}


# ---------------------------------------------------------------------------
# Measure


def test_measure_single_formula():
    assert measure(ctx("P")) == 1


def test_measure_bracket_of_two():
    assert measure(parse_context("[P, Q]_{v}")) == 5


def test_measure_empty():
    assert measure(Context()) == 0


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_drops_empty_bracket():
    c = parse_context("[]_{v}, P")
    assert normalize(c) == ctx("P")


def test_normalize_hoists_disjoint_item():
    c = parse_context("[Q, P(x)]_{x}")
    assert normalize(c) == ctx("Q, [P(x)]_{x}")


def test_normalize_collapses_duplicate_brackets():
    c = parse_context("[P(x)]_{x}, [P(x)]_{x}")
    assert normalize(c) == ctx("[P(x)]_{x}")


def test_normalize_recursive_example():
    # inner empty bracket vanishes, Q escapes two levels, duplicates collapse
    c = parse_context("[Q, [ ]_{y}, P(x)]_{x}, Q")
    assert normalize(c) == ctx("Q, [P(x)]_{x}")


# ---------------------------------------------------------------------------
# Fuse


def test_fuse_identity():
    b = ctx("P(x) -> Q, [P(x)]_{x}")
    assert fuse(Context(), b) == b
    assert fuse(b, Context()) == b


def test_fuse_with_empty_returns_the_other_operand():
    c = ctx("P, [P(x)]_{x}")
    assert fuse(c, Context()) is c
    assert fuse(Context(), c) is c


def test_fuse_collapses_duplicates():
    a = ctx("Q")
    assert fuse(a, a) == a


def test_fuse_disjoint_items_merge_in_order():
    merged = fuse(ctx("P"), ctx("[P(x)]_{x}"))
    assert merged == ctx("P, [P(x)]_{x}")
    assert [str(i) for i in merged.items] == ["P", "[P(x)]_{x}"]


# ``fuse``, ``insert`` and ``bracket`` are checked against ``clean_form``, the
# cleaning rules applied one step at a time, on contexts the rules cleaned


def clean(seed: int) -> Context:
    return clean_form(random_context(random.Random(seed)))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_fuse_equals_normalize_of_union_and_commutes(seed_a, seed_b):
    a, b = clean(seed_a), clean(seed_b)
    assert fuse(a, b) == clean_form(Context(a.items + b.items))
    assert fuse(a, b) == fuse(b, a)


@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(0, 10_000))
def test_fuse_associative(sa, sb, sc):
    a, b, c = clean(sa), clean(sb), clean(sc)
    assert fuse(fuse(a, b), c) == fuse(a, fuse(b, c))


# on contexts of formula and bracket items that share some of their items
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_fuse_and_insert_equal_the_clean_form(seed_a, seed_b):
    rng = random.Random(seed_b)
    a = clean(seed_a)
    shared = tuple(i for i in a.items if rng.random() < 0.5)
    b = clean_form(Context(random_context(rng).items + shared))
    for x, y in ((a, b), (b, a), (a, a), (a, Context()), (Context(), b)):
        expected = clean_form(Context(x.items + y.items))
        assert fuse(x, y) == expected
        assert str(fuse(x, y)) == str(expected)
    for i in a.items + b.items:
        expected = clean_form(Context(a.items + (i,)))
        assert insert(a, i) == expected
        assert str(insert(a, i)) == str(expected)
        assert is_clean(insert(a, i))


@given(st.integers(0, 10_000))
def test_insert_returns_the_context_itself_when_the_item_is_there(seed):
    a = clean(seed)
    for i in a.items:
        assert insert(a, i) is a
        # an equal item built apart, through the constructor, is found as well
        rebuilt = copy.copy(i)
        assert rebuilt is not i and insert(a, rebuilt) is a


@given(st.integers(0, 10_000), st.sampled_from(({"x"}, {"y", "z"}, {"x", "y"})))
def test_bracket_equals_the_clean_form_of_one_bracket(seed, bound):
    c, v = clean(seed), frozenset(bound)
    expected = clean_form(Context((BracketItem(c, v),)))
    assert bracket(c, v) == expected
    assert str(bracket(c, v)) == str(expected)


# ---------------------------------------------------------------------------
# Bracket


def test_bracket_splits_on_free_variables():
    c = ctx("Q -> Q, P(x) -> Q")
    assert bracket(c, {"x"}) == ctx("Q -> Q, [P(x) -> Q]_{x}")


def test_bracket_of_empty_is_empty():
    assert bracket(Context(), {"v"}) == Context()


def test_bracket_collapses_with_existing_bracket():
    c = ctx("[P(x) -> Q]_{x}, P(x) -> Q")
    assert bracket(c, {"x"}) == ctx("[P(x) -> Q]_{x}")


def test_bracket_no_op_when_all_items_disjoint():
    c = ctx("Q, [P(x)]_{x}")
    assert bracket(c, {"x"}) == c


@given(st.integers(0, 10_000), st.sets(st.sampled_from(("x", "y", "z")), max_size=2))
def test_bracket_output_split_and_cleanliness(seed, bound):
    c = normalize(random_context(random.Random(seed)))
    v = frozenset(bound)
    out = bracket(c, v)
    assert is_clean(out)
    # every item left at the outer level is variable-disjoint from v
    for i in out.items:
        assert not (reference_free_vars(i) & v)
    # a freshly created bracket holds exactly the items that intersect v
    for i in out.items:
        if isinstance(i, BracketItem) and i.bound == v and i not in c.items:
            for inner in i.content.items:
                assert reference_free_vars(inner) & v
    assert reference_free_vars(out) == reference_free_vars(c) - v


# ---------------------------------------------------------------------------
# Cleanliness and the rewrite relation


def test_is_clean_accepts_normal_context():
    assert is_clean(ctx("Q, [P(x)]_{x}"))


def test_is_clean_rejects_hoistable_item():
    assert not is_clean(parse_context("[Q]_{x}"))


def test_is_clean_rejects_duplicates_and_disorder():
    q = item("Q")
    assert not is_clean(Context((q, q)))
    assert not is_clean(Context((item("R"), item("Q"))))


@given(st.integers(0, 50_000))
def test_normalize_properties(seed):
    c = random_context(random.Random(seed))
    normal = normalize(c)
    assert is_clean(normal)
    assert normalize(normal) == normal
    assert measure(normal) <= measure(c)
    assert reference_free_vars(normal) == reference_free_vars(c)


def test_normalize_equals_the_clean_form():
    for seed in range(3_000):
        c = random_context(random.Random(seed))
        normal, reference = normalize(c), clean_form(c)
        assert normal == reference and str(normal) == str(reference), seed


@given(st.integers(0, 50_000))
def test_every_rewrite_step_strictly_decreases_measure(seed):
    c = random_context(random.Random(seed))
    for step in rewrite_steps(c):
        assert measure(step) < measure(c)


def test_cleaning_is_confluent():
    """Every context has exactly one normal form under the three cleaning
    rules, read on nested multisets, and it is what ``normalize`` returns.

    Newman's lemma: a terminating relation that is locally confluent is
    confluent.  The rules terminate, since each step strictly lowers
    ``measure``.  They are locally confluent, since every critical pair joins:
    steps at disjoint positions commute; a step inside one of two equal items
    joins by the same step inside the other, then a collapse, and so does
    hoisting an item out of one of two equal brackets; dropping one of two
    empty brackets joins with collapsing them by dropping the other; a step
    inside a bracket keeps its free variables, so it keeps what was hoistable;
    and an item that may leave a bracket which may leave its own bracket may
    leave both, in either order, since its free variables are among the
    bracket's.  So the normal form is unique, and ``normalize``, whose result
    is clean and reachable, returns it.  Here the whole rewrite graph of each
    small random context is closed, a node per nested multiset; it has one sink.
    """
    checked = branching = 0
    for seed in range(3_000):
        c = random_context(random.Random(seed))
        if measure(c) > 20:  # keeps every graph under about 1,000 nodes
            continue
        start = sorted_levels(c)
        seen, todo, sinks = {start}, [start], set()
        while todo:
            node = todo.pop()
            successors = {sorted_levels(step) for step in rewrite_steps(node)}
            branching += len(successors) > 1
            if not successors:
                sinks.add(node)
            todo += successors - seen
            seen |= successors
        normal = normalize(c)
        assert len(sinks) == 1, (seed, [str(s) for s in sinks])
        assert sinks == {normal} and str(normal) == str(*sinks), seed
        checked += 1
    assert checked > 2_000 and branching > 10_000, (checked, branching)


def test_depth_counts_nesting():
    assert ctx("Q").depth == 0
    assert parse_context("[[P(x)]_{x}, P(y)]_{x,y}").depth == 2


# ---------------------------------------------------------------------------
# Item equality: an item's key encodes it exactly, so items compare by key


def test_deep_equal_formula_items_compare_at_the_default_recursion_limit():
    with recursion_limit(1000):
        a, b = item(left_chain(900)), item(left_chain(900))
        assert a is not b and a.formula is not b.formula
        assert a == b


def test_deep_equal_bracket_items_compare_at_the_default_recursion_limit():
    with recursion_limit(1000):
        text, _ = nested_brackets(450, "clean")
        (a,), (b,) = parse_context(text).items, parse_context(text).items
        assert a is not b and a.content is not b.content
        assert a == b


def test_normalize_collapses_deep_equal_items_at_the_default_recursion_limit():
    a = left_chain(900)
    with recursion_limit(1000):
        c = normalize(parse_context(f"{a}, {a}"))
        assert len(c.items) == 1 and str(c) == a


def test_item_equality_compares_no_formula(monkeypatch):
    calls, equal = [], Node.__eq__

    def recorded_eq(self, other):
        calls.append(type(self))
        return equal(self, other)

    text = "Q, [P(x) -> Q, [S(x, z) -> Q]_{z}]_{x}"
    pairs = [(item("(P(x) -> Q) -> forall y. P(y)"), item("(P(x) -> Q) -> forall y. P(y)"))]
    pairs += zip(parse_context(text).items, parse_context(text).items)
    monkeypatch.setattr(Node, "__eq__", recorded_eq)
    assert all(a is not b and a == b for a, b in pairs)
    monkeypatch.undo()
    assert set(calls) == {FormulaItem, BracketItem}


# ---------------------------------------------------------------------------
# Serialization


def test_str_is_stable_and_parses_back():
    c = ctx("Q, [P(x) -> Q, [S(z)]_{z}]_{x,z}")
    assert parse_context(str(c)) == c


def test_bracket_serialization_sorts_bound_set():
    c = parse_context("[P(x) -> P(y)]_{y,x}")
    assert str(c) == "[P(x) -> P(y)]_{x,y}"


def test_parse_context_empty():
    assert parse_context("") == Context()
    assert parse_context("   ") == Context()


@pytest.mark.parametrize(
    "text, message",
    [
        ("[P", "expected ']', found end of input (at position 2)"),
        ("[P]_{}", "expected an identifier, found '}' (at position 5)"),
        ("P,", "expected an identifier, found end of input (at position 2)"),
        ("[P]_{x,}", "expected an identifier, found '}' (at position 7)"),
        ("[P,]_{x}", "expected an identifier, found ']' (at position 3)"),
        (",", "expected an identifier, found ',' (at position 0)"),
        ("[P]_{x y}", "expected '}', found 'y' (at position 7)"),
        ("[[P]_{x}", "expected ']', found end of input (at position 8)"),
        ("[P]_{x}]", "unexpected trailing input ']' (at position 7)"),
        ("[P]_{forall}", "expected an identifier, found 'forall' (at position 5)"),
        ("P(x,)", "expected an identifier, found ')' (at position 4)"),
        ("P, [Q(x), ]_{x}", "expected an identifier, found ']' (at position 10)"),
    ],
)
def test_parse_context_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_context(text)
    assert str(err.value) == message
