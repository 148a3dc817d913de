import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minpl.context import parse_context
from minpl.syntax import (
    Atom,
    Forall,
    Formula,
    Func,
    Imp,
    NotNegative,
    ParseError,
    Polarity,
    Var,
    barendregt_rename,
    decompose,
    parse_formula,
    pieces,
    polarity,
    print_formula,
)
from minpl.systemf import parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    ROTATION_WITNESSES,
    binders,
    bound_vars,
    context_formulas,
    debruijn,
    formulas,
    ftypes,
    position_formulas,
    reference_parse,
    reference_polarity,
    reference_print_type,
    reference_rename,
    reference_scope_table,
    stored_scopes,
    subnodes,
)

P_OF_X = Atom("P", (Var("x"),))
Q = Atom("Q")


# ---------------------------------------------------------------------------
# Parsing


def test_parse_smallest_implication():
    assert parse_formula("P -> P") == Imp(Atom("P"), Atom("P"))


def test_parse_quantifier_scopes_over_arrow():
    assert parse_formula("forall x. P(x) -> Q") == Forall("x", Imp(P_OF_X, Q))


def test_parse_example_one_shape():
    f = parse_formula("((forall x. (P(x) -> Q)) -> Q) -> Q")
    assert f == Imp(Imp(Forall("x", Imp(P_OF_X, Q)), Q), Q)


def test_parse_arrow_right_associative():
    assert parse_formula("P -> Q -> R") == Imp(Atom("P"), Imp(Q, Atom("R")))


def test_parse_terms_and_primes():
    f = parse_formula("R(f(x, y), g(c'))")
    assert f == Atom(
        "R", (Func("f", (Var("x"), Var("y"))), Func("g", (Var("c'"),)))
    )


@pytest.mark.parametrize(
    "text",
    ["", "P ->", "forall . P", "forall x P(x)", "(P -> Q", "P(", "P)", "-> Q", "P(x,)"],
)
def test_parse_errors_carry_positions(text):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert isinstance(err.value.position, int)
    assert 0 <= err.value.position <= len(text)


def test_forall_is_reserved():
    with pytest.raises(ParseError):
        parse_formula("forall -> Q")


_ATOMS = {"formula": ("Q", "P(x)", "P(f(x), y)"), "type": ("X", "Y")}
_NOISE = ("forall", "x", "X", "P", "f", "(", ")", ",", ".", "->", "[", "@")


def near_grammatical(rng: random.Random, kind: str, depth: int = 0) -> list[str]:
    """Tokens of a random formula or type with nested parentheses, sometimes
    with a token dropped, added or replaced."""
    r = rng.random()
    if depth > 5 or r < 0.3:
        out = [rng.choice(_ATOMS[kind])]
    elif r < 0.45:
        out = ["forall", rng.choice("xyXY"), "."] + near_grammatical(rng, kind, depth + 1)
    elif r < 0.7:
        out = ["("] + near_grammatical(rng, kind, depth + 1) + [")"]
    else:
        left = near_grammatical(rng, kind, depth + 1)
        out = left + ["->"] + near_grammatical(rng, kind, depth + 1)
    if depth == 0:
        for _ in range(rng.choice((0, 0, 1, 2))):
            i = rng.randrange(len(out) + 1)
            edit = rng.random()
            if edit < 0.4 and i < len(out):
                del out[i]
            elif edit < 0.7 or i == len(out):
                out.insert(i, rng.choice(_NOISE))
            else:
                out[i] = rng.choice(_NOISE)
    return out


@pytest.mark.parametrize("kind", ["formula", "type"])
def test_spine_parser_matches_recursive_reference(kind):
    parse = parse_formula if kind == "formula" else parse_type
    rng = random.Random(kind)
    parsed = failed = 0
    for _ in range(20_000):
        text = " ".join(near_grammatical(rng, kind))
        try:
            expected = reference_parse(text, kind)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (str(err.value), err.value.position) == (str(exc), exc.position), text
            failed += 1
            continue
        got = parse(text)
        assert got == expected and repr(got) == repr(expected), text
        parsed += 1
    assert parsed > 5000 and failed > 2000, (parsed, failed)


@pytest.mark.parametrize("depth", [600, 5000])
def test_deeply_parenthesized_input_parses(depth):
    text = "(" * depth + "Q -> Q" + ")" * depth
    assert parse_formula(text) == Imp(Q, Q)
    assert parse_type(text.replace("Q", "X")) == parse_type("X -> X")
    with pytest.raises(ParseError) as err:
        parse_formula(text[:-1])
    assert str(err.value) == f"expected ')', found end of input (at position {len(text) - 1})"


@pytest.mark.parametrize("depth", [1000, 5000])
def test_deeply_nested_terms_parse(depth):
    text = "P(" + "f(" * depth + "x, y" + ")" * (depth + 1)
    t = parse_formula(text).terms[0]
    for _ in range(depth - 1):
        assert isinstance(t, Func) and t.name == "f" and len(t.args) == 1
        t = t.args[0]
    assert t == Func("f", (Var("x"), Var("y")))
    with pytest.raises(ParseError) as err:
        parse_formula(text[:-1])
    assert str(err.value) == f"expected ')', found end of input (at position {len(text) - 1})"


# ---------------------------------------------------------------------------
# Atom sharing: equal atoms and variables of one parse are one object, and
# nothing is shared between parses

PUBLISHED = DERIVABLE_TRUE + DERIVABLE_FALSE + (ROTATION_WITNESSES["formula"],)


def assert_nullary_atoms_shared(x) -> None:
    by_pred = {}
    for node in subnodes(x):
        if isinstance(node, Atom) and not node.terms:
            assert by_pred.setdefault(node.pred, node) is node, node.pred


@pytest.mark.parametrize("text", PUBLISHED)
def test_equal_nullary_atoms_of_one_parse_are_one_object(text):
    assert_nullary_atoms_shared(parse_formula(text))


def test_equal_atoms_and_variables_of_one_parse_are_one_object_on_generated_input(corpus):
    for f in corpus[:500]:
        text = print_formula(f)
        for parsed in (parse_formula(text), parse_context(text)):
            assert_nullary_atoms_shared(parsed)
            assert_atoms_and_vars_shared(parsed)


def test_equal_nullary_atoms_of_one_context_parse_are_one_object():
    c = parse_context("Q, Q -> R, [forall y. P(y) -> Q]_{x}, [[R -> Q]_{y}]_{x}")
    assert_nullary_atoms_shared(c)
    first, second = c.items[0].formula, c.items[1].formula.left
    assert first is second


def assert_atoms_and_vars_shared(x) -> None:
    by_text = {}
    for node in subnodes(x):
        if isinstance(node, (Atom, Var)):
            assert by_text.setdefault((type(node), str(node)), node) is node, str(node)


@pytest.mark.parametrize("text", PUBLISHED)
def test_equal_atoms_and_variables_of_one_parse_are_one_object(text):
    assert_atoms_and_vars_shared(parse_formula(text))
    assert_atoms_and_vars_shared(parse_context(text))


def test_atoms_with_arguments_are_shared_by_their_tokens():
    f = parse_formula("P(x, f(y)) -> P(x,f(y)) -> (forall z. Q(z) -> P(x, f(y))) -> Q(y)")
    assert f.left is f.right.left is f.right.right.left.body.right
    assert f.left.terms[1].args[0] is f.right.right.right.terms[0]
    assert_atoms_and_vars_shared(f)


@pytest.mark.parametrize("text", INHABITED_TRUE + INHABITED_FALSE + (ROTATION_WITNESSES["type"],))
def test_one_translation_makes_one_eps_atom_per_type_variable(text):
    f = parse_type(text)
    assert_atoms_and_vars_shared(f)
    assert {id(n) for n in subnodes(f)}.isdisjoint(id(n) for n in subnodes(parse_type(text)))


@pytest.mark.parametrize("text", PUBLISHED)
def test_two_parses_share_no_node(text):
    first, second = parse_formula(text), parse_formula(text)
    assert first == second
    assert {id(n) for n in subnodes(first)}.isdisjoint(id(n) for n in subnodes(second))
    one, other = parse_context(text), parse_context(text)
    assert {id(n) for n in subnodes(one)}.isdisjoint(id(n) for n in subnodes(other))


def test_shared_parse_equals_and_prints_as_the_unshared_one(corpus):
    texts = list(PUBLISHED) + [print_formula(f) for f in corpus[:500]]
    for text in texts:
        got, expected = parse_formula(text), reference_parse(text, "formula")
        assert got == expected and repr(got) == repr(expected), text
        assert print_formula(got) == print_formula(expected), text
    for f in corpus[:500]:
        assert parse_formula(print_formula(f)) == f


# ---------------------------------------------------------------------------
# Printing


def test_print_bare_atom():
    assert print_formula(Q) == "Q"


def test_print_quantified_implication():
    assert print_formula(Forall("x", Imp(P_OF_X, Q))) == "forall x. (P(x) -> Q)"


def test_print_nested_parenthesization():
    f = parse_formula("((forall x. (P(x) -> Q)) -> Q) -> Q")
    assert print_formula(f) == "((forall x. (P(x) -> Q)) -> Q) -> Q"


@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


# ---------------------------------------------------------------------------
# Variables


def test_free_vars_open_implication():
    assert parse_formula("P(x) -> Q").fv == {"x"}


def test_free_vars_closed_by_quantifier():
    assert parse_formula("forall x. (P(x) -> Q)").fv == frozenset()


def test_free_vars_flattening_component():
    assert parse_formula("P(x') -> P(y')").fv == {"x'", "y'"}


def test_free_vars_on_terms():
    assert Func("f", (Var("x"), Func("g", (Var("y"),)))).fv == {"x", "y"}


def test_bound_vars_single_binder():
    assert bound_vars(parse_formula("forall x. (P(x) -> Q)")) == ("x",)


def test_bound_vars_left_to_right():
    f = parse_formula("forall Y. forall Z. (((Y -> X) -> Z) -> ((Y -> Z) -> Z))")
    assert bound_vars(f) == ("Y", "Z")


def test_bound_vars_none():
    assert bound_vars(parse_formula("P -> Q")) == ()


def test_bound_vars_on_long_prefixes_and_left_nesting():
    f = parse_formula("".join(f"forall x{i}. " for i in range(3000)) + "(Q -> Q)")
    assert bound_vars(f) == tuple(f"x{i}" for i in range(3000))
    g = parse_formula("(" * 2000 + "forall y. Q" + ") -> forall y. Q" * 2000)
    assert bound_vars(g) == ("y",) * 2001


# ---------------------------------------------------------------------------
# Polarity and decomposition


def test_polarity_of_twice_used_hypothesis_formula():
    # quantifier-free, so it is negative as well: the point is that it is
    # positive and therefore in the decidable fragment
    f = parse_formula("((((P -> Q) -> P) -> P) -> Q) -> Q")
    assert polarity(f) in (Polarity.POSITIVE, Polarity.BOTH)


def test_polarity_universal_never_negative():
    assert polarity(parse_formula("forall x. P(x)")) is Polarity.POSITIVE


def test_polarity_atom_is_both():
    assert polarity(Atom("P")) is Polarity.BOTH


def assert_stored_analyses_match_the_references(f) -> None:
    """The stored polarity bits and binder count of every subformula against
    the plain recursion and the binders counted afresh."""
    for g in position_formulas(f):
        assert polarity(g) == reference_polarity(g), str(g)
        assert g.nbinders == len(bound_vars(g)), str(g)


@given(formulas, ftypes)
def test_polarity_matches_recursive_reference(f, t):
    assert polarity(f) == reference_polarity(f)
    assert polarity(parse_type(reference_print_type(t))) == reference_polarity(t)
    assert_stored_analyses_match_the_references(f)
    assert_stored_analyses_match_the_references(t)


def test_stored_polarity_and_binder_count_on_published_and_generated_formulas(corpus):
    published = [parse_formula(text) for text in PUBLISHED]
    types = INHABITED_TRUE + INHABITED_FALSE + (ROTATION_WITNESSES["type"],)
    published += [parse_type(text) for text in types]
    for f in published + list(corpus):
        assert_stored_analyses_match_the_references(f)


# one formula of each polarity class
POLARITY_CLASSES = {
    Polarity.BOTH: "Q",
    Polarity.POSITIVE: "forall x. P(x)",
    Polarity.NEGATIVE: "(forall x. P(x)) -> Q",
    Polarity.NEITHER: "(forall x. P(x)) -> forall y. Q",
}


def test_polarity_of_each_pair_of_operand_classes_matches_recursive_reference():
    """Every entry of the rule that builds ``pol``: an implication over each
    ordered pair of classes, and a universal over each class."""
    samples = [parse_formula(text) for text in POLARITY_CLASSES.values()]
    assert [polarity(f) for f in samples] == list(POLARITY_CLASSES)
    for left, right in itertools.product(samples, repeat=2):
        f = Imp(left, right)
        assert polarity(f) == reference_polarity(f), str(f)
    for body in samples:
        f = Forall("z", body)
        assert polarity(f) == reference_polarity(f), str(f)


def test_polarity_neither():
    # a universal on the left of a universal: neither positive nor negative
    f = parse_formula("(forall x. P(x)) -> forall y. Q")
    assert polarity(f) is Polarity.NEITHER


def test_decompose_spine():
    f = parse_formula("A1 -> A2 -> P")
    head, args = decompose(f)
    assert head == Atom("P")
    assert args == (Atom("A1"), Atom("A2"))


def test_decompose_bare_atom():
    assert decompose(Atom("P")) == (Atom("P"), ())


def test_decompose_rejects_quantifier_on_spine():
    with pytest.raises(NotNegative):
        decompose(parse_formula("forall x. P(x)"))
    with pytest.raises(NotNegative):
        decompose(parse_formula("P -> forall x. Q(x)"))


@given(formulas)
def test_decompose_characterizes_negative_formulas(f):
    pol = polarity(f)
    try:
        head, args = decompose(f)
    except NotNegative:
        # failure means a quantifier on the spine, which rules out negativity
        assert pol not in (Polarity.NEGATIVE, Polarity.BOTH)
        return
    rebuilt = head
    for arg in reversed(args):
        rebuilt = Imp(arg, rebuilt)
    assert rebuilt == f
    # an atomic spine alone is not enough: the decomposition is a negative
    # formula's exactly when the arguments are all positive
    args_positive = all(polarity(a) in (Polarity.POSITIVE, Polarity.BOTH) for a in args)
    assert args_positive == (pol in (Polarity.NEGATIVE, Polarity.BOTH))


# ---------------------------------------------------------------------------
# Renaming


def test_rename_leaves_barendregt_input_alone():
    f = parse_formula("forall x. P(x)")
    assert barendregt_rename(f) == f


def test_rename_separates_clashing_binders():
    f = parse_formula("(forall x. P(x)) -> forall x. Q(x)")
    renamed = barendregt_rename(f)
    assert renamed == parse_formula("(forall x. P(x)) -> forall x_1. Q(x_1)")


def test_rename_avoids_free_variables():
    f = parse_formula("P(x) -> forall x. Q(x)")
    renamed = barendregt_rename(f)
    assert renamed == parse_formula("P(x) -> forall x_1. Q(x_1)")


@given(formulas)
def test_rename_establishes_barendregt_condition(f):
    renamed = barendregt_rename(f)
    bound = bound_vars(renamed)
    assert len(bound) == len(set(bound))
    assert not (set(bound) & renamed.fv)
    # alpha-equivalent to the input and free variables untouched
    assert debruijn(renamed) == debruijn(f)
    assert renamed.fv == f.fv


clashing_names = st.sampled_from(("x", "x_1", "x_2", "y"))
clashing_formulas = st.recursive(
    st.builds(
        Atom,
        st.sampled_from(("P", "Q")),
        st.just(()) | st.tuples(st.builds(Var, clashing_names)),
    ),
    lambda kids: st.builds(Imp, kids, kids) | st.builds(Forall, clashing_names, kids),
    max_leaves=12,
)


@given(formulas | clashing_formulas)
def test_rename_matches_the_rebuilding_reference(f):
    renamed, expected = barendregt_rename(f), reference_rename(f)
    assert renamed == expected and repr(renamed) == repr(expected)


def _shares_what_it_keeps(new, old) -> None:
    """Wherever the renamed subtree equals the input's at the same
    position, it is the input's own object."""
    stack = [(new, old)]
    while stack:
        a, b = stack.pop()
        if a == b:
            assert a is b, a
        elif isinstance(a, Imp):
            stack += [(a.left, b.left), (a.right, b.right)]
        elif isinstance(a, Forall):
            stack.append((a.body, b.body))
        elif isinstance(a, Atom):
            stack += zip(a.terms, b.terms)
        elif isinstance(a, Func):
            stack += zip(a.args, b.args)


@given(formulas | clashing_formulas)
def test_rename_shares_untouched_subtrees(f):
    renamed = barendregt_rename(f)
    _shares_what_it_keeps(renamed, f)
    bound = bound_vars(f)
    if len(bound) == len(set(bound)) and not set(bound) & f.fv:
        assert renamed is f
    # the input itself exactly when the rebuilding reference renames nothing
    assert (renamed is f) == (reference_rename(f) == f)


def test_rename_returns_apart_input_itself():
    f = parse_formula("forall x. (forall y. P(x, f(y))) -> Q(z)")
    assert barendregt_rename(f) is f


def test_rename_keeps_untouched_subtrees():
    f = parse_formula("(forall x. P(x)) -> (forall x. Q(x, g(y))) -> R(y)")
    renamed = barendregt_rename(f)
    assert renamed == parse_formula("(forall x. P(x)) -> (forall x_1. Q(x_1, g(y))) -> R(y)")
    assert renamed.left is f.left
    assert renamed.right.right is f.right.right
    assert renamed.right.left.body.terms[1] is f.right.left.body.terms[1]


# ---------------------------------------------------------------------------
# Pieces


def test_pieces_of_quantified_implication():
    f = parse_formula("forall x. (P(x) -> Q)")
    assert pieces(f) == {f, parse_formula("P(x) -> Q"), P_OF_X, Q}


def test_pieces_of_atom():
    assert pieces(Q) == {Q}


@given(formulas)
def test_pieces_match_positions_and_are_closed(f):
    expected = set(position_formulas(f))
    got = pieces(f)
    assert got == expected
    for piece in got:
        assert pieces(piece) <= got


def test_pieces_count_equals_positions_when_subtrees_distinct():
    f = parse_formula("forall x. (P(x) -> Q)")
    assert len(pieces(f)) == len(position_formulas(f))


# ---------------------------------------------------------------------------
# Scope tables


def test_scope_of_a_single_binder():
    f = parse_formula("forall x. (P(x) -> Q)")
    assert stored_scopes(f) == {"x": frozenset({"x"})}
    assert reference_scope_table(f) == ({"x": frozenset({"x"})}, 1)


def test_scopes_of_a_prenex_prefix():
    f = parse_formula(
        "forall X. forall Y. forall Z. (((((Y -> X) -> Z) -> ((Y -> Z) -> Z)) -> X) -> X)"
    )
    assert f.scope == {"X", "Y", "Z"}
    assert f.body.scope == {"Y", "Z"}
    assert f.body.body.scope == {"Z"}
    assert stored_scopes(f) == reference_scope_table(f).scopes


def test_scope_of_clashing_binders_is_the_set_of_their_names():
    f = parse_formula("forall x. forall x. P(x)")
    assert f.scope == f.body.scope == {"x"} and f.nbinders == 2
    renamed = barendregt_rename(f)
    assert renamed is not f and renamed.scope == {"x", "x_1"}


def every_scope_matches_the_reference(f: Formula) -> int:
    """Compare the stored scope of every binder in ``f`` with its bound
    variables collected afresh, and, once renamed, the scope of each binder
    with the reference table; the number of binders checked."""
    found = binders(f)
    for g in found:
        assert g.scope == frozenset(bound_vars(g)), str(g)
    renamed = barendregt_rename(f)
    assert stored_scopes(renamed) == reference_scope_table(renamed).scopes, str(f)
    return len(found)


@given(formulas | clashing_formulas)
def test_stored_scopes_match_the_reference_on_parsed_and_renamed_formulas(f):
    # binders are drawn from four names, so most clash and renaming rebuilds them
    every_scope_matches_the_reference(f)
    every_scope_matches_the_reference(parse_formula(print_formula(f)))


@given(ftypes)
def test_stored_scopes_match_the_reference_on_translations(t):
    every_scope_matches_the_reference(parse_type(reference_print_type(t)))


@given(st.lists(formulas, min_size=1, max_size=4))
def test_stored_scopes_match_the_reference_on_context_items(fs):
    text = ", ".join(f"[{print_formula(f)}]_{{x}}" if i % 2 else print_formula(f)
                     for i, f in enumerate(fs))
    for item in context_formulas(parse_context(text)):
        every_scope_matches_the_reference(item)


@given(formulas)
def test_stored_scopes_survive_copies_and_pickles(f):
    for again in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert again == f
        every_scope_matches_the_reference(again)
        assert [g.scope for g in binders(again)] == [g.scope for g in binders(f)]


def test_stored_scopes_on_the_published_examples_and_witnesses():
    roots = [parse_formula(t) for t in DERIVABLE_TRUE + DERIVABLE_FALSE]
    roots += [parse_type(t) for t in INHABITED_TRUE + INHABITED_FALSE]
    roots.append(parse_formula(ROTATION_WITNESSES["formula"]))
    roots.append(parse_type(ROTATION_WITNESSES["type"]))
    assert sum(map(every_scope_matches_the_reference, roots)) > 15


def test_pieces_and_scopes_of_long_prefixes_and_left_nesting():
    prefix = parse_formula("".join(f"forall x{i}. " for i in range(1000)) + "(Q -> Q)")
    assert len(pieces(prefix)) == 1002
    scopes = stored_scopes(prefix)
    assert list(scopes) == [f"x{i}" for i in range(1000)] and prefix.scope == set(scopes)
    assert scopes["x990"] == {f"x{i}" for i in range(990, 1000)}
    assert reference_scope_table(prefix).depth == 1000
    tail = "".join(f") -> forall y{i}. Q" for i in range(1, 1501))
    nested = parse_formula("(" * 1500 + "forall y0. Q" + tail)
    assert len(pieces(nested)) == 3002
    scopes = stored_scopes(nested)
    assert list(scopes) == [f"y{i}" for i in range(1501)]
    assert all(scopes[x] == {x} for x in scopes)
    assert barendregt_rename(nested) is nested


@given(formulas)
def test_scope_linearity(f):
    scopes = stored_scopes(barendregt_rename(f))
    names = list(scopes)
    for x in names:
        for y in names:
            if x == y:
                continue
            shared = (scopes[x] & scopes[y]) - {x, y}
            for _ in shared:
                assert x in scopes[y] or y in scopes[x]
