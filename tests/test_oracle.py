import pytest
from hypothesis import given, settings, strategies as st

from minpl.context import normalize, parse_context
from minpl.oracle import (
    FlatSequent,
    FreshNames,
    first_provable_depth,
    generate_positive,
    ljplus_prove,
)
from minpl.prover import Sequent
from minpl.syntax import (
    Atom,
    ParseError,
    Polarity,
    parse_formula,
    polarity,
)

from helpers import connectives, flatten, renaming_bijection


def goal_only(text: str) -> FlatSequent:
    return FlatSequent((), parse_formula(text))


# ---------------------------------------------------------------------------
# Bounded proving


def test_prove_twice_used_hypothesis_at_depth_eight():
    s = goal_only("((((P -> Q) -> P) -> P) -> Q) -> Q")
    assert ljplus_prove(s, 8)
    # eight rule applications are also necessary on the longest branch
    assert not ljplus_prove(s, 7)
    assert first_provable_depth(s, 20) == 8


@pytest.mark.parametrize("depth", [1, 3, 10, 25])
def test_bare_atom_never_provable(depth):
    assert not ljplus_prove(goal_only("Q"), depth)


def test_prove_needs_eigenvariable_renaming():
    # two uses of the quantified hypothesis force two distinct fresh names
    s = goal_only("((forall x. (((Q -> R) -> Q) -> P(x) -> Q)) -> R) -> R")
    assert first_provable_depth(s, 20) == 12


@settings(max_examples=60)
@given(st.integers(0, 5_000))
def test_monotone_in_depth(seed):
    f = generate_positive(seed, size=6, quantifier_depth=2)
    found = first_provable_depth(FlatSequent((), f), 10)
    if found is not None:
        assert ljplus_prove(FlatSequent((), f), found + 1)
        assert ljplus_prove(FlatSequent((), f), found + 5)


def test_fresh_names_are_outside_the_grammar():
    names = FreshNames()
    name = names.fresh("x")
    assert name == "x#1"
    with pytest.raises(ParseError):
        parse_formula(f"P({name})")


# ---------------------------------------------------------------------------
# Flattening


def test_flatten_renames_bracket_bound_variables():
    ctx = normalize(parse_context("[P(x) -> P(y)]_{x,y}, [P(x)]_{x}"))
    flat = flatten(Sequent(ctx, parse_formula("P(z)")))
    assert str(flat) == "P(x#1), P(x#2) -> P(y#3) |- P(z)"


def test_flatten_is_identity_without_brackets():
    ctx = normalize(parse_context("P -> Q, Q -> R"))
    flat = flatten(Sequent(ctx, parse_formula("R")))
    assert flat == FlatSequent(
        (parse_formula("P -> Q"), parse_formula("Q -> R")), parse_formula("R")
    )


def test_flattenings_with_different_counters_are_renamings():
    ctx = normalize(parse_context("[P(x) -> P(y)]_{x,y}, [P(x)]_{x}, Q -> P(z)"))
    s = Sequent(ctx, parse_formula("P(z)"))
    one = flatten(s, FreshNames(start=1))
    other = flatten(s, FreshNames(start=41))
    assert one != other
    assert renaming_bijection(one, other)


def test_flatten_nested_brackets():
    ctx = normalize(parse_context("[[P(x) -> P(y)]_{y}, S(x)]_{x}"))
    flat = flatten(Sequent(ctx, parse_formula("Q")))
    assert all("#" in name for f in flat.context for name in f.fv)
    assert renaming_bijection(
        flat,
        FlatSequent(
            (parse_formula("S(a)"), parse_formula("P(a) -> P(b)")),
            parse_formula("Q"),
        ),
    ) or renaming_bijection(
        flat,
        FlatSequent(
            (parse_formula("P(a) -> P(b)"), parse_formula("S(a)")),
            parse_formula("Q"),
        ),
    )


# ---------------------------------------------------------------------------
# Corpus generation


def test_size_one_is_an_atom():
    for seed in range(30):
        assert isinstance(generate_positive(seed, size=1, quantifier_depth=2), Atom)


@settings(max_examples=200)
@given(st.integers(0, 100_000))
def test_generated_formulas_closed_positive_and_bounded(seed):
    f = generate_positive(seed, size=9, quantifier_depth=3)
    assert polarity(f) in (Polarity.POSITIVE, Polarity.BOTH)
    assert not f.fv
    assert connectives(f) <= 9


def test_generator_rejects_zero_size():
    with pytest.raises(ValueError):
        generate_positive(0, size=0, quantifier_depth=1)


def test_both_verdicts_in_first_hundred_seeds(corpus_results):
    verdicts = {verdict for _, verdict, _, _ in corpus_results[:100]}
    assert verdicts == {True, False}
