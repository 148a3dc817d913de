"""Tokenizer edge cases: the token-list parsers against the recursive
reference, which keeps every token's position from the start."""

import pytest

from minpl.syntax import _TOKEN, ParseError, parse_formula
from minpl.systemf import parse_type

from helpers import reference_parse

PARSERS = {"formula": parse_formula, "type": parse_type}

# the 500th token is a stray "é", after a long chain or inside a long argument list
LONG = " -> ".join(["Q"] * 250) + " é -> Q"
WIDE = "P(x" + ", x" * 248 + " é)"

EDGE_CASES = [
    # letters outside [A-Za-z_] are single-character tokens, never identifiers
    "é",
    "P(é)",
    "Pé -> Q",
    "λ -> Q",
    "forall λ. Q",
    "forall x. P(x) -> λx",
    "X -> é",
    "forall é. X",
    # a digit cannot start an identifier
    "1P",
    "P(1x)",
    "P1 -> Q",
    "forall x1. P(x1)",
    # "forall" is reserved, and only as a whole token
    "forall",
    "forall(x)",
    "forall -> Q",
    "P(forall)",
    "P(f(forall))",
    "forall forall. Q",
    "forallx",
    "forallx -> forall x. P(forallx, x)",
    "forallx. Q",
    "forall x.forall y.P(x,y)",
    # primes belong to identifiers, but cannot start one
    "P'(x') -> Q''",
    "forall x'. P(x', f'(x''))",
    "'P",
    "P(')",
    "X' -> X''",
    "forall X'. X'",
    # ends of input
    "",
    "   ",
    "P(f(x)",
    "P(x,",
    "forall x",
    "forall x.",
    "(P -> Q",
    "P -> Q)",
    # a name the atom table already holds, used again applied or before trailing input
    "Q -> Q(x) -> Q",
    "P(x) -> P -> P(x)",
    "Q -> Q Q",
    "X -> X(y)",
    # binders that are not "forall" IDENT "."
    "forall x P(x)",
    "forall . Q",
    "forall x, y. Q",
    LONG,
    LONG.replace("é", "( P"),
    WIDE,
    WIDE.replace(" é", ""),
    WIDE.replace("é", ", f(y, é"),
]


@pytest.mark.parametrize("kind", ["formula", "type"])
@pytest.mark.parametrize("text", EDGE_CASES)
def test_parsers_match_the_reference_on_edge_cases(kind, text):
    try:
        expected = reference_parse(text, kind)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            PARSERS[kind](text)
        assert (str(err.value), err.value.position) == (str(exc), exc.position)
        return
    got = PARSERS[kind](text)
    assert got == expected and repr(got) == repr(expected)


@pytest.mark.parametrize(
    "text, message",
    [(LONG, "unexpected trailing input 'é'"), (WIDE, "expected ')', found 'é'")],
)
def test_error_at_the_500th_token_has_its_position(text, message):
    assert _TOKEN.findall(text).index("é") == 499
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.position == text.index("é")
    assert str(err.value) == f"{message} (at position {text.index('é')})"
