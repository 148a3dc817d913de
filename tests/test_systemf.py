import random
import re

import pytest
from hypothesis import given

from minpl.oracle import generate_positive
from minpl.prover import NotPositive
from minpl.syntax import Atom, Imp, ParseError, Polarity, parse_formula, polarity, print_formula
from minpl.systemf import (
    TArrow,
    TForall,
    TVar,
    elide_eps,
    inhabited,
    parse_type,
    phi,
    print_type,
)

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    ROTATION_WITNESSES,
    connectives,
    context_formulas,
    ftypes,
    random_type,
    reference_elide,
    reference_polarity,
    reference_print_type,
    reference_render_sequent,
    type_connectives,
)


# ---------------------------------------------------------------------------
# Translation


def test_phi_on_identity_type():
    assert phi(parse_type("forall X. X -> X")) == parse_formula(
        "forall X. (eps(X) -> eps(X))"
    )


def test_phi_on_variable():
    x = TVar("X")
    assert phi(x) == parse_formula("eps(X)") and phi(x) is phi(x)
    # a hand-built type shares the atom of each TVar object it reuses
    f = phi(TArrow(x, x))
    assert f.left is f.right is phi(x)


@given(ftypes, ftypes)
def test_phi_is_an_arrow_homomorphism(t, u):
    assert phi(TArrow(t, u)) == parse_formula(f"({phi(t)}) -> ({phi(u)})")


@given(ftypes)
def test_phi_preserves_connective_count(t):
    assert connectives(phi(t)) == type_connectives(t)


# ---------------------------------------------------------------------------
# Polarity


def test_identity_type_is_positive():
    assert polarity(phi(parse_type("forall X. X -> X"))).value == "positive"


def test_empty_type_is_positive():
    assert polarity(phi(parse_type("forall X. X"))).value == "positive"


@given(ftypes)
def test_type_polarity_commutes_with_translation(t):
    assert polarity(phi(t)) == reference_polarity(t)


# ---------------------------------------------------------------------------
# Inhabitation


@pytest.mark.parametrize("text", INHABITED_TRUE)
def test_inhabited_reported_true(text):
    verdict, _, derivation = inhabited(parse_type(text))
    assert verdict and derivation is not None


@pytest.mark.parametrize("text", INHABITED_FALSE)
def test_inhabited_reported_false(text):
    verdict, _, derivation = inhabited(parse_type(text))
    assert not verdict and derivation is None


def test_prenex_transformation_changes_the_verdict():
    empty, _, _ = inhabited(parse_type(INHABITED_FALSE[0]))
    prenex, _, _ = inhabited(parse_type(INHABITED_TRUE[0]))
    assert (empty, prenex) == (False, True)


def test_inhabited_refuses_non_positive_types():
    with pytest.raises(NotPositive):
        inhabited(parse_type("(forall X. X) -> Y"))


@pytest.mark.parametrize("text", ["forall X. X -> X", "(forall X. X) -> Y"])
def test_inhabited_runs_polarity_once(monkeypatch, text):
    calls = []

    def counting(f):
        calls.append(f)
        return polarity(f)

    monkeypatch.setattr("minpl.prover.polarity", counting)
    try:
        inhabited(parse_type(text))
    except NotPositive as exc:
        assert str(exc) == f"not a positive type: {text}"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Concrete syntax


@given(ftypes)
def test_type_print_parse_round_trip(t):
    assert parse_type(print_type(t)) == t


X, Y = TVar("X"), TVar("Y")


@pytest.mark.parametrize(
    "t, text",
    [
        (TArrow(TArrow(TArrow(X, Y), X), Y), "((X -> Y) -> X) -> Y"),
        (TArrow(TForall("X", TArrow(X, X)), Y), "(forall X. (X -> X)) -> Y"),
        (TForall("X", TForall("Y", X)), "forall X. forall Y. X"),
        (TArrow(X, TForall("Y", TArrow(Y, X))), "X -> forall Y. (Y -> X)"),
        (TForall("X", TArrow(TForall("Y", Y), X)), "forall X. ((forall Y. Y) -> X)"),
    ],
)
def test_print_type_examples(t, text):
    assert print_type(t) == reference_print_type(t) == text


@given(ftypes)
def test_print_type_matches_the_recursive_printer(t):
    assert print_type(t) == reference_print_type(t)


def test_print_type_matches_the_recursive_printer_on_large_types():
    rng = random.Random(6)
    for size in range(1, 40):
        for _ in range(10):
            t = random_type(rng, size)
            assert print_type(t) == reference_print_type(t)


def test_parse_type_rejects_applications():
    with pytest.raises(ParseError):
        parse_type("P(x) -> Q")


def test_parse_type_examples():
    assert parse_type("X -> Y -> Z") == TArrow(TVar("X"), TArrow(TVar("Y"), TVar("Z")))
    assert parse_type("forall X. X -> X") == TForall("X", TArrow(TVar("X"), TVar("X")))


# ---------------------------------------------------------------------------
# Trace rendering


def test_elide_eps_elides_the_predicate():
    f = phi(parse_type("forall X. X -> X"))
    assert elide_eps(print_formula(f)) == "forall X. (X -> X)"


def test_elide_eps_compacts_sequents():
    _, _, derivation = inhabited(parse_type("forall X. X -> X"))
    rendered = elide_eps(str(derivation.premises[0].premises[0].conclusion))
    assert "eps" not in rendered


def test_elide_eps_keeps_other_atoms_intact():
    f = parse_formula("eps(f(x)) -> P(x)")
    assert elide_eps(print_formula(f)) == "eps(f(x)) -> P(x)"


def as_type(f):
    """A formula read as a type: ``P(x)`` becomes ``x``, a nullary ``Q`` becomes ``Q``."""
    if isinstance(f, Atom):
        return TVar(f.terms[0].name if f.terms else f.pred)
    if isinstance(f, Imp):
        return TArrow(as_type(f.left), as_type(f.right))
    return TForall(f.var, as_type(f.body))


def test_rendering_is_the_printer_with_eps_elided_as_text():
    types = [parse_type(text) for text in INHABITED_TRUE + INHABITED_FALSE]
    types += [as_type(parse_formula(text)) for text in DERIVABLE_TRUE + DERIVABLE_FALSE]
    types += [as_type(generate_positive(seed, 14, 2)) for seed in range(300)]
    elide = re.compile(r"\beps\(([A-Za-z_][A-Za-z0-9_']*)\)")
    brackets = 0
    for t in types:
        visited = []
        inhabited(t, on_visit=visited.append)
        for seq in visited:
            assert elide_eps(str(seq)) == elide.sub(r"\1", str(seq))
            assert elide_eps(print_formula(seq.goal)) == elide.sub(r"\1", str(seq.goal))
            brackets += str(seq).count("[")
    assert brackets > 20, brackets


def test_rendering_equals_the_structural_elision():
    types = [parse_type(text) for text in INHABITED_TRUE + INHABITED_FALSE]
    types.append(parse_type(ROTATION_WITNESSES["type"]))
    types += [as_type(generate_positive(seed, 14, 2)) for seed in range(300)]
    rng, randoms = random.Random(8), []
    while len(randoms) < 300:
        t = random_type(rng, rng.randint(5, 25))
        if polarity(phi(t)) in (Polarity.POSITIVE, Polarity.BOTH):
            randoms.append(t)
    brackets = 0
    for t in types + randoms:
        assert print_type(t) == print_formula(reference_elide(phi(t)))
        visited = []
        inhabited(t, on_visit=visited.append)
        for seq in visited:
            assert elide_eps(str(seq)) == reference_render_sequent(seq)
            for f in context_formulas(seq.context) + [seq.goal]:
                assert elide_eps(print_formula(f)) == print_formula(reference_elide(f))
            brackets += str(seq).count("[")
    assert brackets > 20, brackets
