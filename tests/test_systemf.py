import random
import re

import pytest
from hypothesis import given

from minpl.oracle import generate_positive
from minpl.prover import NotPositive
from minpl.syntax import Atom, Imp, ParseError, Polarity, parse_formula, polarity, print_formula
from minpl.syntax import Forall
from minpl.systemf import elide_eps, inhabited, parse_type, print_type

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
    reference_parse,
    reference_polarity,
    reference_print_type,
    reference_render_sequent,
    subnodes,
    tvar,
)


# ---------------------------------------------------------------------------
# Translation


def test_phi_on_identity_type():
    t = parse_type("forall X. X -> X")
    assert t == reference_parse("forall X. X -> X", "type")
    assert t == parse_formula("forall X. (eps(X) -> eps(X))")


def test_phi_on_variable():
    assert parse_type("X") == tvar("X") == parse_formula("eps(X)")


def eps_text(text: str) -> str:
    """A type's text written as its translation's: ``X`` becomes ``eps(X)``,
    binders stay."""
    return re.sub(r"forall\s+\w+|([A-Za-z_][A-Za-z0-9_']*)",
                  lambda m: f"eps({m[1]})" if m[1] else m[0], text)


@pytest.mark.parametrize("text", INHABITED_TRUE + INHABITED_FALSE + (ROTATION_WITNESSES["type"],))
def test_a_parsed_type_is_its_translation_with_one_atom_per_name(text):
    t = parse_type(text)
    assert t == parse_formula(eps_text(text)), eps_text(text)
    atoms = {id(a): a for a in subnodes(t) if isinstance(a, Atom)}.values()
    assert sorted(a.terms[0].name for a in atoms) == sorted(set(re.findall(r"\b[A-Z]\w*", text)))
    assert parse_type(print_type(t)) == t


@given(ftypes, ftypes)
def test_phi_is_an_arrow_homomorphism(t, u):
    text = f"({reference_print_type(t)}) -> ({reference_print_type(u)})"
    assert parse_type(text) == parse_formula(f"({t}) -> ({u})") == Imp(t, u)


@given(ftypes)
def test_phi_preserves_connective_count(t):
    text = reference_print_type(t)
    assert connectives(parse_type(text)) == text.count("->") + text.count("forall")


# ---------------------------------------------------------------------------
# Polarity


def test_identity_type_is_positive():
    assert polarity(parse_type("forall X. X -> X")).value == "positive"


def test_empty_type_is_positive():
    assert polarity(parse_type("forall X. X")).value == "positive"


@given(ftypes)
def test_type_polarity_commutes_with_translation(t):
    assert polarity(parse_type(reference_print_type(t))) == reference_polarity(t)


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


X, Y = tvar("X"), tvar("Y")


@pytest.mark.parametrize(
    "t, text",
    [
        (Imp(Imp(Imp(X, Y), X), Y), "((X -> Y) -> X) -> Y"),
        (Imp(Forall("X", Imp(X, X)), Y), "(forall X. (X -> X)) -> Y"),
        (Forall("X", Forall("Y", X)), "forall X. forall Y. X"),
        (Imp(X, Forall("Y", Imp(Y, X))), "X -> forall Y. (Y -> X)"),
        (Forall("X", Imp(Forall("Y", Y), X)), "forall X. ((forall Y. Y) -> X)"),
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
    assert parse_type("X -> Y -> Z") == Imp(tvar("X"), Imp(tvar("Y"), tvar("Z")))
    assert parse_type("forall X. X -> X") == Forall("X", Imp(tvar("X"), tvar("X")))


# ---------------------------------------------------------------------------
# Trace rendering


def test_elide_eps_elides_the_predicate():
    f = parse_type("forall X. X -> X")
    assert elide_eps(print_formula(f)) == "forall X. (X -> X)"


def test_elide_eps_compacts_sequents():
    _, _, derivation = inhabited(parse_type("forall X. X -> X"))
    rendered = elide_eps(str(derivation.premises[0].premises[0].conclusion))
    assert "eps" not in rendered


def test_elide_eps_keeps_other_atoms_intact():
    f = parse_formula("eps(f(x)) -> P(x)")
    assert elide_eps(print_formula(f)) == "eps(f(x)) -> P(x)"


def as_type(f):
    """A formula read as a type, translated: ``P(x)`` becomes ``eps(x)``, a
    nullary ``Q`` becomes ``eps(Q)``."""
    if isinstance(f, Atom):
        return tvar(f.terms[0].name if f.terms else f.pred)
    if isinstance(f, Imp):
        return Imp(as_type(f.left), as_type(f.right))
    return Forall(f.var, as_type(f.body))


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
        if polarity(t) in (Polarity.POSITIVE, Polarity.BOTH):
            randoms.append(t)
    brackets = 0
    for t in types + randoms:
        assert print_type(t) == print_formula(reference_elide(t))
        visited = []
        inhabited(t, on_visit=visited.append)
        for seq in visited:
            assert elide_eps(str(seq)) == reference_render_sequent(seq)
            for f in context_formulas(seq.context) + [seq.goal]:
                assert elide_eps(print_formula(f)) == print_formula(reference_elide(f))
            brackets += str(seq).count("[")
    assert brackets > 20, brackets
