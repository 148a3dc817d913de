"""Head rotation carries real derivations: the witnesses in
``helpers.ROTATION_WITNESSES`` are derivable only through a head taken from
inside a bracket, so an engine that never opens one answers them wrongly."""

import pytest

from minpl.oracle import FlatSequent, first_provable_depth
from minpl.prover import RULE_LIMP, _Search, derivable, derivation_to_json
from minpl.syntax import parse_formula
from minpl.systemf import inhabited, parse_type

from helpers import ROTATION_WITNESSES, distinct_nodes, reference_derivable, replay


def decided(kind: str):
    text = ROTATION_WITNESSES[kind]
    if kind == "formula":
        f = parse_formula(text)
        return f, derivable(f)
    t = parse_type(text)
    return t, inhabited(t)


@pytest.mark.parametrize("kind", ["formula", "type"])
def test_rotation_witness_is_decided_true(kind):
    _, (verdict, _, derivation) = decided(kind)
    assert verdict and derivation is not None


@pytest.mark.parametrize("kind", ["formula", "type"])
def test_rotation_witness_derivation_opens_a_bracket(kind):
    _, (_, _, derivation) = decided(kind)
    assert any(d.rule == RULE_LIMP and d.path for d in distinct_nodes(derivation))


@pytest.mark.parametrize("kind", ["formula", "type"])
def test_rotation_witness_derivation_replays(kind):
    _, (_, _, derivation) = decided(kind)
    replay(derivation)


@pytest.mark.parametrize("kind", ["formula", "type"])
def test_rotation_witness_derivation_equals_the_plain_search(kind):
    f, (_, _, derivation) = decided(kind)
    ref_verdict, _, ref_derivation = reference_derivable(f)
    assert ref_verdict
    assert derivation_to_json(derivation) == derivation_to_json(ref_derivation)


@pytest.mark.parametrize("kind, height", [("formula", 15), ("type", 18)])
def test_rotation_witness_reference_prover_height(kind, height):
    f, _ = decided(kind)
    assert first_provable_depth(FlatSequent((), f), height) == height


def test_a_search_that_never_rotates_decides_the_witnesses_no(monkeypatch):
    # a success whose head was taken from inside a bracket is dropped
    search = _Search.search

    def unrotated(self, seq):
        found = search(self, seq)
        return None if found is not None and found.rule == RULE_LIMP and found.path else found

    monkeypatch.setattr(_Search, "search", unrotated)
    assert [decided(kind)[1][0] for kind in ("formula", "type")] == [False, False]
