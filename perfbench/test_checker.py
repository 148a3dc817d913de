"""Tests of the benchmark's verdict checker on the published verdicts.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/test_checker.py``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checker  # noqa: E402
import gen_inputs  # noqa: E402
from helpers import (  # noqa: E402
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
)
from minpl import derivable, derivation_to_json, parse_formula, parse_type, phi, print_formula  # noqa: E402


@pytest.mark.parametrize(
    "text, expected",
    [(t, True) for t in DERIVABLE_TRUE] + [(t, False) for t in DERIVABLE_FALSE],
)
def test_published_formula_verdicts(text, expected):
    verdict, route = checker.expected_verdict(text)
    assert verdict is expected, route


@pytest.mark.parametrize(
    "text, expected",
    [(t, True) for t in INHABITED_TRUE] + [(t, False) for t in INHABITED_FALSE],
)
def test_published_type_verdicts(text, expected):
    verdict, _ = checker.expected_verdict(print_formula(phi(parse_type(text))))
    assert verdict is expected


@pytest.mark.parametrize(
    "text, expected",
    [
        ("((P -> Q) -> P) -> P", False),  # Peirce's law is not intuitionistic
        ("((((P -> Q) -> P) -> P) -> Q) -> Q", True),
        ("(P -> Q) -> (Q -> R) -> P -> R", True),
        ("((P -> Q) -> Q) -> P", False),
        ("(((P -> Q) -> Q) -> Q) -> P -> Q", True),
    ],
)
def test_dyckhoff_on_propositional_laws(text, expected):
    assert checker.Dyckhoff().provable(checker.read(text)) is expected


def test_routes_for_quantified_verdicts():
    assert checker.expected_verdict(DERIVABLE_FALSE[0]) == (False, "erasure")
    verdict, route = checker.expected_verdict(DERIVABLE_TRUE[1])
    assert verdict and route.startswith("certificate")
    verdict, route = checker.expected_verdict(DERIVABLE_FALSE[2])
    assert not verdict and route.startswith("bounded")


@pytest.mark.parametrize("name", sorted(gen_inputs.FAMILIES))
def test_family_constructions_agree_with_checker_and_search(name):
    make, verdict = gen_inputs.FAMILIES[name]
    for n in range(1, 4):
        text = make(n)
        assert checker.expected_verdict(text)[0] is verdict, text
        assert derivable(parse_formula(text))[0] is verdict, text
        typed, _, _ = derivable(phi(parse_type(gen_inputs.as_type(text))))
        assert typed is verdict, text


def test_replay_accepts_search_derivations_and_rejects_tampering():
    for text in DERIVABLE_TRUE:
        formula = parse_formula(text)
        _, _, d = derivable(formula)
        assert checker.derivation_root_matches(d, formula)
        assert checker.replay(d) > 1
        node = checker.replay_json(derivation_to_json(d))
        assert node == checker.replay(d)
        assert checker.json_root_matches(derivation_to_json(d), formula)
    _, _, d = derivable(parse_formula(DERIVABLE_TRUE[0]))
    wrong_goal = replace(d.premises[0].conclusion, goal=parse_formula("R"))
    tampered = replace(d, premises=(replace(d.premises[0], conclusion=wrong_goal),))
    with pytest.raises(AssertionError):
        checker.replay(tampered)
    encoded = derivation_to_json(d)
    encoded["premises"][0]["sequent"] = "|- R"
    with pytest.raises(AssertionError):
        checker.replay_json(encoded)


def test_reader_agrees_with_minpl_printer():
    for text in DERIVABLE_TRUE + DERIVABLE_FALSE:
        tree = checker.read(text)
        assert checker.read(print_formula(parse_formula(text))) == tree
