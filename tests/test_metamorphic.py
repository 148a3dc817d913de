"""Metamorphic verdict checks: the structural rules of minimal logic as a test
that needs no oracle.  For ``F = forall x1 ... xk. A1 -> ... -> An -> G`` each
rule relates the verdict of ``F`` to that of a formula built from it:

- exchange: swapping two antecedents keeps the verdict;
- contraction: duplicating an antecedent keeps the verdict;
- weakening: if ``F`` holds, so does ``H -> F``, for ``H`` an antecedent of
  another positive formula;
- cut: if the quantifier-free ``A`` holds and ``F`` does not, ``A -> F`` does
  not either.

They run over the benchmark's ``corpus`` formulas and over System F types,
which parse to their translations, so swapping the arguments of a type is
exchange.  Every derived formula is checked to be in the positive fragment.
"""

import json
import random
from pathlib import Path

from minpl.prover import _Search, derivable
from minpl.syntax import Forall, Imp, Polarity, parse_formula, polarity
from minpl.systemf import parse_type

from helpers import INHABITED_FALSE, INHABITED_TRUE, ROTATION_WITNESSES, random_type

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "corpus.json"
POSITIVE = (Polarity.POSITIVE, Polarity.BOTH)
SAID = {True: "derivable", False: "not derivable"}


def corpus_formulas(n: int) -> list:
    queries = json.loads(CORPUS.read_text(encoding="utf-8"))["queries"]
    return [parse_formula(q["text"]) for q in queries[:n]]


def types() -> list:
    texts = INHABITED_TRUE + INHABITED_FALSE + (ROTATION_WITNESSES["type"],)
    out = [parse_type(text) for text in texts]
    quantified = json.loads((CORPUS.parent / "quantified.json").read_text(encoding="utf-8"))
    out += [parse_type(q["text"]) for q in quantified["queries"] if q["kind"] == "type"]
    rng = random.Random(13)
    while len(out) < 600:
        t = random_type(rng, rng.randint(3, 14))
        if polarity(t) in POSITIVE:
            out.append(t)
    return out


def split(f):
    """``f`` as its binder prefix, its antecedents and the goal after them."""
    binders, antecedents = [], []
    while isinstance(f, Forall):
        binders.append(f.var)
        f = f.body
    while isinstance(f, Imp):
        antecedents.append(f.left)
        f = f.right
    return binders, antecedents, f


def join(binders, antecedents, goal):
    for a in reversed(antecedents):
        goal = Imp(a, goal)
    for x in reversed(binders):
        goal = Forall(x, goal)
    return goal


def verdict(f) -> bool:
    return derivable(f, timeout=10.0)[0]


def derived(f, holds: bool, rng: random.Random, donors: list, lemmas: list):
    """Each relation's formula built from ``f``, with the verdict it must have."""
    binders, antecedents, goal = split(f)
    if len(antecedents) > 1:
        i, j = rng.sample(range(len(antecedents)), 2)
        swapped = list(antecedents)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "exchange", join(binders, swapped, goal), holds
    if antecedents:
        i = rng.randrange(len(antecedents))
        yield "contraction", join(binders, antecedents[: i + 1] + antecedents[i:], goal), holds
    if holds:
        yield "weakening", Imp(rng.choice(donors), f), True
    else:
        yield "cut", Imp(rng.choice(lemmas), f), False


def broken_relations(formulas: list, seed: int, first_only: bool = False) -> tuple[list, int]:
    """The relations broken over ``formulas``, each naming both formulas and
    both verdicts, and the number checked.  Donors and lemmas come from the
    same formulas: every antecedent, and every quantifier-free body that holds."""
    rng = random.Random(seed)
    holds = [verdict(f) for f in formulas]
    donors = [a for f in formulas for a in split(f)[1]]
    bodies = {join([], *split(f)[1:]) for f in formulas}
    lemmas = sorted((a for a in bodies if not a.nbinders and verdict(a)), key=str)
    assert donors and lemmas
    failures, checked = [], 0
    for f, f_holds in zip(formulas, holds):
        for name, g, expected in derived(f, f_holds, rng, donors, lemmas):
            assert polarity(g) in POSITIVE, f"{name} left the positive fragment: {g}"
            g_holds = verdict(g)
            checked += 1
            if g_holds != expected:
                failures.append(f"{name}: {f} is {SAID[f_holds]}, but {g} is {SAID[g_holds]}")
                if first_only:
                    return failures, checked
    return failures, checked


def test_structural_rules_hold_on_corpus_formulas():
    failures, checked = broken_relations(corpus_formulas(5000), seed=1)
    assert not failures, "\n".join(failures[:10])
    assert checked > 10000, checked


def test_structural_rules_hold_on_types():
    failures, checked = broken_relations(types(), seed=2)
    assert not failures, "\n".join(failures[:10])
    assert checked > 1000, checked


def test_a_depth_capped_search_breaks_a_relation(monkeypatch):
    search = _Search.search

    def capped(self, seen, seq):
        return None if len(seen) > 6 else search(self, seen, seq)

    monkeypatch.setattr(_Search, "search", capped)
    failures, _ = broken_relations(corpus_formulas(2500), seed=1, first_only=True)
    assert failures
