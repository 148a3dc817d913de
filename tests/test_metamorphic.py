"""Metamorphic verdict checks: the structural rules of minimal logic as a test
that needs no oracle.  For ``F = forall x1 ... xk. A1 -> ... -> An -> G`` each
rule relates the verdict of ``F`` to that of a formula built from it:

- exchange: swapping two antecedents keeps the verdict;
- argument swap: swapping two hypotheses of an antecedent
  ``B1 -> ... -> Bm -> P`` keeps the verdict, since the two forms derive
  each other;
- contraction: duplicating an antecedent keeps the verdict;
- weakening: if ``F`` holds, so does ``H -> F``, for ``H`` an antecedent of
  another positive formula;
- cut: if the quantifier-free ``A`` holds and ``F`` does not, ``A -> F`` does
  not either.

They run over the benchmark's ``corpus``, ``hard`` and ``quantified`` inputs
and over System F types, which parse to their translations, so swapping the
arguments of a type is exchange, and swapping those of an argument is an
argument swap.  Renamings keep the verdict too, and they run over ``corpus``
and the ``hard`` and ``quantified`` inputs:

- alpha-renaming: every binder gets a fresh name, in shuffled order;
- predicate renaming: a bijection that reverses the predicates' order, and
  so the canonical order of the context and the order of the search;
- a vacuous ``forall z.`` in front, ``z`` fresh;
- swapping two adjacent binders of the outer prefix.

Both families also run over lists of formulas that Hypothesis draws from the
corpus generator.  Every derived formula is checked to be in the positive
fragment.
"""

import itertools
import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minpl.oracle import generate_positive
from minpl.prover import _Search, derivable
from minpl.syntax import Atom, Forall, Imp, Polarity, _rename_term, parse_formula, pieces, polarity
from minpl.systemf import parse_type

from helpers import (
    INHABITED_FALSE,
    INHABITED_TRUE,
    ROTATION_WITNESSES,
    random_type,
    recursion_limit,
)

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "corpus.json"
POSITIVE = (Polarity.POSITIVE, Polarity.BOTH)
SAID = {True: "derivable", False: "not derivable"}


def corpus_formulas(n: int) -> list:
    queries = json.loads(CORPUS.read_text(encoding="utf-8"))["queries"]
    return [parse_formula(q["text"]) for q in queries[:n]]


def workload_inputs(name: str) -> list:
    """The formulas of a benchmark workload, types as their translations."""
    queries = json.loads((CORPUS.parent / f"{name}.json").read_text(encoding="utf-8"))["queries"]
    return [(parse_type if q["kind"] == "type" else parse_formula)(q["text"]) for q in queries]


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


def swapped(xs: list, rng: random.Random) -> list:
    """A copy of ``xs`` with two entries, drawn by ``rng``, swapped."""
    i, j = rng.sample(range(len(xs)), 2)
    xs = list(xs)
    xs[i], xs[j] = xs[j], xs[i]
    return xs


def verdict(f) -> bool:
    return derivable(f, timeout=10.0)[0]


def derived(f, holds: bool, rng: random.Random, donors: list, lemmas: list):
    """Each relation's formula built from ``f``, with the verdict it must have."""
    binders, antecedents, goal = split(f)
    if len(antecedents) > 1:
        yield "exchange", join(binders, swapped(antecedents, rng), goal), holds
    nested = [k for k, a in enumerate(antecedents) if len(split(a)[1]) > 1]
    if nested:
        k = rng.choice(nested)
        inner, hypotheses, head = split(antecedents[k])
        changed = list(antecedents)
        changed[k] = join(inner, swapped(hypotheses, rng), head)
        yield "argument swap", join(binders, changed, goal), holds
    if antecedents:
        i = rng.randrange(len(antecedents))
        yield "contraction", join(binders, antecedents[: i + 1] + antecedents[i:], goal), holds
    if holds:
        yield "weakening", Imp(rng.choice(donors), f), True
    else:
        yield "cut", Imp(rng.choice(lemmas), f), False


def rewrite(f, preds: dict, binders, env: dict):
    """``f`` with each predicate renamed by ``preds`` and, unless ``binders``
    is None, each binder renamed to the next fresh name it yields; ``env``
    maps the bound variables renamed so far."""
    if isinstance(f, Atom):
        return Atom(preds.get(f.pred, f.pred), tuple(_rename_term(t, env) for t in f.terms))
    if isinstance(f, Imp):
        return Imp(rewrite(f.left, preds, binders, env), rewrite(f.right, preds, binders, env))
    var = f.var if binders is None else next(binders)
    return Forall(var, rewrite(f.body, preds, binders, {**env, f.var: var}))


def renamings(f, rng: random.Random):
    """Each renaming of ``f``, all of which keep its verdict."""
    parts = pieces(f)
    used = f.fv | {g.var for g in parts if isinstance(g, Forall)}
    fresh = (v for v in (f"v{k}" for k in itertools.count()) if v not in used)
    if f.nbinders:
        names = list(itertools.islice(fresh, f.nbinders))
        rng.shuffle(names)
        yield "alpha-renaming", rewrite(f, {}, iter(names), {})
    preds = sorted({g.pred for g in parts if isinstance(g, Atom)})
    targets = [f"R{k:04d}" for k in reversed(range(len(preds)))]
    yield "predicate renaming", rewrite(f, dict(zip(preds, targets)), None, {})
    yield "vacuous forall", Forall(next(fresh), f)
    binders, antecedents, goal = split(f)
    if len(binders) > 1:
        i = rng.randrange(len(binders) - 1)
        if binders[i] != binders[i + 1]:
            binders[i], binders[i + 1] = binders[i + 1], binders[i]
            yield "binder swap", join(binders, antecedents, goal)


def broken(checks, first_only: bool = False) -> tuple[list, Counter]:
    """The broken ones of ``checks``, ``(relation, f, f_holds, g, g_must_hold)``
    each, naming both formulas and both verdicts, and the number checked per relation."""
    failures, checked = [], Counter()
    for name, f, f_holds, g, expected in checks:
        assert polarity(g) in POSITIVE, f"{name} left the positive fragment: {g}"
        g_holds = verdict(g)
        checked[name] += 1
        if g_holds != expected:
            failures.append(f"{name}: {f} is {SAID[f_holds]}, but {g} is {SAID[g_holds]}")
            if first_only:
                break
    return failures, checked


def broken_relations(formulas: list, seed: int, first_only: bool = False) -> tuple[list, Counter]:
    """The structural rules broken over ``formulas``, and the number checked per rule.
    Donors and lemmas come from the same formulas: every antecedent, and every
    quantifier-free body that holds."""
    rng = random.Random(seed)
    holds = [verdict(f) for f in formulas]
    donors = [a for f in formulas for a in split(f)[1]]
    bodies = {join([], *split(f)[1:]) for f in formulas}
    lemmas = sorted((a for a in bodies if not a.nbinders and verdict(a)), key=str)
    assert donors and lemmas
    checks = (
        (name, f, f_holds, g, expected)
        for f, f_holds in zip(formulas, holds)
        for name, g, expected in derived(f, f_holds, rng, donors, lemmas)
    )
    return broken(checks, first_only)


def broken_renamings(formulas: list, seed: int) -> tuple[list, Counter]:
    """The renamings that changed a verdict over ``formulas``, and the number checked
    per renaming."""
    rng = random.Random(seed)
    checks = (
        (name, f, holds, g, holds)
        for f in formulas
        for holds in (verdict(f),)
        for name, g in renamings(f, rng)
    )
    return broken(checks)


def assert_floors(checked: Counter, floors: dict) -> None:
    """Every relation of ``floors``, and no other, ran at least its floor: about half
    of what it ran when the floor was set, so one that stops yielding fails."""
    assert set(checked) == set(floors), checked
    assert all(checked[name] >= least for name, least in floors.items()), checked


def test_structural_rules_hold_on_corpus_formulas():
    failures, checked = broken_relations(corpus_formulas(5000), seed=1)
    assert not failures, "\n".join(failures[:10])
    assert checked.total() > 10000, checked
    assert_floors(checked, {"exchange": 1590, "argument swap": 990, "contraction": 2490,
                            "weakening": 970, "cut": 1520})


def test_structural_rules_hold_on_types():
    failures, checked = broken_relations(types(), seed=2)
    assert not failures, "\n".join(failures[:10])
    assert checked.total() > 1000, checked
    assert_floors(checked, {"exchange": 100, "argument swap": 80, "contraction": 220,
                            "weakening": 80, "cut": 210})


WORKLOAD_FLOORS = {
    "hard": {"exchange": 140, "argument swap": 120, "contraction": 150, "weakening": 100,
             "cut": 50},
    "quantified": {"exchange": 220, "argument swap": 230, "contraction": 390, "weakening": 150,
                   "cut": 240},
}


@pytest.mark.parametrize("name, seed, least", [("hard", 5, 800), ("quantified", 6, 1800)])
def test_structural_rules_hold_on_hard_and_quantified_inputs(name, seed, least):
    failures, checked = broken_relations(workload_inputs(name), seed)
    assert not failures, "\n".join(failures[:10])
    assert checked.total() > least, checked
    assert_floors(checked, WORKLOAD_FLOORS[name])


def test_renamings_keep_the_verdict_on_corpus_formulas():
    failures, checked = broken_renamings(corpus_formulas(3000), seed=3)
    assert not failures, "\n".join(failures[:10])
    assert checked.total() > 8000, checked
    assert_floors(checked, {"alpha-renaming": 1110, "predicate renaming": 1500,
                            "vacuous forall": 1500, "binder swap": 260})


def test_renamings_keep_the_verdict_on_hard_and_quantified_inputs():
    failures, checked = broken_renamings(workload_inputs("hard") + workload_inputs("quantified"), 4)
    assert not failures, "\n".join(failures[:10])
    assert checked.total() > 3000, checked
    assert_floors(checked, {"alpha-renaming": 390, "predicate renaming": 550,
                            "vacuous forall": 550, "binder swap": 70})


SEEDS = st.integers(0, 2**32 - 1)
GENERATED = st.builds(generate_positive, SEEDS, st.integers(2, 16), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(GENERATED, min_size=4, max_size=8), SEEDS)
def test_relations_and_renamings_hold_on_generated_formulas(formulas, seed):
    # derivable leaves the recursion limit raised, which Hypothesis warns of,
    # so the body puts it back; broken_relations needs an antecedent to weaken
    # with and a lemma to cut with
    with recursion_limit(sys.getrecursionlimit()):
        bodies = [join([], *split(f)[1:]) for f in formulas]
        assume(any(split(f)[1] for f in formulas))
        assume(any(not b.nbinders and verdict(b) for b in bodies))
        for failures, _ in (broken_relations(formulas, seed), broken_renamings(formulas, seed)):
            assert not failures, "\n".join(failures)


def test_a_visit_capped_search_breaks_a_relation(monkeypatch):
    # a search that gives up after 8 visits; a cap on the atomic sequents of the
    # branch, the seen set, breaks no relation on these formulas, even at 0
    search = _Search.search

    def capped(self, seq):
        return None if self.stats.visited > 8 else search(self, seq)

    monkeypatch.setattr(_Search, "search", capped)
    failures, _ = broken_relations(corpus_formulas(2500), seed=1, first_only=True)
    assert failures
