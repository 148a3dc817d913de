"""Stored node analyses against from-scratch recomputation, hashes along
different construction routes, and no nodes retained after a query."""

import copy
import gc
import pickle
import random

from hypothesis import given, settings, strategies as st

from minpl.context import Context, FormulaItem, Item, bracket, fuse, normalize, parse_context
from minpl.prover import Sequent, derivable
from minpl.syntax import Formula, Term, parse_formula, print_formula
from minpl.systemf import parse_type, phi

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    corpus_formula,
    formulas,
    random_context,
    reference_depth,
    reference_free_vars,
    reference_item_key,
    subnodes,
)

NODE_TYPES = (Term, Formula, Item, Context, Sequent)


def test_stored_analyses_match_recomputation_on_visited_sequents(corpus):
    inputs = list(corpus[:120])
    inputs += [parse_formula(text) for text in DERIVABLE_TRUE + DERIVABLE_FALSE]
    inputs += [phi(parse_type(text)) for text in INHABITED_TRUE + INHABITED_FALSE]
    checked = 0
    for f in inputs:
        visited = []
        derivable(f, on_visit=visited.append)
        for seq in visited:
            for node in subnodes(seq):
                if isinstance(node, Context):
                    assert node.depth == reference_depth(node), str(node)
                elif not isinstance(node, Sequent):
                    assert node.fv == reference_free_vars(node), str(node)
                if isinstance(node, Item):
                    assert node.key == reference_item_key(node), str(node)
                checked += 1
    assert checked > 10_000


@given(formulas)
def test_reparsed_formula_has_equal_hash(f):
    again = parse_formula(print_formula(f))
    assert again == f and hash(again) == hash(f)
    assert again.fv == f.fv


def rebuild(c: Context) -> Context:
    """A clean context rebuilt from nothing with ``fuse`` and ``bracket``."""
    out = Context()
    for item in c.items:
        if isinstance(item, FormulaItem):
            piece = Context((FormulaItem(item.formula),))
        else:
            piece = bracket(rebuild(item.content), set(item.bound))
        out = fuse(out, piece)
    return out


@settings(max_examples=200)
@given(st.integers(0, 2**32))
def test_contexts_along_different_routes_have_equal_hashes(seed):
    normal = normalize(random_context(random.Random(seed)))
    reparsed = normalize(parse_context(str(normal)))
    rebuilt = rebuild(normal)
    assert reparsed == normal and hash(reparsed) == hash(normal)
    assert rebuilt == normal and hash(rebuilt) == hash(normal)
    assert [i.key for i in rebuilt.items] == [i.key for i in normal.items]


def live_nodes() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, NODE_TYPES))


def test_deciding_retains_no_nodes():
    before = live_nodes()
    distinct = {}
    seed = 1000  # past the session corpus, which stays alive throughout
    while len(distinct) < 500:
        f = corpus_formula(seed)
        distinct.setdefault(str(f), f)
        seed += 1
    results = [derivable(f, timeout=10.0) for f in distinct.values()]
    assert sum(stats.visited for _, stats, _ in results) > 500
    del distinct, results, f
    assert live_nodes() <= before


def test_nodes_have_no_instance_dict():
    c = normalize(parse_context("P(f(x)), [forall y. P(y) -> Q]_{x}"))
    for node in subnodes(Sequent(c, parse_formula("Q"))):
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_copies_and_pickles_restore_the_stored_fields():
    c = normalize(parse_context("P(f(x)), [P(x) -> Q]_{x}"))
    seq = Sequent(c, parse_formula("forall x. P(x) -> Q"))
    for again in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert again == seq and hash(again) == hash(seq)
        assert again.context.depth == c.depth == 1
        assert [i.key for i in again.context.items] == [i.key for i in c.items]
        assert again.goal.fv == frozenset()
