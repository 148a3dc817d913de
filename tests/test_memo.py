"""The success cache is exact: against the plain search of
``helpers.reference_derivable`` it changes no verdict and no derivation, and
against that search with the engine's loop check, on atomic sequents only, it
only ever saves visits.  The golden traces cannot show a cache fault,
since none of their queries reuses a success.  A reused success is shared, so
the sequent set the cache checks is collected over distinct nodes."""

import copy
import pickle
import time

import pytest

from minpl.oracle import generate_positive
from minpl.context import bracket, parse_context
from minpl.prover import RULE_LIMP, RULE_RFORALL, RULE_RIMP, Derivation, Sequent, _Search
from minpl.prover import derivable, derivation_to_json
from minpl.syntax import parse_formula
from minpl.systemf import parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    ROTATION_WITNESSES,
    distinct_nodes,
    reference_derivable,
    reference_sequents,
    replay,
    seq,
)


def test_memoised_search_matches_plain_search(corpus):
    published = [parse_formula(t) for t in DERIVABLE_TRUE + DERIVABLE_FALSE]
    generated = [
        generate_positive(i * 7919 + size, size, 0)
        for size in range(60, 81)
        for i in range(12)
    ]
    quantified = [
        generate_positive(i * 7919 + size, size, 1 + i % 3)
        for size in (40, 50, 60, 70, 80)
        for i in range(40)
    ]
    saved = 0
    for f in published + corpus[:200] + generated + quantified:
        verdict, stats, derivation = derivable(f)
        # verdicts and derivations against a loop check on every sequent, visits
        # against one on atomic sequents only, as the engine's
        ref_verdict, _, ref_derivation = reference_derivable(f)
        _, ref_visited, _ = reference_derivable(f, atomic_only=True)
        assert verdict == ref_verdict, f
        if derivation is not None:
            assert derivation_to_json(derivation) == derivation_to_json(ref_derivation)
            replay(derivation)
        else:
            assert ref_derivation is None
        assert stats.visited <= ref_visited, f
        saved += stats.visited < ref_visited
    assert saved > 0, "the cache never engaged"


def test_success_that_pruned_an_ancestor_is_not_reused():
    # Inside G |- A, the search proves G |- Q by B -> Q only after A2 -> Q
    # failed by reaching G |- A again, two steps up.  Where G |- Q is met
    # next, as the second premise of A -> Q -> R, G |- A is no longer on the
    # branch and the plain search proves G |- Q by A2 -> Q; reusing the first
    # proof would change the derivation.
    f = parse_formula(
        "(A2 -> Q) -> (A -> A2) -> (B -> Q) -> (Q -> A) -> (Z -> A) -> Z -> B"
        " -> (A -> Q -> R) -> R"
    )
    verdict, stats, derivation = derivable(f)
    _, ref_visited, ref_derivation = reference_derivable(f)
    assert verdict
    assert derivation_to_json(derivation) == derivation_to_json(ref_derivation)
    assert stats.visited == ref_visited
    limp = derivation
    while limp.rule != "Limp":
        (limp,) = limp.premises
    assert str(limp.premises[1].head) == "A2 -> Q"


def chain(n: int) -> str:
    """``p0 -> (p0 -> p0 -> p1) -> ... -> (p(n-1) -> p(n-1) -> pn) -> pn``:
    each ``pi`` is proved once and reused, so its derivation has 2n + 2
    distinct nodes but about 2 ** (n + 1) as a tree."""
    steps = [f"(p{i} -> p{i} -> p{i + 1})" for i in range(n)]
    return " -> ".join(["p0"] + steps + [f"p{n}"])


def test_sequents_match_the_tree_walk(corpus):
    published = [parse_formula(t) for t in DERIVABLE_TRUE + DERIVABLE_FALSE]
    witnesses = [
        parse_formula(ROTATION_WITNESSES["formula"]),
        parse_type(ROTATION_WITNESSES["type"]),
    ]
    checked = reused = 0
    for f in published + witnesses + corpus[:200] + [parse_formula(chain(8))]:
        _, stats, derivation = derivable(f)
        if derivation is None:
            continue
        reused += stats.memo_hits > 0
        # root first: its walk meets the sets the search collected, whole
        for node in distinct_nodes(derivation):
            assert node.sequents == reference_sequents(node), f
            checked += 1
    assert reused > 1 and checked > 300, (reused, checked)


def test_chain_is_decided_over_distinct_nodes():
    # about 2 ** 41 nodes as a tree, so not walked as one
    n = 40
    f = parse_formula(chain(n))
    start = time.perf_counter()
    verdict, stats, derivation = derivable(f)
    assert time.perf_counter() - start < 1.0
    assert verdict and stats.visited == 2 * n + 2 and stats.memo_hits == n
    nodes = distinct_nodes(derivation)
    assert len(nodes) == 2 * n + 2
    assert sum("sequents" in node.__dict__ for node in nodes) == n


def test_chain_is_replayed_over_distinct_nodes():
    # replay checks each of the 2n + 2 distinct nodes once, not the tree of
    # about 2 ** 41, which took 0.02, 0.10 and 0.39 s at n = 10, 12 and 14
    _, _, derivation = derivable(parse_formula(chain(40)))
    start = time.perf_counter()
    replay(derivation)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("corruption", ["repeat", "head"])
def test_replay_rejects_a_corrupted_shared_node(corruption):
    # one node proves Q for both arguments of Q -> Q -> R; replay checks it
    # once, and still finds a repeated sequent or a wrong head inside it
    f = parse_formula("Q -> (Q -> Q) -> (Q -> Q -> R) -> R")
    loop, step = f.right.left, f.right.right.left
    _, _, derivation = derivable(f)
    (top,) = [node for node in distinct_nodes(derivation) if len(node.premises) == 2]
    proof = top.premises[0]
    replay(Derivation(RULE_LIMP, top.conclusion, (proof, proof), top.head))
    if corruption == "repeat":  # Q -> Q turns Q back into Q: every rule holds
        bad, message = Derivation(RULE_LIMP, proof.conclusion, (proof,), loop), "repeated sequent"
    else:
        bad, message = Derivation(RULE_LIMP, proof.conclusion, (), step), "does not match"
    with pytest.raises(AssertionError, match=message):
        replay(Derivation(RULE_LIMP, top.conclusion, (bad, bad), top.head))


@pytest.mark.parametrize("kind", ["rimp-antecedent", "rforall-bound", "limp-path", "limp-arity"])
def test_replay_rejects_a_node_that_is_no_rule_instance(kind):
    # every premise is the engine's own derivation, so only the node itself is wrong
    if kind == "rimp-antecedent":  # Q |- P -> Q over Q |- Q, not over P, Q |- Q
        node = Derivation(RULE_RIMP, seq("Q", "P -> Q"), (_Search().search(seq("Q", "Q")),))
    elif kind == "rforall-bound":  # bracketed with {y}, so P(x) is not shut in
        below = Sequent(bracket(parse_context("P(x)"), {"y"}), parse_formula("P(x) -> P(x)"))
        node = Derivation(RULE_RFORALL, seq("P(x)", "forall x. (P(x) -> P(x))"),
                          (_Search().search(below),))
    elif kind == "limp-path":  # the opened bracket binds the goal's x
        s = seq("[Q(x)]_{x}", "Q(x)")
        node = Derivation(RULE_LIMP, s, (), parse_formula("Q(x)"), s.context.items)
    else:  # the head P -> Q takes one premise, with goal P
        node = Derivation(RULE_LIMP, seq("P, P -> Q", "Q"), (), parse_formula("P -> Q"))
    for premise in node.premises:
        replay(premise)
    with pytest.raises(AssertionError, match="does not match"):
        replay(node)


def test_chain_derivation_hashes_over_distinct_nodes():
    # a derivation stores its hash from its premises', so the DAG of 2n + 2
    # nodes is not hashed as its tree of about 2 ** 41
    _, _, derivation = derivable(parse_formula(chain(40)))
    start = time.perf_counter()
    h = hash(derivation)
    assert time.perf_counter() - start < 0.1
    assert h == hash(copy.copy(derivation)) == hash(pickle.loads(pickle.dumps(derivation)))


def test_sets_are_collected_only_for_reused_successes():
    # ``A`` is proved through a chain of n hypotheses, then reused as the
    # second argument of ``A -> A -> G``: one set of n + 1 sequents, not one
    # set per node of the chain, which would hold about n ** 2 / 2
    n = 200
    hyps = ["(A -> A -> G)", "(B1 -> A)"] + [f"(B{i + 1} -> B{i})" for i in range(1, n)]
    verdict, stats, derivation = derivable(parse_formula(" -> ".join(hyps + [f"B{n}", "G"])))
    assert verdict and stats.memo_hits == 1
    (collected,) = [d for d in distinct_nodes(derivation) if "sequents" in d.__dict__]
    assert collected.conclusion.goal == parse_formula("A")
    assert len(collected.sequents) == n + 1
