"""The success cache is exact: against the plain search of
``helpers.reference_derivable`` it changes no verdict and no derivation, and
it only ever saves visits.  The golden traces cannot show a cache fault,
since none of their queries reuses a success."""

from minpl.oracle import generate_positive
from minpl.prover import derivable, derivation_to_json
from minpl.syntax import parse_formula

from helpers import DERIVABLE_FALSE, DERIVABLE_TRUE, reference_derivable, replay


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
        ref_verdict, ref_visited, ref_derivation = reference_derivable(f)
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
