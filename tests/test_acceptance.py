"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  The corpus fixtures are shared with the unit suites (see conftest).
"""

import random
import time

from minpl.context import measure, normalize
from minpl.oracle import FlatSequent, first_provable_depth, ljplus_prove
from minpl.prover import auditor, derivable
from minpl.syntax import barendregt_rename, parse_formula, polarity
from minpl.systemf import inhabited, parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    is_clean,
    random_context,
    random_type,
    reference_free_vars,
    reference_parse,
    reference_polarity,
    reference_print_type,
    replay,
    rewrite_steps,
)


def _report(number: int, detail: str) -> None:
    print(f"\ncriterion {number}: PASS  ({detail})")


def test_criterion_1_reported_verdicts():
    checked = 0
    for text, expected in [(t, True) for t in DERIVABLE_TRUE] + [
        (t, False) for t in DERIVABLE_FALSE
    ]:
        start = time.monotonic()
        verdict, _, _ = derivable(parse_formula(text))
        elapsed = time.monotonic() - start
        assert verdict is expected, text
        assert elapsed < 1.0, text
        checked += 1
    for text, expected in [(t, True) for t in INHABITED_TRUE] + [
        (t, False) for t in INHABITED_FALSE
    ]:
        start = time.monotonic()
        verdict, _, _ = inhabited(parse_type(text))
        elapsed = time.monotonic() - start
        assert verdict is expected, text
        assert elapsed < 1.0, text
        checked += 1
    _report(1, f"{checked} published verdicts exact, each under a second")


def test_criterion_2_oracle_equivalence(corpus_results):
    assert len(corpus_results) >= 500
    confirmed = refuted = 0
    for f, verdict, _, _ in corpus_results:
        if verdict:
            assert first_provable_depth(FlatSequent((), f), 20) is not None, f
            confirmed += 1
        else:
            assert not ljplus_prove(FlatSequent((), f), 12), f
            refuted += 1
    _report(
        2,
        f"{confirmed} positives confirmed <= depth 20, "
        f"{refuted} negatives unprovable <= depth 12, 100% agreement",
    )


def test_criterion_3_cleaning_suite():
    contexts = steps = 0
    for seed in range(10_000):
        c = random_context(random.Random(seed))
        before = measure(c)
        for rewritten in rewrite_steps(c):
            assert measure(rewritten) < before
            steps += 1
        normal = normalize(c)
        assert is_clean(normal)
        assert normalize(normal) == normal
        assert reference_free_vars(normal) == reference_free_vars(c)
        contexts += 1
    _report(
        3,
        f"{contexts} contexts, {steps} single rewrite steps all strictly "
        "descending, normalize idempotent and variable-preserving",
    )


def test_criterion_4_search_audit(corpus):
    texts = list(DERIVABLE_TRUE + DERIVABLE_FALSE)
    formulas = [parse_formula(t) for t in texts]
    formulas += [parse_type(t) for t in INHABITED_TRUE + INHABITED_FALSE]
    formulas += corpus[:100]
    audited = 0
    for f in formulas:
        renamed, violations = barendregt_rename(f), []
        check = auditor(renamed)
        _, stats, _ = derivable(renamed, on_visit=lambda s: violations.extend(check(s)))
        assert violations == [], f
        audited += stats.visited
    _report(
        4,
        f"{len(formulas)} searches audited ({audited} sequents), zero violations",
    )


def test_criterion_5_termination_rail(corpus_results):
    # the fixture already decided every instance under a 10 second timeout;
    # a timeout would have raised SearchTimeout and failed the suite here
    slowest = max(stats.elapsed for _, _, stats, _ in corpus_results)
    assert len(corpus_results) >= 500
    assert slowest < 10.0
    _report(
        5,
        f"{len(corpus_results)} instances decided, slowest "
        f"{slowest * 1000:.1f} ms, 10 s rail never fired",
    )


def test_criterion_6_derivation_validity(corpus_results):
    texts = list(DERIVABLE_TRUE) + list(INHABITED_TRUE)
    derivations = []
    for text in DERIVABLE_TRUE:
        _, _, d = derivable(parse_formula(text))
        derivations.append(d)
    for text in INHABITED_TRUE:
        _, _, d = inhabited(parse_type(text))
        derivations.append(d)
    for _, verdict, _, d in corpus_results:
        if verdict:
            derivations.append(d)
    for d in derivations:
        assert d is not None
        replay(d)
    _report(
        6,
        f"{len(derivations)} derivations replayed premise-exact with no "
        "branch repetition",
    )


def test_criterion_7_translation_suite():
    identity = parse_type("forall X. X -> X")
    assert identity == reference_parse("forall X. X -> X", "type")
    assert identity == parse_formula("forall X. (eps(X) -> eps(X))")
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        t = random_type(rng, rng.randint(0, 12))
        assert polarity(parse_type(reference_print_type(t))) == reference_polarity(t)
        checked += 1
    _report(7, f"translation exact on the identity type, polarity commutes on {checked} types")
