import random
import sys

import pytest

from minpl import context, prover, syntax
from minpl.context import BracketItem, Context, FormulaItem, normalize, parse_context
from minpl.prover import (
    NotPositive,
    SearchTimeout,
    SeenSet,
    Sequent,
    _Search,
    auditor,
    derivable,
    derivation_to_json,
)
from minpl.syntax import (
    Atom,
    Forall,
    Node,
    Polarity,
    barendregt_rename,
    decompose,
    parse_formula,
    pieces,
    polarity,
)
from minpl.oracle import generate_positive
from minpl.systemf import parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    ROTATION_WITNESSES,
    bound_vars,
    context_formulas,
    left_chain,
    published_and_witnesses,
    qbf_formula,
    qbf_value,
    random_bracket_sequent,
    random_qbf,
    reference_audit,
    reference_derivable,
    reference_scope_table,
    replay,
    right_chain,
    seq,
    subnodes,
)


# ---------------------------------------------------------------------------
# Verdicts


@pytest.mark.parametrize("text", DERIVABLE_TRUE)
def test_derivable_reported_true(text):
    verdict, stats, derivation = derivable(parse_formula(text))
    assert verdict
    assert derivation is not None
    assert stats.visited > 0


@pytest.mark.parametrize("text", DERIVABLE_FALSE)
def test_derivable_reported_false(text):
    verdict, stats, derivation = derivable(parse_formula(text))
    assert not verdict
    assert derivation is None


def test_derivable_rejects_non_positive():
    with pytest.raises(NotPositive):
        derivable(parse_formula("(forall x. P(x)) -> Q"))


def test_derivable_atom_alone_fails():
    verdict, _, _ = derivable(parse_formula("Q"))
    assert not verdict


def test_qbf_encodings_are_decided_as_brute_force_evaluates_them():
    # each verdict, "no" included, is known from the QBF alone, not from a prover
    verdicts = []
    for n in range(3, 9):
        for seed in range(20):
            q = random_qbf(n, round(1.2 * n), seed=100 * n + seed)
            verdict, _, derivation = derivable(parse_formula(qbf_formula(q)), timeout=10.0)
            assert verdict == qbf_value(q), q
            if verdict:
                replay(derivation)
            verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# The search steps themselves


def test_search_right_rules_reach_expected_sequent():
    # from {A} |- forall x. (P(x) -> Q): bracketing is a no-op on the closed
    # A, then the implication right rule lands on {A, P(x)} |- Q
    a = "(forall x. (P(x) -> Q)) -> Q"
    visited = []
    engine = _Search(on_visit=visited.append)
    engine.search(seq(a, "forall x. (P(x) -> Q)"))
    assert visited[0] == seq(a, "forall x. (P(x) -> Q)")
    assert visited[1] == seq(a, "P(x) -> Q")
    assert visited[2] == seq(f"{a}, P(x)", "Q")


def test_search_prunes_sequent_already_seen():
    s = seq("Q", "Q")
    engine = _Search()
    engine.seen[s] = -1
    assert engine.search(s) is None
    assert _Search().search(s) is not None


def test_search_leaves_the_callers_seen_set_unchanged(corpus):
    # a finished search pops every entry it made, and only those, from its branch
    s, t = seq("Q", "Q"), seq("Q -> Q", "Q")
    engine = _Search()
    engine.seen[s] = -1
    assert engine.search(t) is None
    assert engine.seen == {s: -1}
    # a deep search, and each corpus search, leaves a fresh engine's map empty; the
    # map stays a SeenSet, whose membership test the benchmark's tracer counts as prunes
    for f in [parse_formula(DERIVABLE_FALSE[1])] + corpus[:200]:
        engine = _Search()
        engine.search(Sequent(Context(), barendregt_rename(f)))
        assert engine.seen == {} and type(engine.seen) is SeenSet, str(f)


def test_search_atom_with_empty_context_fails():
    assert _Search().search(Sequent(Context(), parse_formula("P"))) is None


A2 = "(forall x. ((P(x) -> Q) -> Q)) -> Q"


def test_select_head_degenerate_candidate_premise():
    # choosing the outer-level head P(x) -> Q keeps the context unchanged
    visited = []
    engine = _Search(on_visit=visited.append)
    s = seq(f"{A2}, P(x) -> Q", "Q")
    found = engine.search(s)
    assert seq(f"{A2}, P(x) -> Q", "P(x)") in visited
    assert found is None


def test_select_head_never_enters_bracket_capturing_the_goal():
    # goal P(x) has x free, so the bracket binding x is not entered and no
    # other head matches: nothing is visited after the sequent itself
    visited = []
    engine = _Search(on_visit=visited.append)
    s = seq(f"{A2}, [P(x) -> Q]_{{x}}, P(x) -> Q", "P(x)")
    found = engine.search(s)
    assert found is None
    assert visited == [s]


def test_select_head_rotates_brackets_for_inner_head():
    # opening the bracketed copy of P(x) -> Q rebrackets the outside; the
    # naked copy is shut in while the opened content surfaces
    visited = []
    engine = _Search(on_visit=visited.append)
    s = seq(f"{A2}, [P(x) -> Q]_{{x}}, P(x) -> Q", "Q")
    engine.search(s)
    assert seq(f"{A2}, P(x) -> Q, [P(x) -> Q]_{{x}}", "P(x)") in visited


def test_select_head_rotation_keeps_occurrences_separated():
    visited = []
    engine = _Search(on_visit=visited.append)
    s = seq("Q(x), [Q(x) -> P]_{x}", "P")
    found = engine.search(s)
    assert found is None
    assert visited == [s, seq("[Q(x)]_{x}, Q(x) -> P", "Q(x)")]


def test_select_head_finds_zero_premise_head():
    s = seq("P", "P")
    derivation = _Search().search(s)
    assert derivation is not None
    assert derivation.rule == "Limp"
    assert derivation.premises == ()
    assert derivation.head == parse_formula("P")


def test_head_scan_passes_over_other_heads_without_comparing_them(monkeypatch):
    # (A -> A -> G) -> (B1 -> A) -> (B2 -> B1) -> ... -> Bn -> G: every level of the
    # proof scans about n formula items, and only one head is its goal's equal
    n = 1500
    hyps = ["(A -> A -> G)", "(B1 -> A)"] + [f"(B{i} -> B{i - 1})" for i in range(2, n + 1)]
    f = parse_formula(" -> ".join(hyps + [f"B{n}", "G"]))
    calls, equal = [], Node.__eq__

    def counted_eq(self, other):
        calls.append(type(self))
        return equal(self, other)

    monkeypatch.setattr(Node, "__eq__", counted_eq)
    verdict, stats, derivation = derivable(f)
    assert verdict and stats.visited == 2 * n + 4
    assert len(calls) < 10_000, len(calls)
    monkeypatch.undo()
    replay(derivation)


def _atom_chain(n: int) -> str:
    # A0 -> (A0 -> A1) -> ... -> (A(n-1) -> An) -> An
    return " -> ".join(["A0"] + [f"(A{i - 1} -> A{i})" for i in range(1, n + 1)] + [f"A{n}"])


@pytest.mark.parametrize("family", [_atom_chain, left_chain, right_chain],
                         ids=["_atom_chain", "_left_nested", "_right_chain"])
def test_search_takes_one_frame_per_branch_sequent(family):
    # only atomic sequents take a frame: at every visit, the frames less the
    # atomic sequents on the branch do not grow with the input, so Rimp and
    # Rforall steps, head selection and rotation add none
    extra = set()
    for n in (100, 200):
        most = [0]

        def hook(s: Sequent) -> None:
            frame, frames = sys._getframe(), 0
            while frame is not None:
                frame, frames = frame.f_back, frames + 1
            atomic = sum(isinstance(b.goal, Atom) for b in engine.seen)
            most[0] = max(most[0], frames - atomic)

        engine = _Search(on_visit=hook)
        engine.search(Sequent(Context(), barendregt_rename(parse_formula(family(n)))))
        assert engine.stats.visited > n, (n, engine.stats)
        extra.add(most[0])
    assert len(extra) == 1, extra


def test_only_atomic_sequents_enter_the_seen_set_and_the_memo(corpus):
    # the loop check is made where the search branches: a forced step is
    # visited, yet never entered on the branch nor stored
    entered, forced = [], []

    class RecordingSeen(SeenSet):
        def __setitem__(self, s: Sequent, depth: int) -> None:
            entered.append(s)
            super().__setitem__(s, depth)

    stored = 0
    for f in published_and_witnesses() + corpus[:200]:
        engine = _Search(on_visit=lambda s: forced.append(not isinstance(s.goal, Atom)))
        engine.seen = RecordingSeen()
        engine.search(Sequent(Context(), barendregt_rename(f)))
        assert all(isinstance(s.goal, Atom) for s in entered), str(f)
        assert all(isinstance(s.goal, Atom) for s in engine.memo), str(f)
        stored += len(engine.memo)
    # 639 forced visits, 303 entries and 105 stored successes when written
    counts = (sum(forced), len(entered), stored)
    assert counts[0] > 300 and counts[1] > 150 and counts[2] > 50, counts


def test_a_repeated_rimp_sequent_is_pruned_at_its_atomic_sequent():
    # G |- Q -> R ends the root's spine; at G |- R the first head, (Q -> R) -> R,
    # asks for G |- Q -> R again on the same branch.  Its Rimp step is walked a
    # second time, the one prune falls on G |- R, and S -> R then proves it.
    f = parse_formula("Q -> ((Q -> R) -> R) -> (Q -> S) -> (S -> R) -> Q -> R")
    g = "Q, (Q -> R) -> R, Q -> S, S -> R"
    hits, visits = [], []

    class RecordingSeen(SeenSet):
        def __contains__(self, s: object) -> bool:
            hit = super().__contains__(s)
            if hit:
                hits.append(s)
            return hit

    engine = _Search(on_visit=visits.append)
    engine.seen = RecordingSeen()
    derivation = engine.search(Sequent(Context(), f))
    assert visits.count(seq(g, "Q -> R")) == 2
    assert hits == [seq(g, "R")] and engine.stats.prunes == 1
    # a loop check on every sequent prunes the Rimp sequent itself, one visit
    # sooner, and finds the same derivation
    _, ref_visited, ref_derivation = reference_derivable(f)
    assert derivation_to_json(derivation) == derivation_to_json(ref_derivation)
    assert engine.stats.visited == ref_visited + 1 == reference_derivable(f, atomic_only=True)[1]


# ---------------------------------------------------------------------------
# The per-query items and the root's scope table


def test_each_query_builds_one_item_and_decomposition_per_hypothesis(monkeypatch, corpus):
    built, split = [], []

    class CountedItem(FormulaItem):
        __slots__ = ()

        def __new__(cls, formula):
            built.append(formula)
            return super().__new__(cls, formula)

    def counted_decompose(f):
        split.append(f)
        return decompose(f)

    monkeypatch.setattr(prover, "FormulaItem", CountedItem)
    monkeypatch.setattr(context, "decompose", counted_decompose)
    published = [parse_formula(t) for t in DERIVABLE_TRUE + DERIVABLE_FALSE]
    total = 0
    for f in published + corpus[:200]:
        runs = []
        for _ in range(2):
            built.clear()
            split.clear()
            verdict, stats, _ = derivable(f)
            assert len(built) == len(set(built)), f
            # every hypothesis is negative, so its item decomposes it once
            assert split == built, f
            runs.append((verdict, stats.visited, list(built)))
        # the second query builds everything again: no item outlives its query
        assert runs[0] == runs[1], f
        total += len(runs[0][2])
    assert total > 0


def _bracket_subscripts(c: Context) -> list:
    return [item.bound for item in subnodes(c) if isinstance(item, BracketItem)]


def _stored_scope_ids(root) -> set:
    return {id(g.scope) for g in pieces(root) if isinstance(g, Forall)}


def test_every_bracket_subscript_is_a_scope_of_the_root(corpus):
    checked = 0
    for f in published_and_witnesses() + corpus[:500]:
        renamed = barendregt_rename(f)
        expected = set(reference_scope_table(renamed).scopes.values())
        subscripts = []
        derivable(f, on_visit=lambda s: subscripts.extend(_bracket_subscripts(s.context)))
        assert set(subscripts) <= expected, str(f)
        # the search brackets with the very sets its binders stored
        subscripts.clear()
        engine = _Search()
        engine.on_visit = lambda s: subscripts.extend(_bracket_subscripts(s.context))
        engine.search(Sequent(Context(), renamed))
        stored = _stored_scope_ids(renamed)
        assert all(id(bound) in stored for bound in subscripts), str(f)
        checked += len(subscripts)
    # brackets are rare in these searches: 62 subscripts in all
    assert checked > 50, checked


def test_formula_items_carry_the_head_and_arguments_of_negative_formulas(corpus):
    negative = other = 0
    for f in published_and_witnesses() + corpus[:500]:
        for g in pieces(barendregt_rename(f)):
            item = FormulaItem(g)
            if g.pol & 2:
                assert (item.head, item.args) == decompose(g), str(g)
                negative += 1
            else:
                assert (item.head, item.args) == (None, ()), str(g)
                other += 1
    assert negative > 1000 and other > 100, (negative, other)
    # a context may hold any formula; one that is not negative has no head
    (item,) = parse_context("forall x. P(x)").items
    assert (item.head, item.args) == (None, ())


def test_a_long_prefix_walks_its_binders_a_constant_number_of_times(monkeypatch):
    n = 3000
    prefix = "".join(f"forall x{i}. " for i in range(1, n + 1))
    f = parse_formula(prefix + "Q -> Q")
    # the prefix brackets nothing; under a hypothesis its goal is re-entered
    # with P(x1) in the context, which each pass brackets with the scope of x1
    g = parse_formula(f"(({prefix}(P(x1) -> Q)) -> Q) -> Q")
    assert f.scope == frozenset(bound_vars(f)) and len(f.scope) == n
    found, walk = [], syntax._outermost

    def counted_outermost(root):
        binders = walk(root)
        found.extend(binders)
        return binders

    # the binders stored their scopes when parsed: renaming unites the scopes
    # of the outermost ones, and neither the search nor the audit, which takes
    # the renamed input as it is, walks a binder
    monkeypatch.setattr(syntax, "_outermost", counted_outermost)
    assert barendregt_rename(f) is f and barendregt_rename(g) is g and len(found) == 2
    found.clear()
    seen_f, seen_g = [], []
    verdict, stats, _ = derivable(f, on_visit=seen_f.append)
    assert verdict and stats.visited == n + 2
    verdict, stats, _ = derivable(g, on_visit=seen_g.append)
    assert not verdict and len(found) == 2, len(found)
    # subnodes walks the 3,000 binders of each hypothesis, so each distinct context once
    per_context = {c: _bracket_subscripts(c) for c in {s.context for s in seen_g}}
    subscripts = [bound for s in seen_g for bound in per_context[s.context]]
    stored = _stored_scope_ids(g)
    assert len(subscripts) > n and all(id(bound) in stored for bound in subscripts)
    check_f, check_g = auditor(f), auditor(g)
    assert all(check_f(s) == [] for s in seen_f) and all(check_g(s) == [] for s in seen_g)
    assert len(found) == 2, len(found)


# ---------------------------------------------------------------------------
# Statistics, auditing, invariants


def test_stats_depth_bounded_by_scope_table():
    for text in DERIVABLE_TRUE + DERIVABLE_FALSE:
        f = parse_formula(text)
        table = reference_scope_table(barendregt_rename(f))
        _, stats, _ = derivable(f)
        assert stats.max_depth <= table.depth


def test_first_sequent_visited_is_the_renamed_input():
    # the CLI's audit is built from this sequent's goal, so derivable alone renames
    clashing = parse_formula("P(x) -> forall x. forall x. (P(x) -> P(x))")
    assert barendregt_rename(clashing) != clashing  # binders clash with each other and with x
    for f in published_and_witnesses() + [clashing]:
        visited = []
        derivable(f, on_visit=visited.append)
        assert visited[0] == Sequent(Context(), barendregt_rename(f)), str(f)
        check = auditor(visited[0].goal)
        assert all(check(s) == [] for s in visited), str(f)


def test_audit_clean_on_paper_example_search():
    f = barendregt_rename(parse_formula(DERIVABLE_FALSE[0]))
    check, violations = auditor(f), []
    derivable(f, on_visit=lambda s: violations.extend(check(s)))
    assert violations == []


def test_audit_flags_foreign_formula():
    f = barendregt_rename(parse_formula(DERIVABLE_FALSE[0]))
    alien = Sequent(
        Context((FormulaItem(parse_formula("Z -> Z")),)), parse_formula("Q")
    )
    violations = auditor(f)(alien)
    assert len(violations) == 1
    assert "not a piece" in violations[0]


def test_audit_flags_unknown_subscript_and_depth():
    f = barendregt_rename(parse_formula("forall x. (P(x) -> Q)"))
    bad = Sequent(normalize(parse_context("[P(x)]_{x,w}")), parse_formula("Q"))
    messages = " ".join(auditor(f)(bad))
    assert "subscript" in messages
    nested = Sequent(
        parse_context("[[P(x)]_{x}]_{x}"), parse_formula("Q")
    )
    messages = " ".join(auditor(f)(nested))
    assert "bracket outside the scope of the one around it" in messages


def test_audit_checks_nesting_by_binder_scope():
    # scope(x) = {x, y} and scope(y) = {y}: only the y bracket may sit in the x one
    f = barendregt_rename(parse_formula("forall x. forall y. (P(x, y) -> Q)"))
    outside = Sequent(parse_context("[[P(x, y)]_{x,y}]_{y}"), parse_formula("Q"))
    inside = Sequent(parse_context("[[P(x, y)]_{y}]_{x,y}"), parse_formula("Q"))
    violations = auditor(f)(outside)
    assert len(violations) == 1 and violations[0].startswith("bracket outside the scope")
    assert len(reference_audit(outside, f)) == 1
    assert auditor(f)(inside) == reference_audit(inside, f) == []


def _nesting_rule_blind(violations: list[str]) -> list[str]:
    # the reference words the nested-bracket rule's message differently, and
    # adds a nesting-bound rule, which never fires alone (checked below)
    nested = ("bracket for ", "bracket outside the scope")
    kept = [v for v in violations if not _is_bound_message(v)]
    return ["nested" if v.startswith(nested) else v for v in kept]


def _is_bound_message(v: str) -> bool:
    return v.startswith("bracket nesting ")


def test_audit_matches_the_reference_on_random_dirty_sequents():
    rng = random.Random(13)
    checked = flagged = nested = bounded = 0
    for seed in range(400):
        root = barendregt_rename(generate_positive(seed, size=6 + seed % 9, quantifier_depth=3))
        if not root.nbinders:
            continue
        check = prover.auditor(root)
        for _ in range(8):
            s = random_bracket_sequent(rng, root)
            got, expected = check(s), reference_audit(s, root)
            assert _nesting_rule_blind(got) == _nesting_rule_blind(expected), str(s)
            assert bool(got) == bool(expected), str(s)
            assert auditor(root)(s) == got
            checked += 1
            flagged += bool(got)
            nested += "nested" in _nesting_rule_blind(got)
            if any(map(_is_bound_message, expected)):
                bounded += 1
                assert not all(map(_is_bound_message, expected)), str(s)
    # the sample reaches every rule, and sequents both clean and dirty; the
    # reference's bound message is common, yet always beside another
    assert checked > 1000 and 0 < flagged < checked and nested > 100, (checked, flagged, nested)
    assert bounded > 1000, bounded


@pytest.mark.parametrize("kind", ["witnesses", "corpus"])
def test_audit_and_reference_find_no_violation_on_searched_sequents(kind, corpus):
    if kind == "witnesses":
        roots = [parse_formula(ROTATION_WITNESSES["formula"])]
        roots.append(parse_type(ROTATION_WITNESSES["type"]))
    else:
        roots = corpus[:300]
    visited = 0
    for f in roots:
        renamed, seen = barendregt_rename(f), []
        derivable(renamed, on_visit=seen.append)
        check = auditor(renamed)
        assert all(check(s) == reference_audit(s, renamed) == [] for s in seen), str(f)
        visited += len(seen)
    assert visited > len(roots)


def test_observed_bracket_depth_on_quantified_type_search():
    # the empty-type example stays within nesting two even though its scope
    # table allows three
    f = parse_type(INHABITED_FALSE[0])
    depths = []
    verdict, stats, _ = derivable(f, on_visit=lambda s: depths.append(s.context.depth))
    assert not verdict
    assert max(depths) <= 2
    assert stats.max_depth == max(depths)


def test_polarity_preserved_on_every_visited_sequent(corpus):
    def check(s):
        assert polarity(s.goal) in (Polarity.POSITIVE, Polarity.BOTH)
        for g in context_formulas(s.context):
            assert polarity(g) in (Polarity.NEGATIVE, Polarity.BOTH)

    for f in corpus[:120]:
        derivable(f, on_visit=check)


def test_every_visited_context_is_clean(corpus):
    from helpers import is_clean

    def check(s):
        assert is_clean(s.context)

    for f in corpus[:60]:
        derivable(f, on_visit=check)


# ---------------------------------------------------------------------------
# Derivations


def test_derivation_replay_on_reported_true_cases():
    for text in DERIVABLE_TRUE:
        _, _, derivation = derivable(parse_formula(text))
        replay(derivation)


def test_derivation_replay_on_corpus(corpus_results):
    for _, verdict, _, derivation in corpus_results:
        if verdict:
            replay(derivation)


def test_derivation_json_shape():
    _, _, derivation = derivable(parse_formula("Q -> Q"))
    node = derivation_to_json(derivation)
    assert node["rule"] == "Rimp"
    assert node["sequent"] == "|- Q -> Q"
    assert "head" not in node
    (child,) = node["premises"]
    assert child["rule"] == "Limp"
    assert child["head"] == "Q"
    assert child["sequent"] == "Q |- Q"
    assert child["premises"] == []


# ---------------------------------------------------------------------------
# Safety rails


def test_timeout_rail_fires_when_exhausted():
    with pytest.raises(SearchTimeout):
        derivable(parse_formula(DERIVABLE_TRUE[0]), timeout=0.0)


def test_timeout_rail_never_fires_at_sane_budget():
    verdict, _, _ = derivable(parse_formula(DERIVABLE_TRUE[0]), timeout=10.0)
    assert verdict
