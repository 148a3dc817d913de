"""Shared test utilities: seeded generators, independent oracles and
derivation replay, used by the unit suites and the acceptance gate alike.

Everything here is deliberately written as a separate, simpler route than the
library code it checks: the rewrite-step enumerator applies the cleaning rules
literally and the clean form is where its steps end, ``rule_instances`` spells
out the rules once, for replay and the reference search alike, and the
structural references (binders, pieces, scope tables) read the nodes that
``subnodes`` walks, not the fields the nodes stored.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from contextlib import contextmanager
from typing import Iterator, NamedTuple

from hypothesis import strategies as st

from minpl.context import (
    BracketItem,
    Context,
    FormulaItem,
    Item,
    bracket,
    fuse,
    normalize,
    parse_context,
)
from minpl.oracle import FlatSequent, FreshNames, _apply_renaming, generate_positive
from minpl.prover import RULE_LIMP, RULE_RFORALL, RULE_RIMP, Derivation, Sequent
from minpl.syntax import (
    Atom,
    Forall,
    Formula,
    Func,
    Imp,
    ParseError,
    Polarity,
    Term,
    Var,
    barendregt_rename,
    decompose,
    parse_formula,
    print_formula,
)
from minpl.systemf import EPS, parse_type

# ---------------------------------------------------------------------------
# Reported verdicts shared by the prover tests and the acceptance gate

DERIVABLE_TRUE = (
    "((((P -> Q) -> P) -> P) -> Q) -> Q",
    "((forall x. (((Q -> R) -> Q) -> P(x) -> Q)) -> R) -> R",
    "forall x. forall y. forall z. (((((P(y) -> P(x)) -> P(z)) -> "
    "((P(y) -> P(z)) -> P(z))) -> P(x)) -> P(x))",
)

DERIVABLE_FALSE = (
    "((forall x. (P(x) -> Q)) -> Q) -> Q",
    "((forall x. ((P(x) -> Q) -> Q)) -> Q) -> Q",
    "forall x. (((forall y. forall z. (((P(y) -> P(x)) -> P(z)) -> "
    "((P(y) -> P(z)) -> P(z)))) -> P(x)) -> P(x))",
    "((forall x. (P(x) -> ((forall y. (P(y) -> Q)) -> R) -> R)) -> Q) -> Q",
)

INHABITED_TRUE = (
    "forall X. forall Y. forall Z. (((((Y -> X) -> Z) -> ((Y -> Z) -> Z)) -> X) -> X)",
    "forall X. X -> X",
)

INHABITED_FALSE = (
    "forall X. (((forall Y. forall Z. (((Y -> X) -> Z) -> ((Y -> Z) -> Z))) -> X) -> X)",
)

# Derivable only by head rotation: the inner frame's goal ``R`` needs ``E(x)``
# of an older ``x``, which only a bracketed frame holds.  Kept apart from the
# published verdicts above, which define the golden traces.
ROTATION_WITNESSES = {
    "formula": "((forall x. (E(x) -> R) -> ((E(x) -> Q) -> K) -> K) -> Q) -> (R -> K) -> Q",
    "type": "forall Q. forall R. forall K. "
    "((forall X. (X -> R) -> ((X -> Q) -> K) -> K) -> Q) -> (R -> K) -> Q",
}


def published_and_witnesses() -> list[Formula]:
    """The published formulas, then the published types, then the two rotation
    witnesses, parsed."""
    roots = [parse_formula(t) for t in DERIVABLE_TRUE + DERIVABLE_FALSE]
    roots += [parse_type(t) for t in INHABITED_TRUE + INHABITED_FALSE]
    return roots + [parse_formula(ROTATION_WITNESSES["formula"]), parse_type(ROTATION_WITNESSES["type"])]

# ---------------------------------------------------------------------------
# Seeded corpus

CORPUS_SIZE = 500


def corpus_formula(seed: int) -> Formula:
    """Deterministic corpus instance: sizes 4..12, quantifier depth 0..3."""
    return generate_positive(seed, size=4 + seed % 9, quantifier_depth=seed % 4)


# ---------------------------------------------------------------------------
# Random (possibly dirty) contexts for the cleaning suite

_POOL = tuple(
    parse_formula(s)
    for s in (
        "Q",
        "R",
        "P(x)",
        "P(y)",
        "S(z)",
        "P(x) -> Q",
        "Q -> P(z)",
        "P(x) -> P(y)",
    )
)


def random_item(rng: random.Random, depth_left: int) -> Item:
    if depth_left == 0 or rng.random() < 0.55:
        return FormulaItem(rng.choice(_POOL))
    bound = frozenset(rng.sample(("x", "y", "z"), rng.randint(1, 2)))
    return BracketItem(random_context(rng, depth_left - 1), bound)


def random_context(rng: random.Random, depth_left: int = 3) -> Context:
    items = [random_item(rng, depth_left) for _ in range(rng.randint(0, 4))]
    if items and rng.random() < 0.4:
        items.append(rng.choice(items))
    return Context(tuple(items))


def rewrite_steps(c: Context) -> Iterator[Context]:
    """Every context reachable from ``c`` by one cleaning rule application,
    applied anywhere: collapse a duplicate, drop an empty bracket, or hoist a
    bracketed item with no free variable in the bound set."""
    items = c.items
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j]:
                yield Context(items[:j] + items[j + 1 :])
    for i, item in enumerate(items):
        if not isinstance(item, BracketItem):
            continue
        if not item.content.items:
            yield Context(items[:i] + items[i + 1 :])
        inner = item.content.items
        for k, sub in enumerate(inner):
            if reference_free_vars(sub) & item.bound:
                continue
            rest = BracketItem(Context(inner[:k] + inner[k + 1 :]), item.bound)
            yield Context(items[:i] + (sub, rest) + items[i + 1 :])
        for rewritten in rewrite_steps(item.content):
            yield Context(items[:i] + (BracketItem(rewritten, item.bound),) + items[i + 1 :])


def sorted_levels(c: Context) -> Context:
    """``c`` with every level sorted by the canonical item order, duplicates
    kept: one representative of ``c`` read as nested multisets."""
    items = (
        BracketItem(sorted_levels(i.content), i.bound) if isinstance(i, BracketItem) else i
        for i in c.items
    )
    return Context(tuple(sorted(items, key=reference_item_key)))


def clean_form(c: Context) -> Context:
    """The normal form of ``c`` under the three cleaning rules.  Every level
    is sorted, so that items equal as nested multisets compare equal, then
    the first step ``rewrite_steps`` yields is taken until none applies;
    sorting again may show new duplicates, so this repeats until no step
    applies to the sorted context.  Cleaning is confluent, so every order of
    steps ends here."""
    c = sorted_levels(c)
    while (step := next(rewrite_steps(c), None)) is not None:
        while step is not None:
            c, step = step, next(rewrite_steps(step), None)
        c = sorted_levels(c)
    return c


def is_clean(c: Context) -> bool:
    """True iff every level is sorted by the canonical item order and no
    cleaning rule applies anywhere in ``c``."""
    return sorted_levels(c) == c and next(rewrite_steps(c), None) is None


# ---------------------------------------------------------------------------
# The rules, written once, and their two readers: derivation replay and the
# reference search, the plain depth-first search with a loop check and no cache


def seq(ctx_text: str, goal_text: str) -> Sequent:
    return Sequent(normalize(parse_context(ctx_text)), parse_formula(goal_text))


def rule_instances(seq: Sequent):
    """Every rule instance at ``seq`` as ``(rule, premises, head, path)``, in
    the order the engine tries them.  ``Rimp`` and ``Rforall`` stand alone.  At
    an atomic goal each head that matches it makes a ``Limp`` instance: a
    level's formulas in item order, then each bracket whose bound set misses
    the goal's free variables, opened in item order.  Opening one rotates the
    context outside it in, bracketed with its bound set; ``path`` holds the
    brackets opened to reach the head."""
    ctx, goal = seq.context, seq.goal
    if isinstance(goal, Imp):
        premise = Sequent(fuse(ctx, Context((FormulaItem(goal.left),))), goal.right)
        yield RULE_RIMP, (premise,), None, ()
    elif isinstance(goal, Forall):
        premise = Sequent(bracket(ctx, frozenset(bound_vars(goal))), goal.body)
        yield RULE_RFORALL, (premise,), None, ()
    else:
        stack = [(ctx, Context(), ())]
        while stack:
            level, outside, path = stack.pop()
            below = []
            for item in level.items:
                if isinstance(item, FormulaItem):
                    head, args = decompose(item.formula)
                    if head == goal:
                        premise_ctx = fuse(level, outside)
                        premises = tuple(Sequent(premise_ctx, arg) for arg in args)
                        yield RULE_LIMP, premises, item.formula, path
                elif not goal.fv & item.bound:
                    siblings = Context(tuple(i for i in level.items if i != item))
                    rotated = bracket(fuse(outside, siblings), item.bound)
                    below.append((item.content, rotated, path + (item,)))
            stack.extend(reversed(below))


def replay(d: Derivation) -> None:
    """Fail unless every node of a derivation is one of the ``rule_instances``
    at its conclusion, with the same rule, premise conclusions, head and path;
    also checks that no sequent repeats along a branch.

    A shared subderivation is replayed once: each distinct node's instance is
    checked when it is first met, and its conclusion against the set of the
    conclusions below it, built bottom-up.  A premise's set is copied into its
    parent's, or taken over by the last parent that reads it.  The walk is on
    a stack, so it takes no frame per level."""
    parents: dict[int, int] = {}  # readers left of each distinct node's set
    for node in distinct_nodes(d):
        for premise in node.premises:
            parents[id(premise)] = parents.get(id(premise), 0) + 1
    below: dict[int, set] = {}
    checked, stack = set(), [(d, False)]
    while stack:
        node, entered = stack.pop()
        if not entered:
            if id(node) not in checked:  # a second copy pops after the first is done
                checked.add(id(node))
                instance = (node.rule, tuple(p.conclusion for p in node.premises), node.head,
                            node.path)
                assert instance in rule_instances(node.conclusion), (
                    f"{node.rule} node does not match a rule instance at {node.conclusion}"
                )
                stack.append((node, True))
                stack += ((premise, False) for premise in node.premises)
            continue
        under: set = set()
        for premise in node.premises:
            parents[id(premise)] -= 1
            if parents[id(premise)]:
                under |= below[id(premise)]
            else:
                taken = below.pop(id(premise))
                under, taken = (taken, under) if len(taken) > len(under) else (under, taken)
                under |= taken
            under.add(premise.conclusion)
        assert node.conclusion not in under, f"repeated sequent on a branch: {node.conclusion}"
        below[id(node)] = under


def reference_sequents(d: Derivation) -> frozenset[Sequent]:
    """Every conclusion in a derivation by a plain tree walk, which visits a
    shared subderivation once for each place it is used."""
    out, stack = [], [d]
    while stack:
        node = stack.pop()
        out.append(node.conclusion)
        stack.extend(node.premises)
    return frozenset(out)


def distinct_nodes(d: Derivation) -> list[Derivation]:
    """The nodes of a derivation, each shared one once, root first."""
    seen, stack = {}, [d]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return list(seen.values())


def reference_derivable(f: Formula, atomic_only: bool = False):
    """``(verdict, visited, derivation)`` of the plain search on the renamed
    ``f``: every sequent is searched afresh, trying its ``rule_instances`` in
    order, and the loop check prunes a sequent already on its branch (kept as
    a persistent frozenset).  With ``atomic_only`` only atomic sequents join
    the branch, as in the engine, so a repeated forced step is walked again
    down to its atomic sequent."""
    visited = 0

    def search(seq: Sequent, above: frozenset) -> Derivation | None:
        nonlocal visited
        if seq in above:
            return None
        visited += 1
        if not (atomic_only and isinstance(seq.goal, (Imp, Forall))):
            above = above | {seq}
        for rule, premises, head, path in rule_instances(seq):
            subs = []
            for premise in premises:
                sub = search(premise, above)
                if sub is None:
                    break
                subs.append(sub)
            else:
                return Derivation(rule, seq, tuple(subs), head=head, path=path)
        return None

    d = search(Sequent(Context(), barendregt_rename(f)), frozenset())
    return d is not None, visited, d


# ---------------------------------------------------------------------------
# From-scratch analyses of nodes, ignoring everything the nodes store


def reference_free_vars(x) -> frozenset[str]:
    """Free variables of a term, formula, item or context by plain recursion."""
    if isinstance(x, Var):
        return frozenset((x.name,))
    if isinstance(x, (Func, Atom, Context)):
        parts = x.args if isinstance(x, Func) else x.terms if isinstance(x, Atom) else x.items
        return frozenset().union(*map(reference_free_vars, parts))
    if isinstance(x, Imp):
        return reference_free_vars(x.left) | reference_free_vars(x.right)
    if isinstance(x, Forall):
        return reference_free_vars(x.body) - {x.var}
    if isinstance(x, FormulaItem):
        return reference_free_vars(x.formula)
    return reference_free_vars(x.content) - x.bound


def reference_item_key(item: Item):
    """The canonical sort key: formulas by printed form before brackets by
    sorted bound set, then by their content's keys."""
    if isinstance(item, FormulaItem):
        return (0, str(item.formula))
    return (
        1,
        tuple(sorted(item.bound)),
        tuple(reference_item_key(i) for i in item.content.items),
    )


def reference_depth(c: Context) -> int:
    """Maximum bracket nesting by plain recursion."""
    return max(
        (1 + reference_depth(i.content) for i in c.items if isinstance(i, BracketItem)),
        default=0,
    )


def subnodes(x):
    """``x`` and every term, formula, item and context below it, in
    pre-order, left to right: a loop on a stack, so any depth walks."""
    stack = [x]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, Sequent):
            children = (x.context, x.goal)
        elif isinstance(x, Context):
            children = x.items
        elif isinstance(x, FormulaItem):
            children = (x.formula,)
        elif isinstance(x, BracketItem):
            children = (x.content,)
        elif isinstance(x, Imp):
            children = (x.left, x.right)
        elif isinstance(x, Forall):
            children = (x.body,)
        else:
            children = x.args if isinstance(x, Func) else getattr(x, "terms", ())
        stack.extend(reversed(children))


# ---------------------------------------------------------------------------
# Structural helpers, each read off ``subnodes``


def binders(f: Formula) -> list[Forall]:
    """The binders of ``f``, its ``Forall`` nodes, in pre-order."""
    return [g for g in subnodes(f) if isinstance(g, Forall)]


def bound_vars(f: Formula) -> tuple[str, ...]:
    """All variables bound anywhere in ``f``, in left-to-right binder order;
    duplicate-free exactly when ``f`` satisfies the Barendregt condition."""
    return tuple(g.var for g in binders(f))


def stored_scopes(f: Formula) -> dict[str, frozenset[str]]:
    """The scope each binder of ``f`` stored when it was built, keyed by its
    name in binder pre-order; for renamed formulas, whose binders are apart."""
    return {g.var: g.scope for g in binders(f)}


def position_formulas(f: Formula) -> list[Formula]:
    """The formula at every tree position in pre-order (duplicates kept)."""
    return [g for g in subnodes(f) if isinstance(g, Formula)]


def context_formulas(x: Context | Item) -> list[Formula]:
    """Every formula item's formula anywhere in a context, at any bracket depth."""
    return [i.formula for i in subnodes(x) if isinstance(i, FormulaItem)]


def connectives(f: Formula) -> int:
    return sum(isinstance(g, (Imp, Forall)) for g in subnodes(f))


def debruijn(f: Formula, env: tuple[str, ...] = ()):
    """Nameless skeleton of a formula, for alpha-equivalence checks."""

    def conv_term(t: Term, env: tuple[str, ...]):
        if isinstance(t, Var):
            if t.name in env:
                return ("b", env.index(t.name))
            return ("f", t.name)
        return ("fn", t.name, tuple(conv_term(a, env) for a in t.args))

    if isinstance(f, Atom):
        return ("atom", f.pred, tuple(conv_term(t, env) for t in f.terms))
    if isinstance(f, Imp):
        return ("imp", debruijn(f.left, env), debruijn(f.right, env))
    return ("all", debruijn(f.body, (f.var,) + env))


def renaming_bijection(a, b) -> bool:
    """True iff two flat sequents differ only by a bijective renaming of
    variable names (applied uniformly to free and bound occurrences)."""
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}

    def var_ok(x: str, y: str) -> bool:
        return fwd.setdefault(x, y) == y and bwd.setdefault(y, x) == x

    def term_ok(s: Term, t: Term) -> bool:
        if isinstance(s, Var) and isinstance(t, Var):
            return var_ok(s.name, t.name)
        if isinstance(s, Func) and isinstance(t, Func):
            return (
                s.name == t.name
                and len(s.args) == len(t.args)
                and all(term_ok(p, q) for p, q in zip(s.args, t.args))
            )
        return False

    def form_ok(f: Formula, g: Formula) -> bool:
        if isinstance(f, Atom) and isinstance(g, Atom):
            return (
                f.pred == g.pred
                and len(f.terms) == len(g.terms)
                and all(term_ok(p, q) for p, q in zip(f.terms, g.terms))
            )
        if isinstance(f, Imp) and isinstance(g, Imp):
            return form_ok(f.left, g.left) and form_ok(f.right, g.right)
        if isinstance(f, Forall) and isinstance(g, Forall):
            return var_ok(f.var, g.var) and form_ok(f.body, g.body)
        return False

    if len(a.context) != len(b.context):
        return False
    return all(form_ok(f, g) for f, g in zip(a.context, b.context)) and form_ok(
        a.goal, b.goal
    )


def tvar(name: str) -> Atom:
    """The translation ``eps(X)`` of the type variable ``X``, a fresh atom."""
    return Atom(EPS, (Var(name),))


def random_type(rng: random.Random, size: int, scope: tuple[str, ...] = ("X", "Y", "Z")) -> Formula:
    """The translation of an arbitrary type of bounded size, built from
    ``Atom``, ``Imp`` and ``Forall``; polarity unrestricted on purpose."""
    if size <= 0 or rng.random() < 0.25:
        return tvar(rng.choice(scope))
    if rng.random() < 0.3:
        return Forall(rng.choice(("X", "Y", "Z", "W")), random_type(rng, size - 1, scope))
    left = rng.randint(0, size - 1)
    return Imp(random_type(rng, left, scope), random_type(rng, size - 1 - left, scope))


# ---------------------------------------------------------------------------
# Recursive references for the spine-iterative parsers, polarity and the type printer


class _ReferenceTokens:
    """The token cursor as first written: ``(text, position)`` pairs from
    ``finditer``, identifiers checked against a regular expression."""

    TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|[(),.\[\]{}]|\S")
    IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")

    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.group(), m.start()) for m in self.TOKEN.finditer(text)]
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def position(self) -> int:
        if self.index < len(self.tokens):
            return self.tokens[self.index][1]
        return len(self.text)

    def advance(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.position())
        self.index += 1
        return tok

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            found = "end of input" if got is None else repr(got)
            raise ParseError(f"expected {token!r}, found {found}", self.position())
        self.index += 1

    def ident(self) -> str:
        got = self.peek()
        if got is None or got == "forall" or not self.IDENT.match(got):
            found = "end of input" if got is None else repr(got)
            raise ParseError(f"expected an identifier, found {found}", self.position())
        self.index += 1
        return got

    def finish(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing input {self.peek()!r}", self.position())


def _reference_spine(ts: _ReferenceTokens, atom):
    """Recursive descent, one call per binder, arrow and parenthesis."""
    if ts.peek() == "forall":
        ts.advance()
        var = ts.ident()
        ts.expect(".")
        return Forall(var, _reference_spine(ts, atom))
    if ts.peek() == "(":
        ts.advance()
        left = _reference_spine(ts, atom)
        ts.expect(")")
    else:
        left = atom(ts)
    if ts.peek() == "->":
        ts.advance()
        return Imp(left, _reference_spine(ts, atom))
    return left


def _reference_args(ts: _ReferenceTokens) -> tuple[Term, ...]:
    ts.advance()
    args = [_reference_term(ts)]
    while ts.peek() == ",":
        ts.advance()
        args.append(_reference_term(ts))
    ts.expect(")")
    return tuple(args)


def _reference_atom(ts: _ReferenceTokens) -> Atom:
    pred = ts.ident()
    return Atom(pred, _reference_args(ts)) if ts.peek() == "(" else Atom(pred)


def _reference_term(ts: _ReferenceTokens) -> Term:
    name = ts.ident()
    return Func(name, _reference_args(ts)) if ts.peek() == "(" else Var(name)


def reference_parse(text: str, kind: str) -> Formula:
    """Parse a formula, or (``kind == "type"``) translate a type, recursively;
    a type variable ``X`` becomes a fresh ``eps(X)`` atom at each occurrence."""
    ts = _ReferenceTokens(text)
    if kind == "type":
        out = _reference_spine(ts, lambda ts: tvar(ts.ident()))
    else:
        out = _reference_spine(ts, _reference_atom)
    ts.finish()
    return out


def reference_rename(f: Formula) -> Formula:
    """Barendregt renaming as first written: every ``Imp`` and ``Forall``
    rebuilt, and every atom under a renamed binder."""
    used = set(f.fv)
    counter = itertools.count(1)

    def term(t: Term, env: dict[str, str]) -> Term:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        return Func(t.name, tuple(term(a, env) for a in t.args))

    def go(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(term(t, env) for t in g.terms)) if env else g
        if isinstance(g, Imp):
            return Imp(go(g.left, env), go(g.right, env))
        if g.var not in used:
            used.add(g.var)
            return Forall(g.var, go(g.body, env))
        name = f"{g.var}_{next(counter)}"
        while name in used:
            name = f"{g.var}_{next(counter)}"
        used.add(name)
        return Forall(name, go(g.body, {**env, g.var: name}))

    return go(f, {})


def reference_print_type(t: Formula) -> str:
    """The recursive type printer that ``print_type`` replaced, read off a
    translation: ``eps(X)`` prints as ``X``."""
    if isinstance(t, Atom):
        assert t.pred == EPS and len(t.terms) == 1 and isinstance(t.terms[0], Var), t
        return t.terms[0].name
    if isinstance(t, Imp):
        left = reference_print_type(t.left)
        if not isinstance(t.left, Atom):
            left = f"({left})"
        return f"{left} -> {reference_print_type(t.right)}"
    body = reference_print_type(t.body)
    if isinstance(t.body, Imp):
        body = f"({body})"
    return f"forall {t.var}. {body}"


def reference_polarity(x: Formula) -> Polarity:
    """Polarity by the plain recursive induction."""

    def pos_neg(y) -> tuple[bool, bool]:
        if isinstance(y, Imp):
            lpos, lneg = pos_neg(y.left)
            rpos, rneg = pos_neg(y.right)
            return lneg and rpos, lpos and rneg
        if isinstance(y, Forall):
            return pos_neg(y.body)[0], False
        return True, True

    pos, neg = pos_neg(x)
    if pos and neg:
        return Polarity.BOTH
    return Polarity.POSITIVE if pos else Polarity.NEGATIVE if neg else Polarity.NEITHER


class ScopeTable(NamedTuple):
    """Binder scope sets of a renamed formula, keyed by binder name in
    pre-order, and the number of binders on its deepest chain."""

    scopes: dict[str, frozenset[str]]
    depth: int


def left_chain(n: int) -> str:
    """``(...((Q -> Q) -> Q)...) -> Q`` with ``n`` arrows."""
    return "(" * (n - 1) + "Q" + " -> Q)" * (n - 1) + " -> Q"


def right_chain(n: int) -> str:
    """``Q -> ... -> Q`` with ``n`` arrows."""
    return " -> ".join(["Q"] * (n + 1))


def nested_brackets(n: int, kind: str) -> tuple[str, str]:
    """A context of ``n`` nested brackets and its cleaned form: a clean one,
    ``[...[P(x1, ..., xn)]_{xn}...]_{x1}``, or a dirty one, in which every
    bracket binds ``x``."""
    if kind == "clean":
        args = ", ".join(f"x{i}" for i in range(1, n + 1))
        text = "[" * n + f"P({args})" + "".join(f"]_{{x{i}}}" for i in range(n, 0, -1))
        return text, text
    return "[" * n + "Q, P(x)" + "]_{x}" * n, "Q, [P(x)]_{x}"


@contextmanager
def recursion_limit(limit: int):
    """Run the block under the recursion limit ``limit``, then put the
    interpreter's limit back as it was: at 1,000, the default, it shows that
    library code walks deep input without a frame per level."""
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(before)


def reference_scope_table(f: Formula) -> ScopeTable:
    """The scope table of a renamed ``f``: each binder's bound variables
    collected afresh, and as depth the most binders whose scopes hold one
    binder, the binders on its chain."""
    scopes = {g.var: frozenset(bound_vars(g)) for g in binders(f)}
    depth = max((sum(x in s for s in scopes.values()) for x in scopes), default=0)
    return ScopeTable(scopes, depth)


def reference_audit(seq: Sequent, root: Formula) -> list[str]:
    """The audit of a sequent searched from the renamed ``root``, as it was
    before its loop: a recursion over the reference scope table that maps each
    bracket subscript to the binder whose scope set it is, and tests a directly
    nested bracket's binder for membership in the enclosing binder's scope."""
    piece_set, table = frozenset(position_formulas(root)), reference_scope_table(root)
    subscript_binder = {v: x for x, v in table.scopes.items()}
    violations: list[str] = []

    def check(ctx: Context, nesting: int, outer: str | None) -> None:
        for item in ctx.items:
            if isinstance(item, FormulaItem):
                if item.formula not in piece_set:
                    violations.append(f"not a piece of the input: {item}")
                continue
            binder = subscript_binder.get(item.bound)
            if binder is None:
                violations.append(f"bracket subscript is no binder scope: {item}")
            if nesting + 1 > table.depth:
                violations.append(f"bracket nesting {nesting + 1} exceeds bound {table.depth}")
            if binder is not None and outer is not None:
                if binder == outer or binder not in table.scopes[outer]:
                    violations.append(
                        f"bracket for {binder} nested under {outer}, which does not enclose it"
                    )
            check(item.content, nesting + 1, binder)

    check(seq.context, 0, None)
    if seq.goal not in piece_set:
        violations.append(f"goal is not a piece of the input: {seq.goal}")
    return violations


def random_bracket_sequent(rng: random.Random, root: Formula) -> Sequent:
    """A sequent with a dirty context read by ``parse_context``: a random
    nesting of brackets, up to one level deeper than ``root``'s binders nest,
    over pieces of ``root`` and now and then a foreign formula.  Most
    subscripts are scope sets of ``root``; the rest are other sets of its
    binders, and a few name a foreign variable."""
    formulas = sorted(set(map(print_formula, position_formulas(root))))
    table = reference_scope_table(root)
    scopes = [sorted(v) for v in table.scopes.values()]
    binders = sorted(table.scopes)

    def level(depth: int) -> str:
        parts = []
        for _ in range(rng.randint(1, 3)):
            if depth and rng.random() < 0.6:
                if rng.random() < 0.8:
                    bound = rng.choice(scopes)
                else:
                    bound = rng.sample(binders, rng.randint(1, len(binders)))
                    bound += ["w"] if rng.random() < 0.2 else []
                parts.append(f"[{level(depth - 1)}]_{{{','.join(bound)}}}")
            else:
                parts.append(rng.choice(formulas) if rng.random() < 0.95 else "W(w) -> W(w)")
        return ", ".join(parts)

    goal = rng.choice(formulas) if rng.random() < 0.95 else "W(w)"
    return Sequent(parse_context(level(table.depth + 1)), parse_formula(goal))


def flatten(seq: Sequent, names: FreshNames | None = None) -> FlatSequent:
    """Erase the brackets of a clean sequent after renaming every
    bracket-bound variable to a globally fresh name.

    Deterministic given the name counter; two flattenings taken with
    different counters differ only by a bijective renaming of the fresh
    names.
    """
    names = names if names is not None else FreshNames()
    hyps: list[Formula] = []

    def walk(ctx: Context, env: dict[str, str]) -> None:
        for item in ctx.items:
            if isinstance(item, FormulaItem):
                hyps.append(_apply_renaming(item.formula, env))
            else:
                inner = dict(env)
                for v in sorted(item.bound):
                    inner[v] = names.fresh(v)
                walk(item.content, inner)

    walk(seq.context, {})
    return FlatSequent(tuple(hyps), seq.goal)


def reference_elide(f: Formula) -> Formula:
    """``f`` rebuilt with every ``eps(X)`` turned into the nullary atom ``X``,
    the structural route that ``elide_eps`` replaces by a text edit."""
    if isinstance(f, Atom):
        if f.pred == EPS and len(f.terms) == 1 and isinstance(f.terms[0], Var):
            return Atom(f.terms[0].name)
        return f
    if isinstance(f, Imp):
        return Imp(reference_elide(f.left), reference_elide(f.right))
    return Forall(f.var, reference_elide(f.body))


def reference_elide_ctx(c: Context) -> Context:
    # Context() keeps the given order, so the items print where they stood
    return Context(tuple(
        FormulaItem(reference_elide(i.formula)) if isinstance(i, FormulaItem)
        else BracketItem(reference_elide_ctx(i.content), i.bound)
        for i in c.items
    ))


def reference_render_sequent(seq: Sequent) -> str:
    return str(Sequent(reference_elide_ctx(seq.context), reference_elide(seq.goal)))


def reference_text_trace(d: Derivation, typed: bool = False) -> list[str]:
    """The text trace walked over the derivation itself: one line
    ``rule [head]: sequent`` per node, its premises indented below it.  A
    trace of a type shows ``eps(X)`` as ``X``, by structural elision."""
    lines, stack = [], [(d, 0)]
    while stack:
        node, indent = stack.pop()
        label = node.rule
        if node.head is not None:
            label += f" [{print_formula(reference_elide(node.head) if typed else node.head)}]"
        shown = reference_render_sequent(node.conclusion) if typed else str(node.conclusion)
        lines.append(f"{'  ' * indent}{label}: {shown}")
        stack += ((premise, indent + 1) for premise in reversed(node.premises))
    return lines


# ---------------------------------------------------------------------------
# Quantified Boolean formulas: implicational inputs whose verdict brute force settles


class QBF(NamedTuple):
    """``Q1 x1 ... Qn xn. C1 and ... and Cm``: ``quantifiers[i - 1]`` is "A"
    or "E" for xi, and each clause is three literals, ``k`` for xk and ``-k``
    for not xk."""

    quantifiers: str
    clauses: tuple[tuple[int, ...], ...]


def random_qbf(n: int, m: int, seed: int) -> QBF:
    """A seeded QBF in 3-CNF on n >= 3 variables, with m clauses of three
    distinct variables each."""
    rng = random.Random(seed)
    quantifiers = "".join(rng.choice("AE") for _ in range(n))
    clauses = tuple(
        tuple(rng.choice((k, -k)) for k in rng.sample(range(1, n + 1), 3)) for _ in range(m)
    )
    return QBF(quantifiers, clauses)


def qbf_value(q: QBF) -> bool:
    """The truth value of ``q``, by trying both values of each variable in
    quantifier order."""

    def value(assignment: tuple[bool, ...]) -> bool:
        if len(assignment) == len(q.quantifiers):
            return all(any((lit > 0) == assignment[abs(lit) - 1] for lit in c) for c in q.clauses)
        branches = (value(assignment + (b,)) for b in (True, False))
        return all(branches) if q.quantifiers[len(assignment)] == "A" else any(branches)

    return value(())


def qbf_formula(q: QBF) -> str:
    """The implicational formula that is derivable exactly when ``q`` is true
    (after Statman).  Atom ``Ai`` says the suffix from step i holds, ``Xi`` and
    ``Yi`` that xi is true or false, and ``Cj`` that clause j holds; only step
    i's hypotheses conclude ``A(i-1)``, so a proof assigns x1 ... xn in order,
    once each.  The goal is ``A0``."""
    hypotheses = []
    for i, quantifier in enumerate(q.quantifiers, 1):
        true, false = f"(X{i} -> A{i})", f"(Y{i} -> A{i})"
        if quantifier == "A":
            hypotheses.append(f"({true} -> {false} -> A{i - 1})")
        else:
            hypotheses += [f"({true} -> A{i - 1})", f"({false} -> A{i - 1})"]
    for j, clause in enumerate(q.clauses, 1):
        hypotheses += [f"({'X' if lit > 0 else 'Y'}{abs(lit)} -> C{j})" for lit in clause]
    clauses = [f"C{j}" for j in range(1, len(q.clauses) + 1)]
    hypotheses.append(f"({' -> '.join(clauses)} -> A{len(q.quantifiers)})")
    return " -> ".join(hypotheses + ["A0"])


# ---------------------------------------------------------------------------
# Hypothesis strategies

var_names = st.sampled_from(("x", "y", "z", "u"))

terms = st.recursive(
    st.builds(Var, var_names),
    lambda kids: st.builds(
        Func, st.sampled_from(("f", "g")), st.tuples(kids) | st.tuples(kids, kids)
    ),
    max_leaves=3,
)

atoms = st.builds(
    Atom,
    st.sampled_from(("P", "Q", "R")),
    st.just(()) | st.tuples(terms) | st.tuples(terms, terms),
)

formulas = st.recursive(
    atoms,
    lambda kids: st.builds(Imp, kids, kids) | st.builds(Forall, var_names, kids),
    max_leaves=12,
)

tvar_names = st.sampled_from(("X", "Y", "Z"))

# translations of types, built from eps atoms
ftypes = st.recursive(
    st.builds(tvar, tvar_names),
    lambda kids: st.builds(Imp, kids, kids) | st.builds(Forall, tvar_names, kids),
    max_leaves=10,
)
