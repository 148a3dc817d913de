"""Reference prover with explicit eigenvariables, bounded by derivation height.

This is the classical presentation of the positive fragment: a universal goal
is opened by renaming its binder to a globally fresh variable, so naive search
can loop forever and only a height bound makes it total.  It is deliberately
simple and makes an independent cross-check for the bracketed engine: a "yes"
below some depth certifies derivability, a "no" up to a depth is evidence, not
proof, of underivability.

The module also provides a seeded generator of closed positive formulas for
corpus-style testing.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, NamedTuple, Optional

from .syntax import Atom, Forall, Formula, Imp, Var, _rename_term, decompose
from .syntax import print_formula


class FlatSequent(NamedTuple):
    """A bracket-free sequent: hypotheses (a multiset) and a goal."""

    context: tuple[Formula, ...]
    goal: Formula

    def __str__(self) -> str:
        ctx = ", ".join(map(print_formula, self.context))
        return f"{ctx} |- {self.goal}" if ctx else f"|- {self.goal}"


class FreshNames:
    """Monotone source of variable names outside the input grammar.

    The ``#`` marker cannot appear in a parsed identifier, so generated names
    never collide with anything the user wrote.
    """

    def __init__(self):
        self._numbers = itertools.count(1)

    def fresh(self, base: str) -> str:
        return f"{base}#{next(self._numbers)}"


def _apply_renaming(f: Formula, env: Mapping[str, str]) -> Formula:
    """Rename free variable occurrences; binders shadow as usual."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(_rename_term(t, env) for t in f.terms))
    if isinstance(f, Imp):
        return Imp(_apply_renaming(f.left, env), _apply_renaming(f.right, env))
    if f.var in env:
        env = {k: v for k, v in env.items() if k != f.var}
    return Forall(f.var, _apply_renaming(f.body, env))


def ljplus_prove(s: FlatSequent, depth_bound: int) -> bool:
    """True iff ``s`` has a derivation of height at most ``depth_bound``.

    Height counts rule applications along a branch.  A universal goal renames
    its binder to a globally fresh eigenvariable before descending; an atomic
    goal tries every hypothesis whose head matches, keeping the hypothesis
    available for reuse.
    """
    return _prove(frozenset(s.context), s.goal, depth_bound, FreshNames())


def _prove(ctx: frozenset[Formula], goal: Formula, d: int, names: FreshNames) -> bool:
    if d <= 0:
        return False
    if isinstance(goal, Forall):
        fresh = names.fresh(goal.var)
        assert all(fresh not in g.fv for g in (goal, *ctx)), "eigenvariable not fresh"
        body = _apply_renaming(goal.body, {goal.var: fresh})
        return _prove(ctx, body, d - 1, names)
    if isinstance(goal, Imp):
        return _prove(ctx | {goal.left}, goal.right, d - 1, names)
    for hyp in sorted(ctx, key=print_formula):
        head, args = decompose(hyp)
        if head == goal and all(_prove(ctx, a, d - 1, names) for a in args):
            return True
    return False


def first_provable_depth(s: FlatSequent, max_depth: int) -> Optional[int]:
    """Iterative deepening: the least height in ``1..max_depth`` at which
    ``s`` is provable, or None if none suffices."""
    for d in range(1, max_depth + 1):
        if ljplus_prove(s, d):
            return d
    return None


# ---------------------------------------------------------------------------
# Corpus generation

_NULLARY = ("Q", "R")
_UNARY = ("P", "S")


def generate_positive(seed: int, size: int, quantifier_depth: int) -> Formula:
    """A closed positive formula with fewer than ``size`` connectives and
    quantifier nesting at most ``quantifier_depth``, deterministic in
    ``seed``.  ``size`` is a node budget: size 1 yields a bare atom.

    The signature is a handful of nullary and unary predicates; unary atoms
    only ever use variables bound by an enclosing quantifier, which keeps the
    output closed.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    rng = random.Random(seed)
    binder = itertools.count(1)

    def atom(scope: list[str]) -> Formula:
        if scope and rng.random() < 0.6:
            return Atom(rng.choice(_UNARY), (Var(rng.choice(scope)),))
        return Atom(rng.choice(_NULLARY))

    def gen_pos(budget: int, qd: int, scope: list[str]) -> Formula:
        if budget <= 0:
            return atom(scope)
        r = rng.random()
        if qd > 0 and r < 0.3:
            v = f"x{next(binder)}"
            return Forall(v, gen_pos(budget - 1, qd - 1, scope + [v]))
        if r < 0.9:
            left_budget = rng.randint(0, budget - 1)
            return Imp(
                gen_neg(left_budget, qd, scope),
                gen_pos(budget - 1 - left_budget, qd, scope),
            )
        return atom(scope)

    def gen_neg(budget: int, qd: int, scope: list[str]) -> Formula:
        if budget <= 0 or rng.random() < 0.3:
            return atom(scope)
        left_budget = rng.randint(0, budget - 1)
        return Imp(
            gen_pos(left_budget, qd, scope),
            gen_neg(budget - 1 - left_budget, qd, scope),
        )

    return gen_pos(size - 1, quantifier_depth, [])
