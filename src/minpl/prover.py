"""Goal-directed proof search over bracketed sequents.

The search needs no eigenvariables and no substitution.  A universal goal
shuts the context inside a bracket binding every variable bound in the goal;
an implication goal moves its antecedent into the context.  Neither step has a
choice, so they are walked in a loop; only an atomic goal branches, picking a
head formula, possibly from inside nested brackets, rotating the brackets so
the head surfaces while everything that used to be outside them moves inside.
Contexts stay canonical throughout, so pruning any branch that repeats a
sequent is a plain membership test, and that pruning alone makes it terminate.

Within a query a success is stored when no prune in its subtree hit an
ancestor: it is then what the search finds from an empty branch, and by
monotonicity of the loop check the same search reproduces it under any branch
holding none of its sequents, which is when it is reused.  Verdicts and
derivations are those of the plain search; only the visits drop.  A reused
success is shared, so the sequent set of the check is collected over distinct
derivation nodes, and a set already collected is taken whole.

Every formula a search puts into a sequent is a piece of the renamed input,
whose binders are apart: a universal goal brackets the context with the scope
its binder stored when it was built, which the audit reads too.  A hypothesis
gets one context item per query, carrying its head and arguments; ``insert``
adds it, deriving hash and depth in O(1).  A parse shares its equal atoms and
variables, a parsed type its one ``eps(X)`` atom per name, and head selection
tests a head against its goal by identity, then hash.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property
from typing import Callable, Optional

from .context import Context, FormulaItem, _context, _walk, bracket, fuse, insert
from .syntax import Atom, Forall, Formula, Imp, Node, Polarity, _hash_of, _new
from .syntax import barendregt_rename, pieces, polarity, print_formula

__all__ = [
    "Derivation",
    "NotPositive",
    "SearchStats",
    "SearchTimeout",
    "SeenSet",
    "Sequent",
    "auditor",
    "derivable",
    "derivation_to_json",
]


class NotPositive(ValueError):
    """Raised for inputs outside the positive fragment."""


class SearchTimeout(RuntimeError):
    """Raised when a configured wall-clock deadline expires mid-search."""


RULE_LIMP = "Limp"
RULE_RIMP = "Rimp"
RULE_RFORALL = "Rforall"


class _Face:  # a class's dataclass fields, made from ``_fields`` on the first read and kept
    def __get__(self, obj, cls):  # on the class, so only ``dataclasses`` callers import it
        from dataclasses import make_dataclass
        cls.__dataclass_fields__ = make_dataclass(cls.__name__, cls._fields).__dataclass_fields__
        return cls.__dataclass_fields__


class Sequent(Node):
    __slots__ = _fields = __match_args__ = ("context", "goal")
    __dataclass_fields__ = _Face()  # for ``dataclasses.replace``; the rest is Node's

    def __new__(cls, context: Context, goal: Formula) -> Sequent:
        self = _new(cls._twin)
        self.context, self.goal, self._hash = context, goal, hash((context._hash, goal._hash))
        self.__class__ = cls
        return self

    def __str__(self) -> str:
        ctx = str(self.context)
        return f"{ctx} |- {self.goal}" if ctx else f"|- {self.goal}"


class SeenSet(dict):
    """The sequents on the current branch, each mapped to its depth there (-1
    for a caller's).  The search pushes a sequent on entry and pops it on any exit
    with ``popitem``, which hashes nothing, so siblings never see each other's."""


class Derivation(Node):  # no slots, for ``sequents``
    """One rule application; ``premises`` hold the sub-derivations in order.

    For ``Limp`` nodes, ``head`` is the selected head formula and ``path``
    the chain of bracket items opened to reach it (empty when the head sat at
    the outer level).  A ``Limp`` node whose head has no arguments is a leaf.
    """

    _fields = __match_args__ = ("rule", "conclusion", "premises", "head", "path")
    __dataclass_fields__ = _Face()

    def __new__(cls, rule, conclusion, premises=(), head=None, path=()) -> Derivation:
        self = _new(cls._twin)
        self.rule, self.conclusion, self.premises = rule, conclusion, premises
        self.head, self.path = head, path
        self._hash = hash((rule, conclusion._hash, *map(_hash_of, premises)))
        self.__class__ = cls
        return self

    @cached_property
    def sequents(self) -> frozenset[Sequent]:
        """Every conclusion in the derivation, collected on first use over its
        distinct nodes; a premise whose set is collected already adds it whole."""
        out, walked, stack = {self.conclusion}, set(), list(self.premises)
        while stack:
            node = stack.pop()
            known = node.__dict__.get("sequents")
            if known is not None:
                out |= known
            elif id(node) not in walked:
                walked.add(id(node))
                out.add(node.conclusion)
                stack += node.premises
        return frozenset(out)


def derivation_to_json(d: Derivation) -> dict:
    """Stable trace encoding: rule, printed sequent, head if any, premises."""
    node: dict = {"rule": d.rule, "sequent": str(d.conclusion)}
    if d.head is not None:
        node["head"] = print_formula(d.head)
    node["premises"] = list(map(derivation_to_json, d.premises))
    return node


class SearchStats:
    """Counters of one search; ``elapsed`` is in seconds."""

    __slots__ = _fields = ("visited", "max_seen", "max_depth", "prunes", "memo_hits", "elapsed")
    __repr__ = Node.__repr__

    def __init__(self) -> None:
        self.visited = self.max_seen = self.max_depth = self.prunes = self.memo_hits = 0
        self.elapsed = 0.0


_EMPTY = Context()
_sequent, _derivation = Sequent.__new__, Derivation.__new__  # X(...) without type.__call__


class _Search:
    """One query's search: it owns its counters, ``stats``, and holds the deadline,
    success cache and items.  ``low`` is the shallowest branch depth a prune hit below.

    ``search`` walks ``Rimp``/``Rforall`` steps in a loop: a frame per atomic sequent.
    There it tries the heads it can reach in canonical order, outer level first, and
    enters a bracket whose bound set misses the goal's free variables, rebracketing all
    outside it (the level's ``outside`` and the bracket's siblings) with that set; first wins."""

    def __init__(
        self,
        *,
        deadline: float | None = None,
        on_visit: Callable[[Sequent], None] | None = None,
    ):
        self.stats = SearchStats()
        self.deadline = deadline
        self.on_visit = on_visit
        self.low = 0
        self.memo: dict[Sequent, Derivation] = {}
        self.items: dict[Formula, FormulaItem] = {}  # a hypothesis's item, once per query

    def search(self, seen: SeenSet, seq: Sequent) -> Optional[Derivation]:
        stats, memo, found, base, outer_low = self.stats, self.memo, None, len(seen), self.low
        try:
            while True:  # enter seq; a one-premise rule goes on to its premise
                if seq in seen:
                    stats.prunes += 1
                    self.low = min(self.low, seen[seq])
                    break
                if memo and (stored := memo.get(seq)) and seen.keys().isdisjoint(stored.sequents):
                    stats.memo_hits += 1
                    found = stored
                    break
                if self.deadline is not None and time.monotonic() > self.deadline:
                    raise SearchTimeout(f"no verdict in {stats.visited} visits before the deadline")
                self.low = seen[seq] = len(seen)
                stats.visited += 1
                if len(seen) > stats.max_seen:
                    stats.max_seen = len(seen)
                if seq.context.depth > stats.max_depth:
                    stats.max_depth = seq.context.depth
                if self.on_visit is not None:
                    self.on_visit(seq)
                if isinstance(goal := seq.goal, Imp):
                    hyp, items = goal.left, self.items
                    item = items.get(hyp) or items.setdefault(hyp, FormulaItem(hyp))
                    seq = _sequent(Sequent, insert(seq.context, item), goal.right)
                    continue
                if isinstance(goal, Forall):
                    seq = _sequent(Sequent, bracket(seq.context, goal.scope), goal.body)
                    continue
                key, levels = goal._hash, [(seq.context, _EMPTY, (), 0)]
                while found is None and levels:
                    level, outside, path, start = levels.pop()
                    items = level.items
                    for index in range(start, len(items)):
                        item = items[index]
                        if isinstance(item, FormulaItem):
                            head = item.head  # None if not negative; __eq__ only on equal hashes
                            if not (head is goal or head and head._hash == key and head == goal):
                                continue
                            premise_ctx, subs = fuse(level, outside), []
                            for arg in item.args:
                                sub = self.search(seen, _sequent(Sequent, premise_ctx, arg))
                                if sub is None:
                                    break
                                subs.append(sub)
                            else:
                                found = _derivation(Derivation, RULE_LIMP, seq, tuple(subs),
                                                    item.formula, path)
                                break
                        elif not goal.fv & item.bound:  # enter it; this level resumes after it
                            siblings = _context(Context, items[:index] + items[index + 1 :])
                            rotated = bracket(fuse(outside, siblings), item.bound)
                            levels.append((level, outside, path, index + 1))
                            levels.append((item.content, rotated, path + (item,), 0))
                            break
                break
        finally:  # pop this call's entries, deepest first; after an exception found is None
            while len(seen) > base:
                seq, here = seen.popitem()
                if found is not None and not isinstance(seq.goal, Atom):  # a one-premise step
                    rule = RULE_RIMP if isinstance(seq.goal, Imp) else RULE_RFORALL
                    found = _derivation(Derivation, rule, seq, (found,))
                if found is not None and self.low >= here:
                    memo[seq] = found
            self.low = min(self.low, outer_low)
        return found


def derivable(
    f: Formula,
    *,
    timeout: float | None = None,
    on_visit: Callable[[Sequent], None] | None = None,
) -> tuple[bool, SearchStats, Optional[Derivation]]:
    """Decide whether the positive formula ``f`` is derivable.

    The input is renamed so binders are distinct before the search starts;
    ``on_visit`` sees each sequent the search enters, first ``|-`` followed by
    the renamed input.  Raises NotPositive outside the positive fragment and
    SearchTimeout if ``timeout`` seconds elapse, which termination makes a
    safety rail rather than an expected outcome.
    """
    if sys.getrecursionlimit() < 20000:  # a frame per atomic sequent; see ROADMAP item 9
        sys.setrecursionlimit(20000)
    if polarity(f) not in (Polarity.POSITIVE, Polarity.BOTH):
        raise NotPositive(f"not a positive formula: {print_formula(f)}")
    renamed = barendregt_rename(f)
    deadline = None if timeout is None else time.monotonic() + timeout
    engine = _Search(deadline=deadline, on_visit=on_visit)
    start = time.monotonic()
    derivation = engine.search(SeenSet(), Sequent(_EMPTY, renamed))
    engine.stats.elapsed = time.monotonic() - start
    return derivation is not None, engine.stats, derivation


def auditor(root: Formula) -> Callable[[Sequent], list[str]]:
    """The audit of each sequent ``derivable(root)`` visits, for its ``on_visit``;
    ``root`` is renamed apart, so the search takes it as it is.  The pieces and
    their scope sets are taken once: each formula is a piece of ``root``, each
    bracket subscript a binder's scope set, and a directly nested bracket's
    binder in the scope of the enclosing one; one message per violation.
    Binders are distinct, so one is in another's scope exactly when its scope
    set is a proper subset of the other's, and brackets so nested never nest
    deeper than the binders do."""
    piece_set = pieces(root)
    scopes = frozenset(g.scope for g in piece_set if isinstance(g, Forall))

    def check(seq: Sequent) -> list[str]:
        violations, outer = [], [None]  # the subscript around each open level, if a scope
        for item, depth, closing in _walk(seq.context.items):
            if isinstance(item, FormulaItem):
                if item.formula not in piece_set:
                    violations.append(f"not a piece of the input: {item}")
            elif not closing:
                bound, around = item.bound if item.bound in scopes else None, outer[depth]
                if bound is None:
                    violations.append(f"bracket subscript is no binder scope: {item}")
                if bound is not None and around is not None and not bound < around:
                    violations.append(f"bracket outside the scope of the one around it: {item}")
                outer[depth + 1 :] = [bound]
        if seq.goal not in piece_set:
            violations.append(f"goal is not a piece of the input: {seq.goal}")
        return violations

    return check
