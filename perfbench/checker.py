"""Verdict checking for the benchmark, apart from the bracketed search.

Nothing here calls ``minpl.derivable``.  Each verdict is settled by the first
route that applies:

* ``dyckhoff``: a quantifier-free formula is decided by a contraction-free
  sequent calculus for implicational logic (Dyckhoff 1992, LJT/G4ip).  Without
  falsum, minimal and intuitionistic implicational logic prove the same
  formulas, so this is a full decision procedure for those queries.
* ``erasure``: dropping every quantifier and every predicate argument maps a
  derivation of a predicate formula to a propositional one, so if the erased
  formula is not provable, the original is not derivable.
* ``certificate``: a derivable verdict is confirmed when the eigenvariable
  reference prover ``minpl.oracle.first_provable_depth`` finds a proof.
* ``bounded``: where nothing above settles a negative verdict, the reference
  prover finds no proof up to a stated height, as the acceptance tests do.
  This is evidence, not proof.

The module has its own formula reader, so a fault in ``minpl.syntax`` cannot
hide a wrong verdict.  ``replay`` and ``replay_json`` recompute every premise
of a returned derivation from its conclusion.
"""

from __future__ import annotations

import re
from typing import Optional

from minpl.context import BracketItem, Context, FormulaItem, bracket, fuse, parse_context
from minpl.oracle import FlatSequent, first_provable_depth, ljplus_prove
from minpl.prover import RULE_LIMP, RULE_RFORALL, RULE_RIMP, Derivation, Sequent
from minpl.syntax import Atom, Forall, Imp, Var, parse_formula

CERTIFICATE_DEPTH = 20
BOUNDED_HEIGHT = 12

# ---------------------------------------------------------------------------
# An independent reader.  Trees are tuples: ("atom", pred, args_text),
# ("imp", left, right) and ("all", var, body).

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|[(),.]|\S")


def read(text: str):
    """Parse the concrete formula syntax into a tuple tree."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"bad formula {text!r} at token {pos}")
        pos += 1
        return tok

    def formula():
        if peek() == "forall":
            take()
            var = take()
            take(".")
            return ("all", var, formula())
        left = atomic()
        if peek() == "->":
            take()
            return ("imp", left, formula())
        return left

    def term():
        name = take()
        if peek() != "(":
            return name
        take()
        args = [term()]
        while peek() == ",":
            take()
            args.append(term())
        take(")")
        return f"{name}({','.join(args)})"

    def atomic():
        if peek() == "(":
            take()
            inner = formula()
            take(")")
            return inner
        pred = take()
        if peek() != "(":
            return ("atom", pred, "")
        take()
        args = [term()]
        while peek() == ",":
            take()
            args.append(term())
        take(")")
        return ("atom", pred, ",".join(args))

    tree = formula()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return tree


def has_quantifier(tree) -> bool:
    if tree[0] == "atom":
        return False
    if tree[0] == "imp":
        return has_quantifier(tree[1]) or has_quantifier(tree[2])
    return True


def erase(tree):
    """Drop quantifiers and predicate arguments: a propositional tree."""
    if tree[0] == "atom":
        return ("atom", tree[1], "")
    if tree[0] == "imp":
        return ("imp", erase(tree[1]), erase(tree[2]))
    return erase(tree[2])


# ---------------------------------------------------------------------------
# Contraction-free implicational decider (LJT, Dyckhoff 1992)


class Dyckhoff:
    """Decides propositional implicational formulas.

    Formulas are interned as integers so contexts are frozensets of ints.
    Rules, with contexts as sets (contraction is admissible):
    right implication; ``p, p -> B`` becomes ``p, B`` (invertible);
    ``(C -> D) -> B`` in the context reduces to ``D -> B |- C -> D`` and
    ``B |- goal``.  Every rule shrinks a well-founded multiset measure, so
    no loop check is needed.
    """

    def __init__(self):
        self._ids: dict = {}
        self._imp: list = []  # None for atoms, (left, right) for implications
        self._memo: dict = {}

    def intern(self, tree) -> int:
        if tree[0] == "atom":
            key = ("a", tree[1], tree[2])
        elif tree[0] == "imp":
            key = ("i", self.intern(tree[1]), self.intern(tree[2]))
        else:
            raise ValueError("quantified formula given to the propositional decider")
        found = self._ids.get(key)
        if found is None:
            found = self._ids[key] = len(self._imp)
            self._imp.append(None if key[0] == "a" else (key[1], key[2]))
        return found

    def provable(self, tree) -> bool:
        return self._prove(frozenset(), self.intern(tree))

    def _prove(self, ctx: frozenset, goal: int) -> bool:
        imp = self._imp
        while imp[goal] is not None:
            ctx = ctx | {imp[goal][0]}
            goal = imp[goal][1]
        key = (ctx, goal)
        if key in self._memo:
            return self._memo[key]
        ctx = self._saturate(ctx)
        result = goal in ctx or any(
            self._left_imp(ctx, f, goal)
            for f in ctx
            if imp[f] is not None and imp[imp[f][0]] is not None
        )
        self._memo[key] = result
        return result

    def _saturate(self, ctx: frozenset) -> frozenset:
        imp = self._imp
        changed = True
        while changed:
            changed = False
            for f in ctx:
                if imp[f] is not None and imp[imp[f][0]] is None and imp[f][0] in ctx:
                    ctx = (ctx - {f}) | {imp[f][1]}
                    changed = True
                    break
        return ctx

    def _left_imp(self, ctx: frozenset, f: int, goal: int) -> bool:
        imp = self._imp
        c_d, b = imp[f]
        d = imp[c_d][1]
        rest = ctx - {f}
        key = ("i", d, b)
        d_b = self._ids.get(key)
        if d_b is None:
            d_b = self._ids[key] = len(imp)
            imp.append((d, b))
        return self._prove(rest | {d_b}, c_d) and self._prove(rest | {b}, goal)


# ---------------------------------------------------------------------------
# Verdicts


def expected_verdict(text: str) -> tuple[bool, str]:
    """Settle the derivability of a formula without the bracketed search.

    Returns the verdict and the route that settled it; raises ValueError
    when no route does.
    """
    tree = read(text)
    # a quantifier prefix over a quantifier-free matrix is derivable exactly
    # when the matrix is, with the bound names read as constants
    matrix = tree
    while matrix[0] == "all":
        matrix = matrix[2]
    if not has_quantifier(matrix):
        return Dyckhoff().provable(matrix), "dyckhoff"
    if not Dyckhoff().provable(erase(tree)):
        return False, "erasure"
    flat = FlatSequent((), parse_formula(text))
    depth = first_provable_depth(flat, CERTIFICATE_DEPTH)
    if depth is not None:
        return True, f"certificate:{depth}"
    if not ljplus_prove(flat, BOUNDED_HEIGHT):
        return False, f"bounded:{BOUNDED_HEIGHT}"
    raise ValueError(f"no route settles {text!r}")


def alpha_key(f, env: tuple = ()):
    """Nameless form of a minpl formula, for comparison up to bound names."""
    if isinstance(f, Atom):
        return (f.pred, tuple(_term_key(t, env) for t in f.terms))
    if isinstance(f, Imp):
        return ("->", alpha_key(f.left, env), alpha_key(f.right, env))
    return ("all", alpha_key(f.body, (f.var,) + env))


def _term_key(t, env: tuple):
    if isinstance(t, Var):
        return ("b", env.index(t.name)) if t.name in env else ("f", t.name)
    return (t.name, tuple(_term_key(a, env) for a in t.args))


# ---------------------------------------------------------------------------
# Derivation replay


def _premises(rule: str, seq: Sequent, head, path) -> list[Sequent]:
    goal = seq.goal
    if rule == RULE_RIMP:
        if not isinstance(goal, Imp):
            raise AssertionError(f"Rimp on a non-implication: {seq}")
        return [Sequent(fuse(seq.context, Context((FormulaItem(goal.left),))), goal.right)]
    if rule == RULE_RFORALL:
        if not isinstance(goal, Forall):
            raise AssertionError(f"Rforall on a non-quantifier: {seq}")
        return [Sequent(bracket(seq.context, _bound_vars(goal)), goal.body)]
    if rule != RULE_LIMP or not isinstance(goal, Atom) or head is None:
        raise AssertionError(f"bad rule {rule} at {seq}")
    level, outside = seq.context, Context()
    crossed: set = set()
    for b in path:
        if b not in level.items:
            raise AssertionError(f"opened bracket missing from its level: {b}")
        crossed |= b.bound
        siblings = Context(tuple(i for i in level.items if i != b))
        outside = bracket(fuse(outside, siblings), b.bound)
        level = b.content
    if _free_vars(goal) & crossed:
        raise AssertionError(f"goal captured by an opened bracket: {seq}")
    if FormulaItem(head) not in level.items:
        raise AssertionError(f"head {head} not at the opened level of {seq}")
    args = []
    f = head
    while isinstance(f, Imp):
        args.append(f.left)
        f = f.right
    if f != goal:
        raise AssertionError(f"head {head} does not end in the goal of {seq}")
    ctx = fuse(level, outside)
    return [Sequent(ctx, a) for a in args]


def _bound_vars(f) -> frozenset:
    if isinstance(f, Atom):
        return frozenset()
    if isinstance(f, Imp):
        return _bound_vars(f.left) | _bound_vars(f.right)
    return frozenset((f.var,)) | _bound_vars(f.body)


def _free_vars(f) -> set:
    if isinstance(f, Atom):
        out: set = set()
        stack = list(f.terms)
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                out.add(t.name)
            else:
                stack.extend(t.args)
        return out
    if isinstance(f, Imp):
        return _free_vars(f.left) | _free_vars(f.right)
    return _free_vars(f.body) - {f.var}


def replay(d: Derivation) -> int:
    """Recompute every premise of ``d`` and raise AssertionError on a
    mismatch or on a sequent repeated along a branch.  Returns the number
    of nodes checked."""
    nodes = 0
    branch: list = []  # conclusions from the root down to the current node
    stack = [(d, 0)]
    while stack:
        node, depth = stack.pop()
        del branch[depth:]
        # equality, not hashing: structural hashes are recomputed on every call
        if any(node.conclusion == above for above in branch):
            raise AssertionError(f"repeated sequent on a branch: {node.conclusion}")
        want = _premises(node.rule, node.conclusion, node.head, node.path)
        if [p.conclusion for p in node.premises] != want:
            raise AssertionError(f"premises do not follow at {node.conclusion}")
        branch.append(node.conclusion)
        stack.extend((p, depth + 1) for p in node.premises)
        nodes += 1
    return nodes


def _read_sequent(text: str) -> Sequent:
    ctx_text, _, goal_text = text.rpartition("|- ")
    return Sequent(parse_context(ctx_text.strip()), parse_formula(goal_text))


def _head_paths(ctx: Context, goal, head):
    """Every chain of brackets the goal may cross that reaches ``head``."""
    fv = _free_vars(goal)
    todo = [(ctx, ())]
    while todo:
        level, path = todo.pop()
        if FormulaItem(head) in level.items:
            yield path
        for item in level.items:
            if isinstance(item, BracketItem) and not (fv & item.bound):
                todo.append((item.content, path + (item,)))


def replay_json(node: dict) -> int:
    """Replay a derivation in the CLI's JSON trace encoding.

    The encoding omits the opened bracket chain of a ``Limp`` step, so
    every admissible chain is tried.  Returns the number of nodes checked.
    """
    nodes = 0
    stack = [node]
    while stack:
        n = stack.pop()
        seq = _read_sequent(n["sequent"])
        got = [_read_sequent(p["sequent"]) for p in n["premises"]]
        if n["rule"] == RULE_LIMP:
            head = parse_formula(n["head"])
            ok = any(
                _premises(RULE_LIMP, seq, head, path) == got
                for path in _head_paths(seq.context, seq.goal, head)
            )
        else:
            ok = _premises(n["rule"], seq, None, ()) == got
        if not ok:
            raise AssertionError(f"premises do not follow at {n['sequent']}")
        stack.extend(n["premises"])
        nodes += 1
    return nodes


def json_root_matches(node: dict, formula) -> bool:
    """The trace proves ``|- formula`` up to the renaming of bound names."""
    seq = _read_sequent(node["sequent"])
    return not seq.context.items and alpha_key(seq.goal) == alpha_key(formula)


def derivation_root_matches(d: Optional[Derivation], formula) -> bool:
    return (
        d is not None
        and not d.conclusion.context.items
        and alpha_key(d.conclusion.goal) == alpha_key(formula)
    )
