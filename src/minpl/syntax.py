"""Terms and formulas of minimal predicate logic.

The language is deliberately small: atoms over first-order terms, implication
and universal quantification.  Nothing in this package ever substitutes a term
for a variable; quantifiers are handled purely by scoping, so each analysis
here is at most one walk over the tree.  A binder stores its scope, the
variables bound in its subtree, as it is built.  The binder loop, ``pieces``
and the parsers are loops with explicit stacks, as is printing a term;
renaming and printing a formula recurse.  Nodes are immutable, yet each node is
built by plain slot stores (``Node``); parsers call each class's ``__new__``.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from operator import attrgetter

__all__ = [
    "Atom",
    "Forall",
    "Formula",
    "Func",
    "Imp",
    "NotNegative",
    "ParseError",
    "Polarity",
    "Term",
    "Var",
    "barendregt_rename",
    "decompose",
    "parse_formula",
    "pieces",
    "polarity",
    "print_formula",
]


class ParseError(ValueError):
    """Malformed input; ``position`` is the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotNegative(ValueError):
    """Raised when a formula with a quantifier on its spine is decomposed."""


# ---------------------------------------------------------------------------
# Abstract syntax: immutable slotted nodes, each storing its hash and free
# variables, a formula also its polarity and number of binders, and a binder
# its scope, all computed once from its children's.

_NO_VARS: frozenset[str] = frozenset()
_new = object.__new__
_WRITABLE = {"__setattr__": object.__setattr__, "__delattr__": object.__delattr__}
_hash_of, _fv_of, _scope_of = attrgetter("_hash"), attrgetter("fv"), attrgetter("scope")


class Node:
    """An immutable value with slots, set once by the constructor with its
    ``_fields`` and ``_hash``.  Each constructor fills a bare ``_twin`` of
    its class (same base and slots, but ``object``'s ``__setattr__`` and
    ``__delattr__``, as one type slot serves both) by plain slot stores, a tenth
    of the cost of ``object.__setattr__``, then seals it by assigning the class to
    its ``__class__``.  Equality compares type, stored hash, then ``_values`` (the fields
    unless inherited); callers test identity first.  Copies and pickles use the constructor."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls._fields and not hasattr(cls, "_values"):
            cls._values = attrgetter(*cls._fields)
        if "__setattr__" not in vars(cls):  # else cls is itself a twin
            slots = {"__slots__": cls.__slots__} if "__slots__" in vars(cls) else {}
            cls._twin = type(cls.__name__, cls.__bases__, {**slots, **_WRITABLE})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Term(Node):
    __slots__ = ("fv",)


class Var(Term):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> Var:
        self = _new(cls._twin)
        self.name, self._hash, self.fv = name, hash(("v", name)), frozenset((name,))
        self.__class__ = cls
        return self

    def __str__(self) -> str:
        return self.name


class Func(Term):
    __slots__ = _fields = ("name", "args")

    def __new__(cls, name: str, args: tuple[Term, ...]) -> Func:
        self = _new(cls._twin)
        self.name, self.args, self._hash = name, args, hash((name, *map(_hash_of, args)))
        self.fv = args[0].fv if len(args) == 1 else _NO_VARS.union(*map(_fv_of, args))
        self.__class__ = cls
        return self

    def __str__(self) -> str:  # a loop: terms may nest thousands deep
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            out.append(f"{t.name}(" if isinstance(t, Func) else str(t))  # a Var or punctuation
            if isinstance(t, Func):
                stack += [")", *[x for arg in reversed(t.args) for x in (", ", arg)][1:]]
        return "".join(out)


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    BOTH = "both"
    NEITHER = "neither"


# a formula's ``pol`` has bit 0 set when it is positive and bit 1 when negative
_POLARITIES = (Polarity.NEITHER, Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.BOTH)


class Formula(Node):
    __slots__ = ("fv", "pol", "nbinders")

    def __str__(self) -> str:
        return print_formula(self)


class Atom(Formula):
    __slots__ = _fields = ("pred", "terms")

    def __new__(cls, pred: str, terms: tuple[Term, ...] = ()) -> Atom:
        self = _new(cls._twin)
        self.pred, self.terms, self.pol, self.nbinders = pred, terms, 3, 0
        self._hash = hash((pred, *map(_hash_of, terms)))
        self.fv = terms[0].fv if len(terms) == 1 else _NO_VARS.union(*map(_fv_of, terms))
        self.__class__ = cls
        return self


class Imp(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> Imp:
        self = _new(cls._twin)
        self.left, self.right, self._hash = left, right, hash((left._hash, right._hash))
        lfv, rfv = left.fv, right.fv
        self.fv = rfv if rfv >= lfv else lfv if lfv >= rfv else lfv | rfv
        # positive when the antecedent is negative and the consequent positive,
        # negative when the antecedent is positive and the consequent negative
        lpol, rpol = left.pol, right.pol
        self.pol = lpol >> 1 & rpol & 1 | lpol << 1 & rpol & 2
        self.nbinders = left.nbinders + right.nbinders
        self.__class__ = cls
        return self


class Forall(Formula):
    """``scope`` is the set of variables bound in this subtree, ``var``
    included: the name joined by union to the scopes of the binders directly
    inside.  It is not a field, so equality, hash, repr and pickles skip it."""

    __slots__ = ("var", "body", "scope")
    _fields = ("var", "body")

    def __new__(cls, var: str, body: Formula) -> Forall:
        self = _new(cls._twin)
        self.var, self.body, self._hash = var, body, hash((var, "all", body._hash))
        self.fv = (body.fv - {var} or _NO_VARS) if var in body.fv else body.fv
        # a universally quantified formula is never negative
        self.pol = body.pol & 1
        self.nbinders = body.nbinders + 1
        self.scope = frozenset((var,)).union(*map(_scope_of, _outermost(body)))
        self.__class__ = cls
        return self


def polarity(f: Formula) -> Polarity:
    """Polarity of a formula, as stored when it was built.

    Atoms are both positive and negative; an implication flips polarity on
    the left; a universal quantifier is only ever positive.
    """
    return _POLARITIES[f.pol]


# ---------------------------------------------------------------------------
# Variable analyses


def _outermost(f: Formula) -> list[Forall]:
    """The binders of ``f`` inside no other, left to right: a loop down the
    implications with binders, where right operands wait on a stack."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        while g.nbinders:
            if isinstance(g, Forall):
                out.append(g)
                break
            stack.append(g.right)
            g = g.left
    return out


def decompose(f: Formula) -> tuple[Atom, tuple[Formula, ...]]:
    """Split ``A1 -> ... -> An -> P`` into ``(P, (A1, ..., An))``, P atomic.

    Raises NotNegative if a quantifier sits on the implication spine, i.e.
    whenever ``f`` is not a negative formula.
    """
    args = []
    while isinstance(f, Imp):
        args.append(f.left)
        f = f.right
    if isinstance(f, Atom):
        return f, tuple(args)
    raise NotNegative(f"quantifier on the implication spine: {print_formula(f)}")


def pieces(f: Formula) -> frozenset[Formula]:
    """The formulas sitting at the positions of the tree of ``f``, verbatim.

    No substitution is performed, so a quantified variable stays in place;
    the set of pieces is the closed vocabulary of everything proof search
    can ever put in a sequent.
    """
    # a piece already found had its own pieces pushed when it was added
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, Imp):
            stack += (g.left, g.right)
        elif isinstance(g, Forall):
            stack.append(g.body)
    return frozenset(out)


def _rename_term(t: Term, env: dict[str, str]) -> Term:
    if t.fv.isdisjoint(env):
        return t
    if isinstance(t, Var):
        return Var(env[t.name])
    return Func(t.name, tuple(_rename_term(a, env) for a in t.args))


def barendregt_rename(f: Formula) -> Formula:
    """Rename binders apart: pairwise distinct and distinct from free vars.

    Deterministic: binders are visited leftmost-outermost and a clashing
    binder ``x`` becomes ``x_N`` for the next value ``N`` of one counter
    shared by the whole traversal.  Free variables are never touched.  ``f``
    itself comes back when its binders are already apart, which the union of
    its outermost binders' scopes tells; otherwise every subtree with nothing
    renamed in it is returned as it is.
    """
    names = _NO_VARS.union(*map(_scope_of, _outermost(f)))
    if len(names) == f.nbinders and f.fv.isdisjoint(names):
        return f
    used = set(f.fv)
    counter = itertools.count(1)

    def go(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Atom):
            if g.fv.isdisjoint(env):
                return g
            return Atom(g.pred, tuple(_rename_term(t, env) for t in g.terms))
        if isinstance(g, Imp):
            left, right = go(g.left, env), go(g.right, env)
            return g if left is g.left and right is g.right else Imp(left, right)
        if g.var not in used:
            used.add(g.var)
            body = go(g.body, env)
            return g if body is g.body else Forall(g.var, body)
        name = next(c for c in (f"{g.var}_{n}" for n in counter) if c not in used)
        used.add(name)
        return Forall(name, go(g.body, {**env, g.var: name}))

    return go(f, {})


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   formula := "forall" IDENT "." formula | imp
#   imp     := atomterm ("->" formula)?            right associative
#   atomterm:= IDENT ("(" term ("," term)* ")")? | "(" formula ")"
#   term    := IDENT ("(" term ("," term)* ")")?
#   IDENT   := [A-Za-z_][A-Za-z0-9_']*

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|[(),.\[\]{}]|\S")
# a token is an identifier exactly when its first character is one of these
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_atom, _var, _func, _imp, _forall = map(attrgetter("__new__"), (Atom, Var, Func, Imp, Forall))


class _TokenStream:
    """Token cursor shared by the formula, type and context grammars: token
    strings ended by ``None``.  Loops read them directly and raise an error
    through ``at(i)`` and the method that checks token ``i``; only then is a
    character position needed, and ``position`` scans the text again for it.
    ``atoms`` keeps each atom read, keyed by its tokens, and ``vars`` each
    variable, so equal ones of a parse are one object; the tables die with
    the stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list = _TOKEN.findall(text) + [None]
        self.index = 0
        self.atoms: dict[str | tuple[str, ...], Atom] = {}
        self.vars: dict[str, Var] = {}

    def at(self, index: int) -> _TokenStream:
        self.index = index
        return self

    def peek(self) -> str | None:
        return self.tokens[self.index]

    def position(self) -> int:
        found = next(itertools.islice(_TOKEN.finditer(self.text), self.index, None), None)
        return len(self.text) if found is None else found.start()

    def expect(self, token: str) -> None:
        got = self.peek()
        if got != token:
            found = "end of input" if got is None else repr(got)
            raise ParseError(f"expected {token!r}, found {found}", self.position())
        self.index += 1

    def ident(self) -> str:
        got = self.peek()
        if got is None or got[0] not in _IDENT_START or got == "forall":
            found = "end of input" if got is None else repr(got)
            raise ParseError(f"expected an identifier, found {found}", self.position())
        self.index += 1
        return got

    def finish(self) -> None:
        if self.peek() is not None:
            raise ParseError(f"unexpected trailing input {self.peek()!r}", self.position())


def _parse_spine(ts: _TokenStream, atom):
    """The ``formula`` rule of the grammar above, over the given atoms,
    without recursion: the binders and antecedents of the current spine wait
    on ``spine``, every open parenthesis keeps the spine it interrupted on
    ``stack``, and a finished spine folds from the right into ``Forall`` and
    ``Imp`` nodes.  ``atom(ts, name, i)`` returns the atom whose identifier
    ``name`` ends before token ``i``, and the index after it."""
    toks, i = ts.tokens, ts.index
    stack, spine = [], []
    while True:
        tok = toks[i]
        if tok == "forall":
            spine.append(ts.at(i + 1).ident())
            ts.expect(".")
            i = ts.index
            continue
        if tok == "(":
            stack.append(spine)
            spine = []
            i += 1
            continue
        if tok is None or tok[0] not in _IDENT_START:
            ts.at(i).ident()
        x, i = atom(ts, tok, i + 1)
        while toks[i] != "->":
            for step in reversed(spine):
                x = _forall(Forall, step, x) if isinstance(step, str) else _imp(Imp, step, x)
            if not stack:
                ts.index = i
                return x
            if toks[i] != ")":
                ts.at(i).expect(")")
            i += 1
            spine = stack.pop()
        i += 1
        spine.append(x)


def _parse_atom(ts: _TokenStream, pred: str, i: int) -> tuple[Atom, int]:
    """The atom ``pred``, whose argument list opens at token ``i`` if it has
    one, and the index after it; each open application waits on ``stack``."""
    toks, atoms = ts.tokens, ts.atoms
    if toks[i] != "(":
        return atoms.get(pred) or atoms.setdefault(pred, _atom(Atom, pred)), i
    start, stack, name, args = i - 1, [], pred, []
    while True:  # token i is the "(" or "," before the next term
        tok = toks[i + 1]
        if tok is None or tok[0] not in _IDENT_START or tok == "forall":
            ts.at(i + 1).ident()
        i += 2
        if toks[i] == "(":
            stack.append((name, args))
            name, args = tok, []
            continue
        x: Term = ts.vars.get(tok) or ts.vars.setdefault(tok, _var(Var, tok))
        while True:
            args.append(x)
            if toks[i] == ",":
                break
            if toks[i] != ")":
                ts.at(i).expect(")")
            i += 1
            if not stack:
                key = tuple(toks[start:i])
                return atoms.get(key) or atoms.setdefault(key, _atom(Atom, name, tuple(args))), i
            x = _func(Func, name, tuple(args))
            name, args = stack.pop()


def parse_formula(text: str) -> Formula:
    """Parse a formula; see the grammar above for the concrete syntax."""
    ts = _TokenStream(text)
    f = _parse_spine(ts, _parse_atom)
    ts.finish()
    return f


def print_formula(f: Formula) -> str:
    """Canonical text form of a formula; ``parse_formula`` inverts it."""
    if isinstance(f, Atom):
        if not f.terms:
            return f.pred
        return f"{f.pred}({', '.join(map(str, f.terms))})"
    if isinstance(f, Imp):
        left = print_formula(f.left)
        if not isinstance(f.left, Atom):
            left = f"({left})"
        return f"{left} -> {print_formula(f.right)}"
    body = print_formula(f.body)
    if isinstance(f.body, Imp):
        body = f"({body})"
    return f"forall {f.var}. {body}"
