"""Positive-type inhabitation for System F.

A type is translated homomorphically into a formula over a single unary
predicate ``eps``: a type variable ``X`` becomes ``eps(X)``, arrows become
implications, quantifiers stay quantifiers.  In the positive fragment no
variable is ever substituted, so a positive type is inhabited exactly when its
translation is derivable, and the decision engine answers inhabitation
directly.  General inhabitation is undecidable, so non-positive types are
refused rather than guessed at.
"""

from __future__ import annotations

import re
from typing import Optional

from .prover import Derivation, NotPositive, SearchStats, derivable
from .syntax import Atom, Forall, Formula, Imp, Node, Var, _TokenStream, _parse_spine
from .syntax import _set, print_formula

EPS = "eps"


class FType(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return print_type(self)


class TVar(FType):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set(self, "name", name)
        _set(self, "_hash", hash(("tv", name)))


class TArrow(FType):
    __slots__ = _fields = ("domain", "codomain")

    def __init__(self, domain: FType, codomain: FType) -> None:
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "_hash", hash((domain._hash, "->", codomain._hash)))


class TForall(FType):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: FType) -> None:
        _set(self, "var", var)
        _set(self, "body", body)
        _set(self, "_hash", hash((var, "all", body._hash)))


def phi(t: FType) -> Formula:
    """Translate a type to a formula over the unary predicate ``eps``; the
    translation makes one ``eps(X)`` atom per type variable ``X``."""
    atoms: dict[str, Atom] = {}
    order, stack = [], [t]
    while stack:  # the types in pre-order, a domain before its codomain
        s = stack.pop()
        order.append(s)
        if isinstance(s, TArrow):
            stack += (s.codomain, s.domain)
        elif isinstance(s, TForall):
            stack.append(s.body)
    out: list[Formula] = []  # built from the last type, so a type's parts are on top
    for s in reversed(order):
        if isinstance(s, TArrow):
            out.append(Imp(out.pop(), out.pop()))  # the domain was built last
        elif isinstance(s, TForall):
            out.append(Forall(s.var, out.pop()))
        else:
            out.append(atoms.get(s.name) or atoms.setdefault(s.name, Atom(EPS, (Var(s.name),))))
    return out[0]


def inhabited(
    t: FType, **search_options
) -> tuple[bool, SearchStats, Optional[Derivation]]:
    """Decide whether the positive type ``t`` has an inhabitant.

    Keyword options are passed through to ``derivable``.  Raises NotPositive
    for types outside the positive fragment.
    """
    try:
        return derivable(phi(t), **search_options)
    except NotPositive:
        raise NotPositive(f"not a positive type: {print_type(t)}") from None


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   type  := "forall" IDENT "." type | arr
#   arr   := atomt ("->" type)?                    right associative
#   atomt := IDENT | "(" type ")"


def parse_type(text: str) -> FType:
    ts = _TokenStream(text)
    t = _parse_spine(ts, lambda ts, name, i: (TVar(name), i), TForall, TArrow)
    ts.finish()
    return t


def print_type(t: FType) -> str:
    """Canonical text form of a type; ``parse_type`` inverts it.  It is the
    printed translation with ``eps(X)`` shown as ``X``."""
    return elide_eps(print_formula(phi(t)))


# ---------------------------------------------------------------------------
# Readable rendering of translated types, ``eps(X)`` shown as ``X``: an edit of
# the printed text, as both are atoms and so get the same parentheses.  Only
# for human-facing traces; machine output keeps the full, parseable form.

_EPS_VAR = re.compile(rf"\b{EPS}\(([A-Za-z_][A-Za-z0-9_']*)\)")


def elide_eps(text: str) -> str:
    """Printed translations of types with ``eps`` elided (as it would be in a
    term ``eps(x)`` inside another atom, which no translation has)."""
    return _EPS_VAR.sub(r"\1", text)
