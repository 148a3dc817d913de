"""Positive-type inhabitation for System F.

A type is translated homomorphically into a formula over a single unary
predicate ``eps``: a type variable ``X`` becomes ``eps(X)``, arrows become
implications, quantifiers stay quantifiers; each type builds its translation
from its parts' as it is built.  In the positive fragment no variable is ever
substituted, so a positive type is inhabited exactly when its translation is
derivable, and the decision engine answers inhabitation directly.  General
inhabitation is undecidable, so non-positive types are refused, not guessed at.
"""

from __future__ import annotations

import re
from typing import Optional

from .prover import Derivation, NotPositive, SearchStats, derivable
from .syntax import Atom, Forall, Formula, Imp, Node, Var, _TokenStream, _new, _parse_spine
from .syntax import print_formula

EPS = "eps"


class FType(Node):
    """``formula`` is the translation; not a field, so equality, hash, repr and
    pickles skip it, and a copy recomputes it."""

    __slots__ = ("formula",)

    def __str__(self) -> str:
        return print_type(self)


class TVar(FType):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> TVar:
        self = _new(cls._twin)
        self.name, self._hash, self.formula = name, hash(("tv", name)), Atom(EPS, (Var(name),))
        self.__class__ = cls
        return self


class TArrow(FType):
    __slots__ = _fields = ("domain", "codomain")

    def __new__(cls, domain: FType, codomain: FType) -> TArrow:
        self = _new(cls._twin)
        self.domain, self.codomain = domain, codomain
        self._hash = hash((domain._hash, "->", codomain._hash))
        self.formula = Imp(domain.formula, codomain.formula)
        self.__class__ = cls
        return self


class TForall(FType):
    __slots__ = _fields = ("var", "body")

    def __new__(cls, var: str, body: FType) -> TForall:
        self = _new(cls._twin)
        self.var, self.body, self.formula = var, body, Forall(var, body.formula)
        self._hash = hash((var, "all", body._hash))
        self.__class__ = cls
        return self


def phi(t: FType) -> Formula:
    """The translation of ``t``, a formula over the unary predicate ``eps``,
    as stored when ``t`` was built: one ``eps(X)`` atom per ``TVar`` object."""
    return t.formula


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
    ts, tvars = _TokenStream(text), {}  # one TVar, so one eps(X) atom, per name
    t = _parse_spine(ts, lambda ts, x, i: (tvars.get(x) or tvars.setdefault(x, TVar(x)), i),
                     TForall, TArrow)
    ts.finish()
    return t


def print_type(t: FType) -> str:
    """Canonical text form of a type; ``parse_type`` inverts it.  It is the
    printed translation with ``eps(X)`` shown as ``X``."""
    return elide_eps(print_formula(t.formula))


# ---------------------------------------------------------------------------
# Readable rendering of translated types, ``eps(X)`` shown as ``X``: an edit of
# the printed text, as both are atoms and so get the same parentheses.  Only
# for human-facing traces; machine output keeps the full, parseable form.

_EPS_VAR = re.compile(rf"\b{EPS}\(([A-Za-z_][A-Za-z0-9_']*)\)")


def elide_eps(text: str) -> str:
    """Printed translations of types with ``eps`` elided (as it would be in a
    term ``eps(x)`` inside another atom, which no translation has)."""
    return _EPS_VAR.sub(r"\1", text)
