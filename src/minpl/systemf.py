"""Positive-type inhabitation for System F.

A type is parsed straight into its translation, a formula over a single unary
predicate ``eps``: a type variable ``X`` becomes ``eps(X)``, arrows become
implications, quantifiers stay quantifiers.  In the positive fragment no
variable is ever substituted, so a positive type is inhabited exactly when its
translation is derivable, and the decision engine answers inhabitation
directly.  General inhabitation is undecidable, so non-positive types are
refused, not guessed at.
"""

from __future__ import annotations

import re

from .prover import Derivation, NotPositive, SearchStats, derivable
from .syntax import Atom, Formula, Var, _TokenStream, _parse_spine, print_formula

EPS = "eps"


def phi(t: Formula) -> Formula:
    """The translation of a parsed type: ``t`` itself, since ``parse_type``
    returns the translation."""
    return t


def inhabited(
    t: Formula, **search_options
) -> tuple[bool, SearchStats, Derivation | None]:
    """Decide whether the positive type whose translation is ``t`` has an
    inhabitant.

    Keyword options are passed through to ``derivable``.  Raises NotPositive
    for types outside the positive fragment.
    """
    try:
        return derivable(t, **search_options)
    except NotPositive:
        raise NotPositive(f"not a positive type: {print_type(t)}") from None


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   type  := "forall" IDENT "." type | arr
#   arr   := atomt ("->" type)?                    right associative
#   atomt := IDENT | "(" type ")"


def parse_type(text: str) -> Formula:
    """The translation of the type ``text``, with one ``eps(X)`` atom per name."""
    ts = _TokenStream(text)  # its atoms: the eps(X) atoms, keyed by X
    return ts.finish(_parse_spine(ts, lambda x: Atom(EPS, (Var(x),)), None))


def print_type(t: Formula) -> str:
    """Canonical text form of a translated type; ``parse_type`` inverts it.  It
    is the printed translation with ``eps(X)`` shown as ``X``."""
    return elide_eps(print_formula(t))


# ---------------------------------------------------------------------------
# Readable rendering of translated types, ``eps(X)`` shown as ``X``: an edit of
# the printed text, as both are atoms and so get the same parentheses.  Only
# for human-facing traces; machine output keeps the full, parseable form.

_EPS_VAR = re.compile(rf"\b{EPS}\(([A-Za-z_][A-Za-z0-9_']*)\)")


def elide_eps(text: str) -> str:
    """Printed translations of types with ``eps`` elided (as it would be in a
    term ``eps(x)`` inside another atom, which no translation has)."""
    return _EPS_VAR.sub(r"\1", text)
