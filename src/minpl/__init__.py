"""Decision engine for the positive fragment of minimal predicate logic.

Proof search runs in a bracketed sequent calculus: instead of renaming bound
variables with fresh eigenvariables, a universal goal shuts the context inside
a bracket that binds the goal's bound variables.  Contexts are kept in a
canonical cleaned form, so pruning branches that repeat a sequent is a plain
equality test and suffices for termination.  A bounded reference prover with
explicit eigenvariables serves as an independent cross-check, and a System F
front-end parses a positive type straight into its translation, a formula,
and decides inhabitation by deriving it.
"""

from importlib import import_module

from .context import *
from .prover import *
from .syntax import *

# The reference prover and System F load on first use (PEP 562), so that
# ``import minpl`` and a ``decide`` query do without them.
_LAZY = {
    "oracle": "FlatSequent FreshNames first_provable_depth generate_positive ljplus_prove",
    "systemf": "inhabited parse_type phi print_type",
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names.split():
            value = getattr(import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# each star import above also bound its submodule's name here
__all__ = context.__all__ + prover.__all__ + syntax.__all__ + " ".join(_LAZY.values()).split()
