"""Decision engine for the positive fragment of minimal predicate logic.

Proof search runs in a bracketed sequent calculus: instead of renaming bound
variables with fresh eigenvariables, a universal goal shuts the context inside
a bracket that binds the goal's bound variables.  Contexts are kept in a
canonical cleaned form, so pruning branches that repeat a sequent is a plain
equality test and suffices for termination.  A bounded reference prover with
explicit eigenvariables serves as an independent cross-check, and a System F
front-end decides inhabitation of positive types by translation.
"""

from importlib import import_module

from .context import (
    BracketItem,
    Context,
    FormulaItem,
    Item,
    bracket,
    fuse,
    is_clean,
    measure,
    normalize,
    parse_context,
)
from .prover import (
    Derivation,
    NotPositive,
    SearchStats,
    SearchTimeout,
    SeenSet,
    Sequent,
    audit,
    derivable,
    derivation_to_json,
)
from .syntax import (
    Atom,
    Forall,
    Formula,
    Func,
    Imp,
    NotBarendregt,
    NotNegative,
    ParseError,
    Polarity,
    ScopeTable,
    Term,
    Var,
    barendregt_rename,
    bound_vars,
    decompose,
    free_vars,
    parse_formula,
    pieces,
    polarity,
    print_formula,
    scope_table,
)
# The reference prover and System F load on first use (PEP 562), so that
# ``import minpl`` and a ``decide`` query do without them.
_LAZY = {
    "oracle": "FlatSequent FreshNames first_provable_depth flatten generate_positive ljplus_prove",
    "systemf": "FType TArrow TForall TVar inhabited parse_type phi print_type type_polarity",
}


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names.split():
            value = getattr(import_module(f"{__name__}.{module}"), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "BracketItem",
    "Context",
    "Derivation",
    "FlatSequent",
    "Forall",
    "Formula",
    "FormulaItem",
    "FreshNames",
    "FType",
    "Func",
    "Imp",
    "Item",
    "NotBarendregt",
    "NotNegative",
    "NotPositive",
    "ParseError",
    "Polarity",
    "ScopeTable",
    "SearchStats",
    "SearchTimeout",
    "SeenSet",
    "Sequent",
    "TArrow",
    "TForall",
    "TVar",
    "Term",
    "Var",
    "audit",
    "barendregt_rename",
    "bound_vars",
    "bracket",
    "decompose",
    "derivable",
    "derivation_to_json",
    "first_provable_depth",
    "flatten",
    "free_vars",
    "fuse",
    "generate_positive",
    "inhabited",
    "is_clean",
    "ljplus_prove",
    "measure",
    "normalize",
    "parse_context",
    "parse_formula",
    "parse_type",
    "phi",
    "pieces",
    "polarity",
    "print_formula",
    "print_type",
    "scope_table",
    "type_polarity",
]
