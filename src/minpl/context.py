"""Bracketed hypothesis contexts and the cleaning rules that keep them canonical.

A context is a finite multiset of items; an item is either a bare formula or a
bracket ``[G]_V`` that locally binds the variables of ``V`` over the
sub-context ``G``.  Brackets are the scoping device that replaces eigenvariable
renaming during proof search: instead of inventing a fresh variable, the prover
shuts the old one inside a bracket.

Three rewrite rules simplify contexts:

* an item with no free variable in ``V`` moves out of its bracket,
* an empty bracket disappears,
* two identical items at the same level collapse into one.

The rules terminate (``measure`` strictly decreases) and are locally confluent,
so a context has one normal form up to order (Newman's lemma); ``normalize``
reaches it by a fixed strategy and sorts every level by a total item order.
Equal multisets then get equal representations, and sequent equality during
search is plain structural comparison.  ``fuse``, ``insert`` and ``bracket``
keep normal forms incrementally so search never cleans a context from scratch.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Iterable, Iterator

from .syntax import Formula, Node, _NO_VARS, _TokenStream, _fv_of, _hash_of, _new
from .syntax import _parse_atom, _parse_spine, decompose, print_formula

_key, _depth = attrgetter("key"), attrgetter("depth")
# a context's hash is the sum of its items' hashes, kept below this mask
_MASK = (1 << 61) - 1

__all__ = [
    "BracketItem",
    "Context",
    "FormulaItem",
    "Item",
    "bracket",
    "fuse",
    "insert",
    "measure",
    "normalize",
    "parse_context",
]


class Item(Node):
    """A context item; ``depth`` is the number of brackets it nests."""

    __slots__ = ("fv", "key", "depth")
    _values = _key  # its sort key encodes it exactly, so items compare by key


class FormulaItem(Item):
    __slots__ = ("formula", "head", "args")
    _fields = ("formula",)

    def __new__(cls, formula: Formula) -> FormulaItem:
        # Formula items sort before bracket items, by the printed formula, which
        # ``str`` reuses.  It is injective (it round-trips), so key equality is
        # item equality.
        self = _new(cls._twin)
        self.formula, self.fv, self.depth = formula, formula.fv, 0
        self.head, self.args = decompose(formula) if formula.pol & 2 else (None, ())  # if negative
        self._hash = hash((0, formula._hash))
        self.key = (0, print_formula(formula))
        self.__class__ = cls
        return self

    def __str__(self) -> str:
        return self.key[1]


class BracketItem(Item):
    __slots__ = _fields = ("content", "bound")

    def __new__(cls, content: Context, bound: frozenset[str]) -> BracketItem:
        self = _new(cls._twin)
        self.content, self.bound, self.depth = content, bound, content.depth + 1
        self._hash = hash((content._hash, bound))
        self.fv = _NO_VARS.union(*map(_fv_of, content.items)).difference(bound)
        self.key = (1, tuple(sorted(bound)), tuple(map(_key, content.items)))
        self.__class__ = cls
        return self

    def __str__(self) -> str:
        return str(Context((self,)))


class Context(Node):
    """A sequence of items, hashed as the sum of their stored hashes, which runs in
    C and ignores order, so ``insert`` derives the hash, and the bracket depth, in O(1)."""

    __slots__ = ("items", "depth")
    _fields = ("items",)

    def __new__(cls, items: tuple[Item, ...] = ()) -> Context:
        self = _new(cls._twin)
        self.items, self._hash = items, sum(map(_hash_of, items)) & _MASK
        self.depth = max(map(_depth, items), default=0)
        self.__class__ = cls
        return self

    def __str__(self) -> str:
        out = []
        for item, _, closing in _walk(self.items):
            if closing:
                out.append(f"]_{{{','.join(sorted(item.bound))}}}")
                continue
            if out and out[-1] != "[":  # a separator, unless first in its level
                out.append(", ")
            out.append("[" if isinstance(item, BracketItem) else str(item))
        return "".join(out)


_context, _bracket_item = Context.__new__, BracketItem.__new__  # X(...) without type.__call__


def _walk(items: Iterable[Item]) -> Iterator[tuple[Item, int, bool]]:
    """Every item of ``items`` and of their brackets in printed order, as
    ``(item, depth, closing)``: a bracket comes once before its content and
    once more, ``closing`` true, after it; ``depth`` counts the brackets around."""
    # each open level: its items left to walk, and the bracket it is the content of
    levels = [(iter(items), None)]
    while levels:
        for item in levels[-1][0]:
            yield item, len(levels) - 1, False
            if isinstance(item, BracketItem):
                levels.append((iter(item.content.items), item))
                break
        else:
            closed = levels.pop()[1]
            if closed is not None:
                yield closed, len(levels) - 1, True


def measure(c: Context) -> int:
    """Termination measure of cleaning: a formula weighs 1, a bracket weighs
    one plus twice its content, a context the sum of its items; so each item
    weighs 2 to the number of brackets around it."""
    return sum(1 << depth for _, depth, closing in _walk(c.items) if not closing)


def _canonical(items: Iterable[Item]) -> Context:
    return _context(Context, tuple(dict.fromkeys(sorted(items, key=_key))))


def normalize(c: Context) -> Context:
    """Clean a context with a fixed strategy.

    Bracket contents are cleaned innermost first and put back with
    ``bracket``, which hoists the items with no free variable in the bound set
    and drops an empty bracket; every level is then sorted and deduplicated.
    Deterministic and idempotent; the result is reachable from ``c`` by the
    three cleaning rules.
    """
    levels = [[]]  # each open level's items cleaned so far
    for item, _, closing in _walk(c.items):
        if closing:
            flat = levels.pop()
            levels[-1] += bracket(_canonical(flat), item.bound).items
        elif isinstance(item, BracketItem):
            levels.append([])
        else:
            levels[-1].append(item)
    return _canonical(levels[0])


def fuse(a: Context, b: Context) -> Context:
    """Canonical form of the union of two clean contexts, without re-cleaning;
    an empty operand returns the other one itself."""
    if not a.items or not b.items:
        return a if a.items else b
    return _canonical(a.items + b.items)


def insert(c: Context, item: Item) -> Context:
    """Canonical form of adding the clean ``item`` to the clean context ``c``
    by bisection: ``c`` itself when the item is already there."""
    items = c.items
    i = bisect_left(items, item.key, key=_key)
    if i < len(items) and items[i].key == item.key:
        return c
    out = _new(Context._twin)
    out.items = items[:i] + (item,) + items[i:]
    out._hash = (c._hash + item._hash) & _MASK
    out.depth = max(c.depth, item.depth)
    out.__class__ = Context
    return out


def bracket(c: Context, bound: Iterable[str]) -> Context:
    """Canonical form of putting the clean context ``c`` under a bracket
    binding ``bound``.

    Items with no free variable in ``bound`` stay at the outer level; the
    rest go under a single bracket, added by ``insert``.  If nothing needs
    binding, no bracket is created at all.
    """
    v = frozenset(bound)
    inside = [i for i in c.items if i.fv & v]
    if not inside:
        return c
    outside = _context(Context, tuple([i for i in c.items if not i.fv & v]))
    return insert(outside, _bracket_item(BracketItem, _context(Context, tuple(inside)), v))


# ---------------------------------------------------------------------------
# Debug syntax: the inverse of ``str`` on contexts, used by the CLI


def parse_context(text: str) -> Context:
    """Parse the debug serialization of a context.

    Items are comma separated and a bracket is written ``[G]_{x,y}``.  The
    result is exactly what was written, possibly dirty; pass it through
    ``normalize`` to clean it.
    """
    ts = _TokenStream(text)
    if ts.peek() is None:
        return Context()
    stack, items = [], []  # each open bracket's outer level waits on the stack
    while True:
        while ts.peek() == "[":
            ts.index += 1
            stack.append(items)
            items = []
        if items or not stack or ts.peek() != "]":  # else a bracket closes empty
            items.append(FormulaItem(_parse_spine(ts, _parse_atom)))
        while stack and ts.peek() != ",":
            for token in "]_{":
                ts.expect(token)
            names = [ts.ident()]
            while ts.peek() == ",":
                ts.index += 1
                names.append(ts.ident())
            ts.expect("}")
            inner, items = items, stack.pop()
            items.append(BracketItem(Context(tuple(inner)), frozenset(names)))
        if ts.peek() != ",":
            break
        ts.index += 1
    ts.finish()
    return Context(tuple(items))
