"""Stored node analyses against from-scratch recomputation, hashes along
different construction routes, no nodes retained after a query, and the
value behaviour of the plain slotted nodes: representation, equality,
immutability, copies."""

import ast
import copy
import gc
import inspect
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from minpl import context, prover, syntax
from minpl.context import (
    BracketItem,
    Context,
    FormulaItem,
    Item,
    bracket,
    fuse,
    insert,
    normalize,
    parse_context,
)
from minpl.oracle import FlatSequent
from minpl.prover import Derivation, SearchStats, Sequent, derivable
from minpl.syntax import Atom, Formula, Func, Node, Term, Var, barendregt_rename, parse_formula
from minpl.syntax import print_formula
from minpl.systemf import parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    ROTATION_WITNESSES,
    corpus_formula,
    formulas,
    published_and_witnesses,
    random_context,
    reference_depth,
    reference_free_vars,
    reference_item_key,
    subnodes,
)

NODE_TYPES = (Term, Formula, Item, Context, Sequent)


def test_stored_analyses_match_recomputation_on_visited_sequents(corpus):
    inputs = list(corpus[:120])
    inputs += [parse_formula(text) for text in DERIVABLE_TRUE + DERIVABLE_FALSE]
    inputs += [parse_type(text) for text in INHABITED_TRUE + INHABITED_FALSE]
    checked = 0
    for f in inputs:
        visited = []
        derivable(f, on_visit=visited.append)
        for seq in visited:
            for node in subnodes(seq):
                if isinstance(node, Context):
                    assert node.depth == reference_depth(node), str(node)
                elif not isinstance(node, Sequent):
                    assert node.fv == reference_free_vars(node), str(node)
                if isinstance(node, Item):
                    assert node.key == reference_item_key(node), str(node)
                checked += 1
    assert checked > 10_000


@given(formulas)
def test_reparsed_formula_has_equal_hash(f):
    again = parse_formula(print_formula(f))
    assert again == f and hash(again) == hash(f)
    assert again.fv == f.fv


def rebuild(c: Context) -> Context:
    """A clean context rebuilt from nothing with ``fuse`` and ``bracket``."""
    out = Context()
    for item in c.items:
        if isinstance(item, FormulaItem):
            piece = Context((FormulaItem(item.formula),))
        else:
            piece = bracket(rebuild(item.content), set(item.bound))
        out = fuse(out, piece)
    return out


@settings(max_examples=200)
@given(st.integers(0, 2**32))
def test_contexts_along_different_routes_have_equal_hashes(seed):
    rng = random.Random(seed)
    normal = normalize(random_context(rng))
    reparsed = normalize(parse_context(str(normal)))
    rebuilt = rebuild(normal)
    assert reparsed == normal and hash(reparsed) == hash(normal)
    assert rebuilt == normal and hash(rebuilt) == hash(normal)
    assert [i.key for i in rebuilt.items] == [i.key for i in normal.items]
    # one item at a time, in any order, with the hash and depth derived by insert
    inserted = Context()
    for item in rng.sample(normal.items, len(normal.items)):
        inserted = insert(inserted, item)
        assert inserted.depth == reference_depth(inserted)
    assert inserted == normal and hash(inserted) == hash(normal)
    assert inserted.items == normal.items and inserted.depth == normal.depth
    # a rotation's siblings, sliced at the bracket, against the same items inserted
    for index, item in enumerate(normal.items):
        if isinstance(item, BracketItem):
            siblings = Context(normal.items[:index] + normal.items[index + 1 :])
            again = Context()
            for other in normal.items:
                if other is not item:
                    again = insert(again, other)
            assert siblings == again and hash(siblings) == hash(again)
            assert siblings.depth == again.depth == reference_depth(siblings)


def live_nodes() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, NODE_TYPES))


def test_deciding_retains_no_nodes():
    before = live_nodes()
    distinct = {}
    seed = 1000  # past the session corpus, which stays alive throughout
    while len(distinct) < 500:
        f = corpus_formula(seed)
        distinct.setdefault(str(f), f)
        seed += 1
    results = [derivable(f, timeout=10.0) for f in distinct.values()]
    assert sum(stats.visited for _, stats, _ in results) > 500
    del distinct, results, f
    assert live_nodes() <= before


def test_nodes_have_no_instance_dict():
    c = normalize(parse_context("P(f(x)), [forall y. P(y) -> Q]_{x}"))
    for node in subnodes(Sequent(c, parse_formula("Q"))):
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_copies_and_pickles_restore_the_stored_fields():
    c = normalize(parse_context("P(f(x)), [P(x) -> Q]_{x}"))
    seq = Sequent(c, parse_formula("forall x. P(x) -> Q"))
    for again in (pickle.loads(pickle.dumps(seq)), copy.copy(seq), copy.deepcopy(seq)):
        assert again == seq and hash(again) == hash(seq)
        assert again.context.depth == c.depth == 1
        assert [i.key for i in again.context.items] == [i.key for i in c.items]
        assert again.goal.fv == frozenset() and again.goal.scope == {"x"}


def test_types_copy_and_pickle_with_equal_hashes():
    t = parse_type("forall X. ((X -> Y) -> X) -> X")
    for again in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert again == t and hash(again) == hash(t) and repr(again) == repr(t)
        # the one eps(X) atom of the parse stays one object
        assert again.body.right is again.body.left.right is again.body.left.left.left


# ---------------------------------------------------------------------------
# What the dataclass decorators used to provide, recorded before they went

Q_REPR = "Atom(pred='Q', terms=())"
PX_REPR = "Atom(pred='P', terms=(Var(name='x'),))"

REPRS = [
    (lambda: parse_formula("Q"), Q_REPR),
    (
        lambda: parse_formula("P(f(x, y)) -> Q"),
        "Imp(left=Atom(pred='P', terms=(Func(name='f', args=(Var(name='x'), Var(name='y'))),)),"
        f" right={Q_REPR})",
    ),
    (
        lambda: parse_formula("forall x. (P(x) -> Q)"),
        f"Forall(var='x', body=Imp(left={PX_REPR}, right={Q_REPR}))",
    ),
    (
        lambda: parse_context("[Q, P(x)]_{x}, [P(x)]_{x}").items[0],
        f"BracketItem(content=Context(items=(FormulaItem(formula={Q_REPR}),"
        f" FormulaItem(formula={PX_REPR}))), bound=frozenset({{'x'}}))",
    ),
    (
        lambda: normalize(parse_context("[Q, P(x)]_{x}, [P(x)]_{x}")),
        f"Context(items=(FormulaItem(formula={Q_REPR}), BracketItem(content=Context(items="
        f"(FormulaItem(formula={PX_REPR}),)), bound=frozenset({{'x'}}))))",
    ),
    (lambda: Context(), "Context(items=())"),
    (
        lambda: FlatSequent((parse_formula("Q"),), parse_formula("Q")),
        f"FlatSequent(context=({Q_REPR},), goal={Q_REPR})",
    ),
    (
        lambda: Sequent(parse_context("Q"), parse_formula("Q")),
        f"Sequent(context=Context(items=(FormulaItem(formula={Q_REPR}),)), goal={Q_REPR})",
    ),
    (
        SearchStats,
        "SearchStats(visited=0, max_seen=0, max_depth=0, prunes=0, memo_hits=0,"
        " elapsed=0.0)",
    ),
]


@pytest.mark.parametrize("make, expected", REPRS)
def test_repr_is_unchanged(make, expected):
    assert repr(make()) == expected


def test_equality_between_node_types_is_false():
    x = Var("x")
    nodes = [
        x,
        Func("x", ()),
        Atom("x"),
        FormulaItem(Atom("x")),
        Context(),
        Context((FormulaItem(Atom("x")),)),
        FlatSequent((), Atom("x")),
    ]
    for a in nodes:
        for b in nodes:
            assert (a == b) is (a is b), (a, b)
            assert (a != b) is (a is not b), (a, b)
    assert x == Var("x") and Atom("x") == Atom("x")
    assert Atom("x") != "x" and Var("x") != ("x",)


def test_fields_cannot_be_assigned_or_deleted():
    f = parse_formula("forall x. (P(f(x)) -> Q)")
    bracket_item = parse_context("[P(x)]_{x}").items[0]
    t = parse_type("forall X. X -> X")
    clean = normalize(parse_context("P(x), Q"))
    clash = parse_formula("(forall x. P(x)) -> forall x. P(x)")
    renamed = barendregt_rename(clash)
    assert renamed.right.var != "x"
    _, _, derivation = derivable(parse_formula("Q -> Q"))
    cases = [
        (insert(clean, FormulaItem(parse_formula("R"))), "items"),
        (bracket(clean, {"x"}), "depth"),
        (fuse(clean, parse_context("R")), "items"),
        (renamed.right, "body"),
        (derivation, "rule"),
        (f, "var"),
        (f.body, "left"),
        (f.body.left, "terms"),
        (f.body.left.terms[0], "args"),
        (f.body.left.terms[0].args[0], "name"),
        (FormulaItem(f), "formula"),
        (bracket_item, "bound"),
        (bracket_item.content, "items"),
        (t, "body"),
        (t.body, "left"),
        (t.body.left, "terms"),
        (FlatSequent((), f), "goal"),
        (f, "scope"),
        (renamed.right, "scope"),
    ]
    for node, field in cases:
        before = repr(node)
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
        with pytest.raises(AttributeError):
            node.extra = 1
        assert repr(node) == before
    seq = Sequent(Context(), f)
    with pytest.raises(AttributeError):
        seq.goal = None
    with pytest.raises(AttributeError):
        seq.extra = 1
    with pytest.raises(AttributeError):
        del seq.goal


def test_search_stats_defaults_are_fresh_and_mutable():
    a, b = SearchStats(), SearchStats()
    assert (a.visited, a.max_seen, a.max_depth, a.prunes, a.memo_hits) == (0, 0, 0, 0, 0)
    assert a.elapsed == 0.0
    a.visited += 3
    assert b.visited == 0


# ---------------------------------------------------------------------------
# Nodes built in a writable twin of their class and sealed: no twin escapes


def _twins() -> set:
    twins, stack = set(), [Node]
    while stack:
        cls = stack.pop()
        stack += cls.__subclasses__()
        if "_twin" in vars(cls):
            twins.add(cls._twin)
    return twins


def _fields(x) -> list:
    """The fields of a node, every slot of its classes, or of a derivation."""
    if isinstance(x, Derivation):
        return ["rule", "conclusion", "premises", "head", "path"]
    return [name for cls in type(x).__mro__ for name in vars(cls).get("__slots__", ())]


def _reachable(roots) -> list:
    """Every object reachable from ``roots`` through fields and containers, once."""
    found, stack = {}, list(roots)
    while stack:
        x = stack.pop()
        if isinstance(x, (str, int)) or x is None or id(x) in found:
            continue
        found[id(x)] = x
        if isinstance(x, (tuple, frozenset)):
            stack += x
        elif isinstance(x, (Node, Derivation)):
            stack += (getattr(x, name) for name in _fields(x))
    return list(found.values())


def _sealed(x, name: str) -> bool:
    try:
        setattr(x, name, None)
    except AttributeError:
        return True
    return False


def test_no_twin_is_reachable_from_a_result_and_every_field_is_sealed(corpus):
    twins = _twins()
    assert {Atom._twin, Sequent._twin, FormulaItem._twin, Context._twin} <= twins
    roots = published_and_witnesses() + list(corpus[:300])
    roots.append(parse_formula("forall x. (P(f(x)) -> P(f(x)))"))  # a function symbol
    reached = []
    for f in roots:
        visited = []
        _, _, derivation = derivable(f, on_visit=visited.append)
        reached += [f, derivation, *visited]
    checked = set()
    for x in _reachable(reached):
        assert type(x) not in twins, type(x)
        if isinstance(x, (Node, Derivation)):
            assert all(_sealed(x, name) for name in _fields(x)), repr(x)
            checked.add(type(x).__name__)
    assert checked >= {"Var", "Func", "Atom", "Imp", "Forall", "FormulaItem", "BracketItem",
                       "Context", "Sequent", "Derivation"}


def test_search_built_sequents_contexts_and_brackets_copy_and_pickle():
    visited = []
    derivable(parse_formula(ROTATION_WITNESSES["formula"]), on_visit=visited.append)
    seq = next(s for s in visited if any(isinstance(i, BracketItem) for i in s.context.items))
    item = next(i for i in seq.context.items if isinstance(i, BracketItem))
    twins = _twins()
    for x in (seq, seq.context, item):
        for again in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(again) is type(x) and again is not x
            assert again == x and hash(again) == hash(x) and repr(again) == repr(x)
            assert not twins & {type(y) for y in _reachable([again])}
            with pytest.raises(AttributeError):
                again._hash = 0


# ---------------------------------------------------------------------------
# The per-query builders call each class's ``__new__`` through a module alias

# each module's per-query builders, as dotted paths inside the module
HOT_PATHS = {
    syntax: ("_parse_spine", "_parse_atom"),
    context: ("_canonical", "bracket"),
    prover: ("_Search.search",),
}


def _functions(tree: ast.Module) -> dict:
    """Every function of ``tree`` by its dotted path inside the module."""
    found, stack = {}, [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                path = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    found[path] = child
                stack.append((path + ".", child))
    return found


def test_hot_paths_build_no_node_through_its_class():
    """A class call goes through ``type.__call__`` and an inline ``X.__new__`` through
    a class attribute lookup; the one class call left builds a hypothesis's item,
    once per query, which a test counts by patching ``prover.FormulaItem``."""
    for module, paths in HOT_PATHS.items():
        classes = {name for name, value in vars(module).items()
                   if isinstance(value, type) and issubclass(value, Node)}
        functions = _functions(ast.parse(inspect.getsource(module)))
        for path in paths:
            named = []
            for call in ast.walk(functions[path]):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func.value if isinstance(call.func, ast.Attribute) else call.func
                if isinstance(callee, ast.Name) and callee.id in classes:
                    named.append(callee.id)
            assert named == (["FormulaItem"] if path == "_Search.search" else []), path


@pytest.mark.parametrize("module, alias, cls", [
    (syntax, "_atom", Atom), (syntax, "_var", Var), (syntax, "_func", Func),
    (syntax, "_imp", syntax.Imp), (syntax, "_forall", syntax.Forall),
    (context, "_context", Context), (context, "_bracket_item", BracketItem),
    (prover, "_context", Context), (prover, "_sequent", Sequent),
    (prover, "_derivation", Derivation),
])
def test_each_alias_is_the_function_its_class_call_runs(module, alias, cls):
    assert getattr(module, alias) is cls.__new__
