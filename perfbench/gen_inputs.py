"""Make the benchmark's workload inputs under ``perfbench/inputs/``.

Run from the root of the repository::

    python3 perfbench/gen_inputs.py

Every query is made from the generator seeds and family sizes below, and its
expected verdict comes from ``checker.expected_verdict`` (or, for a family,
from its construction, cross-checked by the checker where the checker settles
it).  The bracketed search is run only to apply the selection rule: a query is
left out when it visits more than ``MAX_VISITED`` sequents or takes longer
than ``MAX_SECONDS``, a tenth of the search timeout the benchmark passes, so
that no query comes near the timeout.  A query the checker cannot settle
within ``CHECK_SECONDS`` is left out too.  What was left out, and why, is
written next to the queries.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from minpl import derivable, generate_positive, parse_formula, print_formula  # noqa: E402
from minpl.systemf import phi, parse_type  # noqa: E402

import checker  # noqa: E402

SEARCH_TIMEOUT = 10.0
MAX_SECONDS = SEARCH_TIMEOUT / 10
MAX_VISITED = 10_000
CHECK_SECONDS = 5

# Generator seeds.  The test suite's corpus uses seeds 0-499.
CORPUS_SEEDS = range(500, 100_000)  # the first 10,000 distinct formulas
CORPUS_SIZE = 10_000
WARMUP_SEEDS = range(900_000, 900_400)
HARD_SIZES = (60, 70, 80)
HARD_INDICES = range(100)  # seed = i * 7919 + size, quantifier depth 0
QUANT_SIZES = (40, 50, 60, 70, 80)
QUANT_INDICES = range(120)  # seed = i * 7919 + size, depth 1 + i % 3
TYPE_SEEDS = range(700_000, 700_300)
CLI_CORPUS = 90


# ---------------------------------------------------------------------------
# Families with verdicts known by construction


def chain(n: int) -> str:
    """``p0 -> (p0 -> p0 -> p1) -> ... -> (p(n-1) -> p(n-1) -> pn) -> pn``.

    Derivable: each ``pi`` follows from ``p(i-1)``, starting from ``p0``.
    The search proves every ``pi`` twice, so visits double with ``n`` while
    distinct sequents grow linearly.
    """
    steps = [f"(p{i} -> p{i} -> p{i + 1})" for i in range(n)]
    return " -> ".join(["p0"] + steps + [f"p{n}"])


def loop_chain(n: int) -> str:
    """The chain without the fact ``p0`` and with ``pn -> p0`` added.

    Not derivable: no hypothesis is an atom, so no atom can be proved.
    """
    steps = [f"(p{i} -> p{i} -> p{i + 1})" for i in range(n)]
    return " -> ".join(steps + [f"(p{n} -> p0)", f"p{n}"])


def nested_negative(n: int) -> str:
    """``((forall x1. ... forall xn. (P(x1) -> ... -> P(xn) -> Q)) -> Q) -> Q``.

    Not derivable: its erasure ``((P -> ... -> P -> Q) -> Q) -> Q`` is not
    provable, since nothing proves ``P``.
    """
    binders = "".join(f"forall x{i}. " for i in range(1, n + 1))
    body = " -> ".join([f"P(x{i})" for i in range(1, n + 1)] + ["Q"])
    return f"(({binders}({body})) -> Q) -> Q"


def _pierce_step(y: str, z: str, x: str = "x") -> str:
    return f"(((P({y}) -> P({x})) -> P({z})) -> ((P({y}) -> P({z})) -> P({z})))"


def pierce_true(n: int) -> str:
    """The derivable Pierce-style formula of the paper with ``n`` steps
    ``T(x, yi, zi)`` all bound outside: ``forall x y1 z1 ... yn zn.
    ((T1 -> ... -> Tn -> P(x)) -> P(x))``.

    Derivable: to prove ``Ti`` use its first hypothesis, whose premise
    ``P(yi) -> P(x)`` is proved by the outer hypothesis again; there ``Ti``
    is closed by its second hypothesis applied to ``P(yi)``.
    """
    binders = "".join(f"forall y{i}. forall z{i}. " for i in range(1, n + 1))
    steps = " -> ".join(_pierce_step(f"y{i}", f"z{i}") for i in range(1, n + 1))
    return f"forall x. {binders}(({steps} -> P(x)) -> P(x))"


def pierce_false(n: int) -> str:
    """The paper's underivable companion with ``n`` steps, each binding its
    own ``yi, zi`` in negative position: ``forall x. (((forall y1. forall
    z1. T1) -> ... -> P(x)) -> P(x))``.

    Not derivable: proving ``forall yi. forall zi. Ti`` makes ``zi`` fresh,
    and only ``Ti``'s own hypotheses conclude ``P(zi)``; each needs the
    fresh ``P(yi)`` or the same goal again.
    """
    steps = " -> ".join(
        f"(forall y{i}. forall z{i}. {_pierce_step(f'y{i}', f'z{i}')})"
        for i in range(1, n + 1)
    )
    return f"forall x. (({steps} -> P(x)) -> P(x))"


def as_type(formula_text: str) -> str:
    """A System F type with the same verdict as a formula.

    For a quantifier-free formula over nullary atoms this is the universal
    closure over its atoms.  For the Pierce families, ``P(v)`` becomes the
    type variable ``v``.  Either way ``phi`` of the type is the formula up to
    the name ``eps`` and the closure, which does not change derivability.
    """
    tree = checker.read(formula_text)
    if not checker.has_quantifier(tree):
        atoms = sorted(_atoms(tree))
        return "".join(f"forall {a}. " for a in atoms) + f"({formula_text})"
    return formula_text.replace("P(", "(")


def _atoms(tree) -> set:
    if tree[0] == "atom":
        return {tree[1]}
    if tree[0] == "imp":
        return _atoms(tree[1]) | _atoms(tree[2])
    return _atoms(tree[2])


FAMILIES = {
    "chain": (chain, True),
    "loop_chain": (loop_chain, False),
    "nested_negative": (nested_negative, False),
    "pierce_true": (pierce_true, True),
    "pierce_false": (pierce_false, False),
}


# ---------------------------------------------------------------------------
# Positive System F types


def positive_type(seed: int, size: int) -> str:
    """A closed positive type with about ``size`` connectives."""
    rng = random.Random(seed)
    names = iter(f"X{i}" for i in range(1, 1000))

    def pos(budget: int, scope: list) -> str:
        r = rng.random()
        if budget <= 0 or r > 0.9:
            return rng.choice(scope)
        if r < 0.3:
            v = next(names)
            return f"(forall {v}. {pos(budget - 1, scope + [v])})"
        left = rng.randint(0, budget - 1)
        return f"({neg(left, scope)} -> {pos(budget - 1 - left, scope)})"

    def neg(budget: int, scope: list) -> str:
        if budget <= 0 or rng.random() < 0.3:
            return rng.choice(scope)
        left = rng.randint(0, budget - 1)
        return f"({pos(left, scope)} -> {neg(budget - 1 - left, scope)})"

    return f"forall X0. {pos(size, ['X0'])}"


# ---------------------------------------------------------------------------
# Selection


class _CheckBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _CheckBudget()


def _settle(text: str):
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHECK_SECONDS)
    try:
        return checker.expected_verdict(text)
    except (_CheckBudget, ValueError):
        return None
    finally:
        signal.alarm(0)


def _formula_of(kind: str, text: str) -> str:
    return text if kind == "formula" else print_formula(phi(parse_type(text)))


def select(candidates, excluded: list, warm: set) -> list:
    """Keep the candidates that pass the rule; ``candidates`` yields
    ``(kind, text, origin, construction_verdict_or_None)``."""
    kept = []
    texts = set(warm)
    for kind, text, origin, by_construction in candidates:
        if text in texts:
            continue  # queries are distinct, and none is a warm-up formula
        formula = parse_formula(_formula_of(kind, text))
        start = time.perf_counter()
        _, stats, _ = derivable(formula, timeout=SEARCH_TIMEOUT)
        seconds = time.perf_counter() - start
        if stats.visited > MAX_VISITED or seconds > MAX_SECONDS:
            excluded.append(
                {"origin": origin, "kind": kind, "text": text,
                 "why": f"visited {stats.visited} sequents in {seconds:.2f} s"}
            )
            continue
        settled = _settle(_formula_of(kind, text))
        if by_construction is not None:
            # a bounded search is evidence, not proof, so only a settled
            # route may contradict a construction
            if settled and settled[0] != by_construction and not settled[1].startswith("bounded"):
                raise SystemExit(f"checker contradicts the construction of {origin}")
            verdict, route = by_construction, "family"
        elif settled is None:
            excluded.append({"origin": origin, "kind": kind, "text": text,
                             "why": "the checker did not settle it"})
            continue
        else:
            verdict, route = settled
        texts.add(text)
        kept.append({"kind": kind, "text": text, "expected": verdict,
                     "route": route, "origin": origin})
    return kept


def corpus_candidates(seen: set):
    count = 0
    for seed in CORPUS_SEEDS:
        f = generate_positive(seed, size=4 + seed % 9, quantifier_depth=seed % 4)
        text = print_formula(f)
        if text in seen:
            continue
        seen.add(text)
        # every other quantifier-free formula is posed as a System F type
        kind = "type" if seed % 8 == 0 else "formula"
        yield kind, as_type(text) if kind == "type" else text, f"corpus:{seed}", None
        count += 1
        if count == CORPUS_SIZE:
            return


def family_candidates(name: str, sizes, kinds=("formula",)):
    make, verdict = FAMILIES[name]
    for n in sizes:
        for kind in kinds:
            text = make(n)
            yield kind, as_type(text) if kind == "type" else text, f"{name}:{n}", verdict


def hard_candidates():
    for size in HARD_SIZES:
        for i in HARD_INDICES:
            seed = i * 7919 + size
            yield "formula", print_formula(generate_positive(seed, size, 0)), f"generated:{seed}:{size}:0", None
    yield from family_candidates("chain", range(2, 14), ("formula", "type"))
    yield from family_candidates("loop_chain", range(2, 14), ("formula", "type"))


def quantified_candidates():
    for size in QUANT_SIZES:
        for i in QUANT_INDICES:
            seed, qd = i * 7919 + size, 1 + i % 3
            yield "formula", print_formula(generate_positive(seed, size, qd)), f"generated:{seed}:{size}:{qd}", None
    yield from family_candidates("nested_negative", range(1, 31))
    yield from family_candidates("pierce_true", range(1, 6), ("formula", "type"))
    yield from family_candidates("pierce_false", range(1, 13), ("formula", "type"))
    for seed in TYPE_SEEDS:
        yield "type", positive_type(seed, 6 + seed % 19), f"type:{seed}", None


def cli_queries(corpus: list, warm: set) -> list:
    sys.path.insert(0, str(HERE.parent / "tests"))
    import helpers

    paper = [
        ("formula", t, "paper") for t in helpers.DERIVABLE_TRUE + helpers.DERIVABLE_FALSE
    ] + [("type", t, "paper") for t in helpers.INHABITED_TRUE + helpers.INHABITED_FALSE]
    picked = [(q["kind"], q["text"], q["origin"]) for q in corpus[:CLI_CORPUS]]
    candidates = [(k, t, o, None) for k, t, o in paper + picked]
    out = select(candidates, [], warm)
    for i, q in enumerate(out):
        q["trace"] = i % 3 == 0
    return out


def write(name: str, queries: list, excluded: list, warmup: list) -> None:
    texts = [q["text"] for q in queries]
    if len(set(texts)) != len(texts) or (name != "warmup" and set(texts) & warmup):
        raise SystemExit(f"{name}: queries are not distinct from each other and the warm-up")
    path = HERE / "inputs" / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(dump({"generated_by": "python3 perfbench/gen_inputs.py",
                          "excluded": excluded, "queries": queries}))
    print(f"{name}: {len(queries)} queries, {len(excluded)} left out", flush=True)


def dump(body: dict) -> str:
    """JSON text with one query per line."""
    head = json.dumps({k: v for k, v in body.items() if k != "queries"})[:-1]
    rows = ",\n".join(json.dumps(q) for q in body["queries"])
    return f'{head}, "queries": [\n{rows}\n]}}\n'


def main() -> None:
    seen: set = set()
    warmup = []
    for seed in WARMUP_SEEDS:
        text = print_formula(generate_positive(seed, 4 + seed % 9, seed % 4))
        if text not in seen:
            seen.add(text)
            warmup.append({"kind": "formula", "text": text, "origin": f"warmup:{seed}"})
    for seed in range(800_000, 800_040):
        text = positive_type(seed, 6)
        if text not in seen:
            seen.add(text)
            warmup.append({"kind": "type", "text": text, "origin": f"warmup-type:{seed}"})
    warm = {q["text"] for q in warmup}
    write("warmup", warmup, [], warm)

    excluded: list = []
    corpus = select(corpus_candidates(seen), excluded, warm)
    write("corpus", corpus, excluded, warm)
    excluded = []
    write("hard", select(hard_candidates(), excluded, warm), excluded, warm)
    excluded = []
    write("quantified", select(quantified_candidates(), excluded, warm), excluded, warm)
    write("cli", cli_queries(corpus, warm), [], warm)


if __name__ == "__main__":
    main()
