"""Spans at the module boundaries of minpl, for the benchmark's traced run.

``Tracer.install`` replaces the bindings through which one minpl module calls
another (and the public entry points) with wrappers that record a span per
call: its name, start, end, parent span and query id.  Spans stay in memory
and are written out when the process ends.  Each layer's self time is its
spans' time minus the part covered by their child spans.  Nothing under
``src/`` is changed; the wrappers live only in the traced process.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from time import perf_counter_ns

# the token pattern of minpl.syntax, to count what each parse consumes
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|->|[(),.\[\]{}]|\S")

CACHES = {
    "syntax": ("free_vars", "bound_vars", "decompose", "pieces", "print_formula", "_pos_neg"),
    "context": ("free_vars_ctx", "_item_key"),
}


class Tracer:
    def __init__(self):
        self.enabled = True
        self.query = -1
        self.spans: list = []
        self._stack: list = []  # [span index, name, time covered by children]
        self.total_ns: dict = defaultdict(int)
        self.self_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        if not self.enabled or (stack and stack[-1][1] == name):
            # a recursive call stays inside the span of the outermost call
            return fn(*args, **kwargs)
        frame = [len(self.spans), name, 0]
        self.spans.append(None)
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            parent = -1
            if stack:
                stack[-1][2] += duration
                parent = stack[-1][0]
            self.spans[frame[0]] = (name, start, end, parent, self.query)
            self.total_ns[name] += duration
            self.self_ns[name] += duration - frame[2]
            self.calls[name] += 1

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the cross-module calls of the loaded minpl modules."""
        import minpl
        from minpl import prover, systemf

        cli = sys.modules.get("minpl.cli")

        def patch(name, attr, wrapper_of, *modules):
            for module in modules:
                if module is not None and hasattr(module, attr):
                    setattr(module, attr, wrapper_of(name, getattr(module, attr)))

        def parse(name, fn):
            def wrapper(text):
                out = self.span(name, fn, text)
                if self.enabled:
                    self.counts[f"{name}.tokens"] += len(_TOKEN.findall(text))
                return out

            return wrapper

        def derivable(name, fn):
            def wrapper(f, **options):
                visits: list = []
                options.setdefault("on_visit", visits.append)
                out = self.span(name, fn, f, **options)
                if self.enabled:
                    verdict, stats, derivation = out
                    self.counts["visited"] += stats.visited
                    self.counts["distinct"] += len(set(visits))
                    self.counts["derivation_nodes"] += _nodes(derivation)
                return out

            return wrapper

        def seen_contains(name, fn):
            def wrapper(seen, seq):
                hit = self.span(name, fn, seen, seq)
                if hit and self.enabled:
                    self.counts["prunes"] += 1
                return hit

            return wrapper

        patch("syntax.parse", "parse_formula", parse, minpl, cli)
        patch("systemf.parse_type", "parse_type", parse, minpl, systemf)
        patch("systemf.inhabited", "inhabited", self.wrap, minpl, systemf)
        patch("systemf.phi", "phi", self.wrap, minpl, systemf)
        patch("prover.derivable", "derivable", derivable, minpl, prover, systemf, cli)
        patch("syntax.polarity", "polarity", self.wrap, prover)
        patch("syntax.rename", "barendregt_rename", self.wrap, prover)
        patch("context.fuse", "fuse", self.wrap, prover)
        patch("context.bracket", "bracket", self.wrap, prover)
        patch("prover.seen", "__contains__", seen_contains, prover.SeenSet)
        patch("prover.seen", "add", self.wrap, prover.SeenSet)
        patch("prover.trace_json", "derivation_to_json", self.wrap, cli)
        patch("cli.run", "run", self.wrap, cli)

    def cache_entries(self) -> dict:
        """Entries held by each layer's module-level caches, with their
        ``cache_info()`` counters."""
        out = {}
        for layer, names in CACHES.items():
            module = sys.modules.get(f"minpl.{layer}")
            infos = {
                name: getattr(module, name).cache_info()._asdict()
                for name in names
                if hasattr(getattr(module, name, None), "cache_info")
            }
            out[layer] = {"entries": sum(i["currsize"] for i in infos.values()), "caches": infos}
        return out

    def summary(self) -> dict:
        return {
            "total_ns": dict(self.total_ns),
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "caches": self.cache_entries(),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\tquery\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{query}\n")


def _nodes(derivation) -> int:
    count, stack = 0, [derivation] if derivation is not None else []
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count
