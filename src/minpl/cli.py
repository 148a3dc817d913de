"""Command line interface.

Three modes: ``decide`` a formula, decide whether a type is ``inhabit``-ed,
and ``normalize`` a context written in the debug syntax.  The verdict doubles
as the exit status so shell harnesses need no output parsing: 0 derivable,
1 not derivable, 2 usage or input errors, 3 timeout, 4 oracle disagreement,
5 internal error (an unexpected exception, reported on stderr).  A query
builds the report that ``--json`` prints, and text output is rendered from it.
The reference prover, System F and ``json`` load only for queries that use them.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .context import measure, normalize, parse_context
from .prover import NotPositive, SearchTimeout, auditor, derivable, derivation_to_json
from .syntax import ParseError, parse_formula


def _at_least(convert, least: int, name: str):
    """An argparse ``type=`` for a number ``convert(text) >= least``."""
    def check(text: str):
        if not convert(text) >= least:  # also false for NaN
            raise argparse.ArgumentTypeError(f"{name} must be at least {least}, not {text}")
        return convert(text)
    check.__name__ = convert.__name__  # argparse names it when a non-number fails
    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minpl",
        description="Decide derivability in the positive fragment of minimal "
        "predicate logic, and inhabitation of positive System F types.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("text", nargs="?", metavar="input", help="input text")
        source.add_argument("--file", metavar="PATH", help="read the input from a file")
        p.add_argument("--json", dest="json_out", action="store_true", help="emit a JSON report")
        p.add_argument("--stats", action="store_true", help="report search statistics")

    decide = sub.add_parser("decide", help="decide derivability of a formula")
    inhabit = sub.add_parser("inhabit", help="decide inhabitation of a type")
    for p in (decide, inhabit):
        add_common(p)
        p.add_argument("--trace", action="store_true", help="show the derivation")
        p.add_argument(
            "--audit",
            action="store_true",
            help="check structural invariants on every visited sequent",
        )
        p.add_argument(
            "--oracle-check",
            type=_at_least(int, 1, "N"),
            metavar="N",
            help="cross-check with the reference prover, deepening to N",
        )
        p.add_argument(
            "--timeout",
            type=_at_least(float, 0, "SECONDS"),
            metavar="SECONDS",
            help="abort the search after this many seconds",
        )

    norm = sub.add_parser("normalize", help="clean a context written as [G]_{x,y} items")
    add_common(norm)
    return parser


# each counter --stats reports, by its JSON key and its text label
_STATS = {"visited": "visited", "max_seen": "max seen set", "max_depth": "max bracket depth",
          "prunes": "loop-check prunes", "memo_hits": "memo hits"}
# each failure a query expects, by its stderr word and its exit status
_EXPECTED = {ParseError: ("parse error", 2), NotPositive: ("error", 2), SearchTimeout: ("timeout", 3)}


def run(config: argparse.Namespace) -> int:
    """Answer one query, given as the parsed arguments of ``main``, and return its
    exit status.  An exception that no query expects passes through to ``main``."""
    try:
        text = config.text
        if config.file is not None:
            with open(config.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report, status = _report(config, text.strip())
    except tuple(_EXPECTED) as exc:
        word, status = _EXPECTED[type(exc)]
        print(f"{word}: {exc}", file=sys.stderr)
        return status

    if config.json_out:
        import json
        print(json.dumps(report))
    else:
        for warning in report["warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
        print("\n".join(_render(report)))
    return status


def _report(config: argparse.Namespace, text: str) -> tuple[dict, int]:
    """The report of one query, as ``--json`` prints it, and its exit status."""
    if config.mode == "normalize":
        if sys.getrecursionlimit() < 20000:  # keys recurse to print and to compare; ROADMAP item 9
            sys.setrecursionlimit(20000)
        ctx = parse_context(text)
        cleaned = normalize(ctx)
        report = {"input": text, "mode": "normalize", "normalized": str(cleaned), "warnings": []}
        if config.stats:  # as digits: str(int) and json refuse an int past 4,300 digits
            from decimal import Decimal
            report["stats"] = {"measure": [str(Decimal(measure(c))) for c in (ctx, cleaned)]}
        return report, 0
    warnings: list[str] = []
    if config.mode == "decide":
        f, search = parse_formula(text), derivable
    else:
        from . import systemf
        f, search = systemf.parse_type(text), systemf.inhabited
    if f.fv:
        names = ", ".join(sorted(f.fv))
        warnings.append(f"input is not closed; free variables ({names}) are treated as constants")
    options, violations, check = {}, [], None
    if config.audit:  # built on the first sequent entered: |- the input as derivable renamed it
        def visit(seq):
            nonlocal check
            check = check or auditor(seq.goal)
            violations.extend(check(seq))
        options["on_visit"] = visit
    verdict, stats, derivation = search(f, timeout=config.timeout, **options)
    warnings.extend(f"audit: {v}" for v in violations)

    oracle_agrees: bool | None = None
    if config.oracle_check is not None:
        from .oracle import FlatSequent, first_provable_depth
        found = first_provable_depth(FlatSequent((), f), config.oracle_check)
        oracle_agrees = (found is not None) == verdict

    trace = derivation_to_json(derivation) if config.trace and derivation is not None else None
    report = {"input": text, "mode": config.mode, "derivable": verdict, "visited": stats.visited,
              "elapsed_ms": round(stats.elapsed * 1000, 3), "derivation": trace,
              "oracle_agrees": oracle_agrees, "warnings": warnings}
    if config.stats:
        counters = {key: getattr(stats, key) for key in _STATS}
        report["stats"] = {**counters, "elapsed_ms": report["elapsed_ms"]}
    return report, 4 if oracle_agrees is False else 0 if verdict else 1


def _render(report: dict) -> list[str]:
    """The text lines of a report, warnings aside.  The trace is walked on a
    stack, so it takes no frame per level; a type's shows ``eps(X)`` as ``X``."""
    if report["mode"] == "normalize":
        lines = [report["normalized"]]
        if "stats" in report:
            lines.append("measure: {} -> {}".format(*report["stats"]["measure"]))
        return lines
    word = "derivable" if report["mode"] == "decide" else "inhabited"
    lines = [word if report["derivable"] else f"not {word}"]
    stack = [(report["derivation"], 0)] if report["derivation"] is not None else []
    while stack:
        node, indent = stack.pop()
        label = f"{node['rule']} [{node['head']}]" if "head" in node else node["rule"]
        lines.append(f"{'  ' * indent}{label}: {node['sequent']}")
        stack += ((premise, indent + 1) for premise in reversed(node["premises"]))
    if report["mode"] == "inhabit":
        from .systemf import elide_eps
        lines[1:] = map(elide_eps, lines[1:])
    if "stats" in report:
        stats = report["stats"]
        lines += [f"{label}: {stats[key]}" for key, label in _STATS.items()]
        lines.append(f"elapsed: {stats['elapsed_ms']:.2f} ms")
    if report["oracle_agrees"] is not None:
        lines.append(f"oracle agrees: {'yes' if report['oracle_agrees'] else 'NO'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse's usage errors, --help
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def entry() -> int:
    status = main()  # main, the in-process entry, leaves the collector alone
    gc.freeze()  # all of it dies with the process: spare shutdown's collections the walk
    return status


if __name__ == "__main__":
    sys.exit(entry())
