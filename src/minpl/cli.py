"""Command line interface.

Three modes: ``decide`` a formula, decide whether a type is ``inhabit``-ed,
and ``normalize`` a context written in the debug syntax.  The verdict doubles
as the exit status so shell harnesses need no output parsing: 0 derivable,
1 not derivable, 2 usage or input errors, 3 timeout, 4 oracle disagreement,
5 internal error (an unexpected exception, reported on stderr).  The
reference prover, System F and ``json`` load only for queries that use them.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .context import measure, normalize, parse_context
from .prover import NotPositive, SearchStats, SearchTimeout, auditor, derivable, derivation_to_json
from .syntax import ParseError, barendregt_rename, parse_formula


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
        p.add_argument("text", nargs="?", metavar="input", help="input text")
        p.add_argument("--file", metavar="PATH", help="read the input from a file")
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


def _load_input(config: argparse.Namespace) -> str:
    if (config.text is None) == (config.file is None):
        raise ValueError("provide the input either as an argument or via --file")
    if config.file is not None:
        with open(config.file, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    return config.text.strip()


def _format_trace(node: dict, indent: int = 0) -> list[str]:
    label = f"{node['rule']} [{node['head']}]" if "head" in node else node["rule"]
    lines = [f"{'  ' * indent}{label}: {node['sequent']}"]
    for premise in node["premises"]:
        lines.extend(_format_trace(premise, indent + 1))
    return lines


# each counter --stats reports, by its JSON key and its text label
_STATS = {"visited": "visited", "max_seen": "max seen set", "max_depth": "max bracket depth",
          "prunes": "loop-check prunes", "memo_hits": "memo hits"}


def _stats_lines(stats: SearchStats) -> list[str]:
    lines = [f"{label}: {getattr(stats, key)}" for key, label in _STATS.items()]
    return lines + [f"elapsed: {stats.elapsed * 1000:.2f} ms"]


def _run_normalize(config: argparse.Namespace, text: str) -> int:
    ctx = parse_context(text)
    cleaned = normalize(ctx)
    if config.json_out:
        import json
        payload = {
            "input": text,
            "mode": "normalize",
            "normalized": str(cleaned),
            "warnings": [],
        }
        print(json.dumps(payload))
    else:
        print(str(cleaned))
        if config.stats:  # Decimal prints an int past the interpreter's digit limit
            from decimal import Decimal
            print(f"measure: {Decimal(measure(ctx))} -> {Decimal(measure(cleaned))}")
    return 0


def run(config: argparse.Namespace) -> int:
    """Execute one query, given as the parsed arguments of ``main``, and return
    the process exit status."""
    if sys.getrecursionlimit() < 20000:  # derivable's limit, for printing too; ROADMAP item 9
        sys.setrecursionlimit(20000)
    try:
        return _run(config)
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


def _run(config: argparse.Namespace) -> int:
    try:
        text = _load_input(config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if config.mode == "normalize":
            return _run_normalize(config, text)

        warnings: list[str] = []
        if config.mode == "decide":
            f, search = parse_formula(text), derivable
        else:
            from . import systemf
            f, search = systemf.parse_type(text), systemf.inhabited
        if f.fv:
            names = ", ".join(sorted(f.fv))
            warnings.append(
                f"input is not closed; free variables ({names}) are treated "
                "as constants"
            )
        options, violations = {}, []
        # a positive input is renamed once, for search and audit; another fails in its own names
        if config.audit and f.pol & 1:
            f = barendregt_rename(f)
            check = auditor(f)
            options["on_visit"] = lambda seq: violations.extend(check(seq))
        verdict, stats, derivation = search(f, timeout=config.timeout, **options)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NotPositive as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3

    warnings.extend(f"audit: {v}" for v in violations)

    oracle_agrees: Optional[bool] = None
    if config.oracle_check is not None:
        from .oracle import FlatSequent, first_provable_depth
        found = first_provable_depth(FlatSequent((), f), config.oracle_check)
        oracle_agrees = (found is not None) == verdict

    trace = derivation_to_json(derivation) if config.trace and derivation is not None else None
    if config.json_out:
        import json
        payload = {
            "input": text,
            "mode": config.mode,
            "derivable": verdict,
            "visited": stats.visited,
            "elapsed_ms": round(stats.elapsed * 1000, 3),
            "derivation": trace,
            "oracle_agrees": oracle_agrees,
            "warnings": warnings,
        }
        if config.stats:
            counters = {key: getattr(stats, key) for key in _STATS}
            payload["stats"] = {**counters, "elapsed_ms": payload["elapsed_ms"]}
        print(json.dumps(payload))
    else:
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if config.mode == "decide":
            print("derivable" if verdict else "not derivable")
        else:
            print("inhabited" if verdict else "not inhabited")
        if trace is not None:
            lines = "\n".join(_format_trace(trace))
            print(lines if config.mode == "decide" else systemf.elide_eps(lines))
        if config.stats:
            print("\n".join(_stats_lines(stats)))
        if oracle_agrees is not None:
            print(f"oracle agrees: {'yes' if oracle_agrees else 'NO'}")

    if oracle_agrees is False:
        return 4
    return 0 if verdict else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
