"""A catalogue of mutants: small faults planted in the library, each with the
tests expected to catch it, and a runner that checks that they still do.

    python tests/mutants.py [NAME ...]

For each named mutant (all of them by default) the runner exports ``HEAD``
with ``git archive`` into a temporary directory, makes the one replacement
there, and runs the mutant's tests with ``-x``; if they all pass, it runs the
whole tier-1 suite.  It prints one line per mutant: killed, with the first
failing test, or survived.  It exits 1 if a mutant survived or did not apply.

Pytest does not collect this file.  ``test_mutants.py`` checks only that each
entry's text occurs exactly once in its file, so the catalogue cannot rot
unseen.  A change that deletes or rewrites a test runs the catalogue; a
survivor is a fault the tests no longer catch.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EDGE_CASES = "tests/test_tokens.py::test_parsers_match_the_reference_on_edge_cases"
ROTATION = "tests/test_rotation.py"


class Mutant(NamedTuple):
    name: str
    path: str  # from the root of the repository
    old: str  # occurs exactly once in the file
    new: str
    kills: tuple[str, ...]  # test ids expected to fail


MUTANTS = (
    Mutant(
        "imp-pol-ignores-antecedent",
        "src/minpl/syntax.py",
        "_IMP_POL = tuple(tuple(a >> 1 & c & 1 | a << 1 & c & 2 for c in range(4))",
        "_IMP_POL = tuple(tuple(a >> 1 & c & 1 | c & 2 for c in range(4))",
        ("tests/test_syntax.py::"
         "test_polarity_of_each_pair_of_operand_classes_matches_recursive_reference",),
    ),
    Mutant(
        "table-atom-before-paren",
        "src/minpl/syntax.py",
        '            if toks[i + 1] != "(" or applied is None:\n',
        '            if toks[i + 1] != "(" or applied is None or tok in atoms:\n',
        (f"{EDGE_CASES}[Q -> Q(x) -> Q-formula]", f"{EDGE_CASES}[P(x) -> P -> P(x)-formula]"),
    ),
    Mutant(
        "forall-skips-body-binders",
        "src/minpl/syntax.py",
        "scope.union(*map(_scope_of, _outermost(body))) if body.nbinders else scope",
        "scope",
        ("tests/test_syntax.py::test_scopes_of_a_prenex_prefix",),
    ),
    Mutant(
        "rename-keeps-one-binder-root",
        "src/minpl/syntax.py",
        "    if len(names) == f.nbinders and f.fv.isdisjoint(names):\n",
        "    if f.nbinders <= 1 or len(names) == f.nbinders and f.fv.isdisjoint(names):\n",
        ("tests/test_syntax.py::test_rename_avoids_free_variables",),
    ),
    Mutant(  # reuses a success whose derivation holds a sequent of the current branch
        "memo-ignores-branch",
        "src/minpl/prover.py",
        "if memo and (stored := memo.get(seq)) and seen.keys().isdisjoint(stored.sequents):",
        "if memo and (stored := memo.get(seq)):",
        ("tests/test_memo.py::test_success_that_pruned_an_ancestor_is_not_reused",
         "tests/test_memo.py::test_chain_is_decided_over_distinct_nodes",
         "tests/test_memo.py::test_sets_are_collected_only_for_reused_successes"),
    ),
    Mutant(  # head selection never enters a bracket, so no head rotates out of one
        "no-rotation",
        "src/minpl/prover.py",
        "elif not goal.fv & item.bound:",
        "elif False:",
        (f"{ROTATION}::test_rotation_witness_is_decided_true[formula]",
         f"{ROTATION}::test_rotation_witness_is_decided_true[type]",
         "tests/test_golden_traces.py::test_golden_traces_reproduced"),
    ),
    Mutant(  # an atomic sequent stays on the branch after its frame, so its siblings see it
        "branch-entry-not-popped",
        "src/minpl/prover.py",
        "seen.popitem()  # seq, the last entry: each sub-search popped its own",
        "pass",
        ("tests/test_prover.py::test_qbf_encodings_are_decided_as_brute_force_evaluates_them",
         "tests/test_memo.py::test_memoised_search_matches_plain_search",
         "tests/test_prover.py::test_search_leaves_the_callers_seen_set_unchanged"),
    ),
    Mutant(  # a wrong "no" once the branch holds 3 atomic sequents; no metamorphic relation sees it
        "branch-cap",
        "src/minpl/prover.py",
        "        outer_low = self.low\n",
        "        outer_low = self.low\n        if len(seen) > 2:\n            return None\n",
        ("tests/test_prover.py::test_derivable_reported_true[((((P -> Q) -> P) -> P) -> Q) -> Q]",
         "tests/test_systemf.py::test_inhabited_reported_true[forall X. forall Y. forall Z. "
         "(((((Y -> X) -> Z) -> ((Y -> Z) -> Z)) -> X) -> X)]",
         "tests/test_prover.py::test_qbf_encodings_are_decided_as_brute_force_evaluates_them"),
    ),
)


def _pytest(cwd: str, *args: str) -> tuple[int, str]:
    """Run pytest in ``cwd`` on the package there; its status and the first test it failed."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *args]
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or lines or [""])[0 if failed else -1]


def run(mutant: Mutant) -> bool:
    """Apply ``mutant`` to a copy of ``HEAD`` and report whether the tests kill it."""
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        target = Path(tmp, mutant.path)
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            print(f"{mutant.name}: does not apply, its text occurs {text.count(mutant.old)} times")
            return False
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        tier1 = ("--continue-on-collection-errors",)
        for args, where in ((mutant.kills, "listed"), (tier1, "tier-1")):
            status, first = _pytest(tmp, *args)
            if status == 1:
                print(f"{mutant.name}: killed by the {where} tests: {first}")
                return True
            if status != 0:
                print(f"{mutant.name}: the {where} tests did not run (status {status}): {first}")
                return False
    print(f"{mutant.name}: SURVIVED")
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="mutants to run (default all)")
    config = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in config.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant {', '.join(unknown)}; known: {', '.join(by_name)}")
    results = [run(by_name[name]) for name in config.names or by_name]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
