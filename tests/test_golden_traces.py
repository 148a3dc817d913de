"""Verdicts, statistics, derivations and visit order, pinned to a golden file.

``tests/data/golden_traces.json`` holds, for the published examples and the
first 60 corpus formulas, the verdict, ``stats.visited``, ``stats.max_depth``,
the JSON derivation and a sha256 over the printed visited sequents in visit
order.  Any change to the search, the canonical item order or the printers
shows up here.  Regenerate the file (only for a deliberate change of
behaviour) with ``PYTHONPATH=src:tests python tests/test_golden_traces.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from minpl.prover import derivable, derivation_to_json
from minpl.syntax import parse_formula
from minpl.systemf import inhabited, parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    corpus_formula,
)

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"
CORPUS_PREFIX = 60


def golden_inputs() -> list[tuple[str, str]]:
    inputs = [("formula", text) for text in DERIVABLE_TRUE + DERIVABLE_FALSE]
    inputs += [("type", text) for text in INHABITED_TRUE + INHABITED_FALSE]
    inputs += [("formula", str(corpus_formula(seed))) for seed in range(CORPUS_PREFIX)]
    return inputs


def record(kind: str, text: str) -> dict:
    digest = hashlib.sha256()

    def on_visit(seq) -> None:
        digest.update(str(seq).encode())
        digest.update(b"\n")

    if kind == "formula":
        verdict, stats, derivation = derivable(parse_formula(text), on_visit=on_visit)
    else:
        verdict, stats, derivation = inhabited(parse_type(text), on_visit=on_visit)
    return {
        "kind": kind,
        "input": text,
        "verdict": verdict,
        "visited": stats.visited,
        "max_depth": stats.max_depth,
        "derivation": None if derivation is None else derivation_to_json(derivation),
        "visits_sha256": digest.hexdigest(),
    }


def test_golden_traces_reproduced():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(g["kind"], g["input"]) for g in golden] == golden_inputs()
    for expected in golden:
        assert record(expected["kind"], expected["input"]) == expected, expected["input"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    records = [record(kind, text) for kind, text in golden_inputs()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {GOLDEN}")
