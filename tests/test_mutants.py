"""The mutant catalogue (``mutants.py``) still applies: each entry's text
occurs exactly once in its file.  Whether the tests kill each mutant is
checked by running ``python tests/mutants.py``, not here."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_exactly_once(mutant):
    text = Path(ROOT, mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1 and mutant.old != mutant.new and mutant.kills
