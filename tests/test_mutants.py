import pathlib

import pytest

from mutants import MUTANTS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hypersteiner"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_text_occurs_once(mutant):
    """Every planted defect of `tests/mutants.py` still finds its text
    exactly once, so the mutation suite cannot go stale when code moves;
    a mutant whose text no longer matches fails here under its name."""
    name, path, text, replacement, tests = mutant
    assert text != replacement and tests
    assert (SRC / path).read_text().count(text) == 1, name
