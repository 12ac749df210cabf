"""The mutation harness ``tests/mutants.py`` stays in step with the source:
each entry's text is still there to mutate, without running any mutant."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_text_occurs_once():
    """Every mutant's ``old`` text occurs exactly once in its ``path`` and
    differs from its ``new`` text, and every test it names is defined, so a
    refactor that moves mutated text fails here and not only as an "error"
    of the harness."""
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.old != m.new, m.name
        for node in m.tests:
            path, name = node.split("::")
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node
