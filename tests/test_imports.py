"""The package's public surface, and which modules a fresh process loads.

``import negabeta`` loads the word half (``errors``, ``order``,
``shiftspace``) and resolves the arithmetic half on first use; the CLI
imports a verb's modules when the verb runs.  No part of the package
loads ``dataclasses`` (which imports ``inspect``), and the word half loads
no ``fractions`` (which imports ``decimal``).  The module sets are read
from ``sys.modules`` of fresh interpreters.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import negabeta

# every public name of the package, by the module it comes from
PUBLIC = {
    "errors": ("CanonicalizationCycle", "NegabetaError", "OrbitUnresolved", "PowerIterationError",
               "PrecisionExhausted", "PrefixTooShort", "SolveError", "SpecError"),
    "numerics": ("Beta", "FieldPoint", "floor_beta_times", "make_beta"),
    "expansion": ("DEFAULT_BUDGET", "EvPeriodic", "OrbitRecord", "PiOfOne", "evaluate", "expand",
                  "orbit_of_one", "pi_of_one", "step", "truncation_bound"),
    "order": ("AltOrdering", "ValidityReport", "alt_compare", "is_admissible",
              "is_self_admissible", "is_valid_expansion_of_one", "limit_word_prefix",
              "rho_distance", "star_zero"),
    "shiftspace": ("SftAutomaton", "automaton_entropy", "brute_force_words", "build_sft",
                   "count_words", "entropy_estimate", "tail_bounds", "word_in_shift"),
    "measure": ("CoincidenceReport", "PiecewiseDensity", "densities_coincide", "density",
                "density_at", "limits", "measure_interval", "normalization"),
    "matching": ("MatchingReport", "matching_time", "multinacci_orbit",
                 "verify_multinacci_matching"),
    "solver": ("ApproximantPlan", "ApproximantResult", "approximate_simple_numbers",
               "beta_from_expansion", "canonicalize_expansion_candidate",
               "periodic_approximants", "value_equation_poly"),
    "polys": (),
}


def test_public_names_are_unchanged():
    """__all__ and the public part of dir() are the 58 exports and the 9
    submodule names, whether or not the arithmetic half is loaded yet
    (dir() also lists cli once it is imported, as it does any submodule)."""
    names = sorted({*PUBLIC, *(n for ns in PUBLIC.values() for n in ns)})
    assert len(names) == 67
    assert negabeta.__all__ == names
    assert [n for n in dir(negabeta) if not n.startswith("_") and n != "cli"] == names


def test_every_name_is_its_module_attribute():
    for module, names in PUBLIC.items():
        mod = getattr(negabeta, module)
        assert mod is sys.modules[f"negabeta.{module}"]
        for name in names:
            assert getattr(negabeta, name) is getattr(mod, name), name


def test_words_live_in_order_and_expansion_re_exports_them():
    assert negabeta.expansion.EvPeriodic is negabeta.order.EvPeriodic is negabeta.EvPeriodic
    assert negabeta.expansion.DigitWord is negabeta.order.DigitWord
    assert negabeta.expansion.DEFAULT_BUDGET is negabeta.order.DEFAULT_BUDGET


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        negabeta.no_such_name  # noqa: B018


def test_lazy_names_are_read_from_their_module_on_every_access(monkeypatch):
    """A rebound module attribute is what the package name resolves to."""
    from negabeta import measure

    def stand_in(*args):
        return "stand-in"

    monkeypatch.setattr(measure, "density", stand_in)
    assert negabeta.density is stand_in
    monkeypatch.undo()
    assert negabeta.density is measure.density is not stand_in


_MODULES_SNIPPET = """
import json, sys
import negabeta
mode, args = sys.argv[1], sys.argv[2:]
if mode == "import":
    assert [n for n in dir(negabeta) if not n.startswith("_")] == negabeta.__all__
elif mode == "make_beta":
    negabeta.numerics.make_beta("multinacci:q=1,m=3")
elif mode == "cross_eq":
    make_beta = negabeta.numerics.make_beta
    assert make_beta("multinacci:q=1,m=3").one() == make_beta("pisot2:p=1,q=1").one()
elif mode == "shiftspace":
    import negabeta.shiftspace
elif mode == "cli":
    from negabeta import cli
    assert cli.run(args) == 0
elif mode == "all":
    from negabeta import cli
    for name in negabeta.__all__:
        getattr(negabeta, name)
print(json.dumps([sorted(m for m in sys.modules if m.startswith("negabeta")),
                  [m for m in ("dataclasses", "inspect", "fractions", "decimal")
                   if m in sys.modules]]))
"""


@functools.cache
def _modules(*argv) -> tuple[set[str], set[str]]:
    """The negabeta submodules, and which of dataclasses, inspect,
    fractions and decimal, are in sys.modules of a fresh interpreter."""
    src = str(Path(negabeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _MODULES_SNIPPET, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, stdlib = json.loads(proc.stdout.splitlines()[-1])
    return {n.removeprefix("negabeta.") for n in names if n != "negabeta"}, set(stdlib)


def _loaded(*argv) -> set[str]:
    """The negabeta submodules in sys.modules of a fresh interpreter."""
    return _modules(*argv)[0]


WORDS = {"errors", "order", "shiftspace"}
ARITHMETIC = {"polys", "numerics"}


def test_import_loads_the_word_half_only():
    assert _loaded("import") == WORDS
    assert _loaded("shiftspace") == WORDS


def test_make_beta_adds_numerics_and_polys_only():
    assert _loaded("make_beta") == WORDS | ARITHMETIC


def test_equality_across_fields_adds_numerics_and_polys_only():
    """The cross-field arm of ``==`` imports nothing above numerics."""
    assert _loaded("cross_eq") == WORDS | ARITHMETIC


WORD_VERBS = [
    ("validate", "--seq", "2|1"),
    ("sft", "--pi1", "|32"),
    ("entropy", "--pi1", "|32", "--n", "8"),
    ("w-word", "--n", "10"),
]
ORBIT = ("orbit", "--beta", "multinacci:q=1,m=3")
# the modes that stay in the word half
WORD_MODES = [("import",), ("shiftspace",), *(("cli", *argv) for argv in WORD_VERBS)]


def _mode_id(mode) -> str:
    return mode[1] if mode[0] == "cli" else mode[0]


@pytest.mark.parametrize("argv", WORD_VERBS, ids=lambda argv: argv[0])
def test_word_verbs_load_no_arithmetic(argv):
    assert _loaded("cli", *argv) == WORDS | {"cli"}


def test_orbit_loads_no_measure_matching_or_solver():
    loaded = _loaded("cli", *ORBIT)
    assert loaded == WORDS | ARITHMETIC | {"expansion", "cli"}


@pytest.mark.parametrize("mode", [*WORD_MODES, ("make_beta",), ("cli", *ORBIT), ("all",)],
                         ids=_mode_id)
def test_no_mode_loads_dataclasses_or_inspect(mode):
    """Records are NamedTuples or plain classes; ``all`` imports every
    module of the package."""
    assert _modules(*mode)[1] & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("mode", WORD_MODES, ids=_mode_id)
def test_word_modes_load_no_fractions_or_decimal(mode):
    assert _modules(*mode)[1] & {"fractions", "decimal"} == set()


def test_make_beta_loads_fractions():
    """The report of watched stdlib modules sees what a mode does load."""
    assert {"fractions", "decimal"} <= _modules("make_beta")[1]
