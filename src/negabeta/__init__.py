"""Exact negative beta-expansions.

Bases beta > 1 act on (0, 1] by x -> -beta*x + floor(beta*x) + 1.  This
package computes digit expansions and orbits exactly, characterizes the
admissible sequences of the induced shift, builds invariant densities and
their coincidence criterion, compiles simple bases to finite automata
with their entropy (power iteration to a residual tolerance), detects
matching of the critical orbits, and solves the inverse problem of
recovering a base from its expansion of 1.

``import negabeta`` loads only the word half: ``errors``, ``order`` and
``shiftspace``, which need no arithmetic in Q(beta).  The arithmetic half
(``polys``, ``numerics``, ``expansion``, ``measure``, ``matching`` and
``solver``) is imported on first use of one of its names, e.g.
``negabeta.make_beta``.  Such a name is looked up in its module on every
access, never copied here, so rebinding the module attribute is seen.
"""

from importlib import import_module as _import_module

from .errors import (
    CanonicalizationCycle,
    NegabetaError,
    OrbitUnresolved,
    PowerIterationError,
    PrecisionExhausted,
    PrefixTooShort,
    SolveError,
    SpecError,
)
from .order import (
    DEFAULT_BUDGET,
    AltOrdering,
    EvPeriodic,
    ValidityReport,
    alt_compare,
    is_admissible,
    is_self_admissible,
    is_valid_expansion_of_one,
    limit_word_prefix,
    rho_distance,
    star_zero,
)
from .shiftspace import (
    SftAutomaton,
    automaton_entropy,
    brute_force_words,
    build_sft,
    count_words,
    entropy_estimate,
    tail_bounds,
    word_in_shift,
)

# module -> the names it exports through the package, loaded on first use
_LAZY_EXPORTS = {
    "polys": (),
    "numerics": ("Beta", "FieldPoint", "floor_beta_times", "make_beta"),
    "expansion": ("OrbitRecord", "PiOfOne", "evaluate", "expand", "orbit_of_one",
                  "pi_of_one", "step", "truncation_bound"),
    "measure": ("CoincidenceReport", "PiecewiseDensity", "densities_coincide", "density",
                "density_at", "limits", "measure_interval", "normalization"),
    "matching": ("MatchingReport", "matching_time", "multinacci_orbit",
                 "verify_multinacci_matching"),
    "solver": ("ApproximantPlan", "ApproximantResult", "approximate_simple_numbers",
               "beta_from_expansion", "canonicalize_expansion_candidate",
               "periodic_approximants", "value_equation_poly"),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _import_module(f"{__name__}.{module}")
    return mod if name == module else getattr(mod, name)


def __dir__() -> list[str]:
    """The public names, loaded or not, and the dunders; the private helpers
    above stay out."""
    return sorted({n for n in globals() if not n.startswith("_") or n.endswith("__")}
                  | _LAZY.keys())
