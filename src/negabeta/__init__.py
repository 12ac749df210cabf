"""Exact negative beta-expansions.

Bases beta > 1 act on (0, 1] by x -> -beta*x + floor(beta*x) + 1.  This
package computes digit expansions and orbits exactly, characterizes the
admissible sequences of the induced shift, builds invariant densities and
their coincidence criterion, compiles simple bases to finite automata
with their entropy (power iteration to a residual tolerance), detects
matching of the critical orbits, and solves the inverse problem of
recovering a base from its expansion of 1.
"""

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
from .numerics import Beta, FieldPoint, floor_beta_times, make_beta
from .expansion import (
    DEFAULT_BUDGET,
    EvPeriodic,
    OrbitRecord,
    PiOfOne,
    evaluate,
    expand,
    orbit_of_one,
    pi_of_one,
    step,
    truncation_bound,
)
from .order import (
    AltOrdering,
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
from .measure import (
    CoincidenceReport,
    PiecewiseDensity,
    densities_coincide,
    density,
    density_at,
    limits,
    measure_interval,
    normalization,
)
from .matching import (
    MatchingReport,
    matching_time,
    multinacci_orbit,
    verify_multinacci_matching,
)
from .solver import (
    ApproximantPlan,
    ApproximantResult,
    approximate_simple_numbers,
    beta_from_expansion,
    canonicalize_expansion_candidate,
    periodic_approximants,
    value_equation_poly,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
