import json
import math
import random
from fractions import Fraction

import pytest

from negabeta import (
    EvPeriodic,
    PowerIterationError,
    SpecError,
    automaton_entropy,
    beta_from_expansion,
    brute_force_words,
    build_sft,
    count_words,
    entropy_estimate,
    expand,
    tail_bounds,
    word_in_shift,
)
from negabeta.shiftspace import SftAutomaton

E = EvPeriodic

GOLDEN_SQ = E((), (3, 2))
BASE_212 = E((), (2, 1, 2))
BASE_3 = E((), (3,))
PHI_PI = E((2,), (1,))


def test_tail_bounds():
    tb = tail_bounds(GOLDEN_SQ)
    assert tb.lower == E((1,), (3, 2)) and tb.upper == GOLDEN_SQ
    assert tb.lower_strict and not tb.upper_strict
    tb = tail_bounds(BASE_212)
    assert tb.lower == E((), (1, 2, 1, 1))
    tb = tail_bounds(PHI_PI)
    assert tb.lower == E((1, 2), (1,))


def test_build_sft_flags():
    assert build_sft(GOLDEN_SQ).sft
    assert not build_sft(PHI_PI).sft


def test_counts_match_brute_force():
    for pi1 in (GOLDEN_SQ, BASE_212, BASE_3, PHI_PI):
        assert count_words(pi1, 9) == brute_force_words(pi1, 9)


def test_counts_basic_and_monotone():
    assert count_words(GOLDEN_SQ, 1) == [3]
    assert count_words(PHI_PI, 1) == [2]
    for pi1 in (GOLDEN_SQ, BASE_212, PHI_PI):
        counts = count_words(pi1, 10)
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_word_in_shift_against_genuine_expansions(phi, phi2):
    # (3)^inf is the expansion of 3/(phi^2+1): the word 33 does occur
    b2 = phi2.beta_point()
    assert expand(phi2, 3 * (b2 + 1).inverse(), 4) == (3, 3, 3, 3)
    assert word_in_shift(GOLDEN_SQ, (3, 3))
    # likewise 22 in the golden shift
    b = phi.beta_point()
    assert expand(phi, 2 * (b + 1).inverse(), 4) == (2, 2, 2, 2)
    assert word_in_shift(PHI_PI, (2, 2))
    # a run past the expansion of 1 is forbidden
    assert not word_in_shift(PHI_PI, (2, 1, 1, 1, 2))
    assert word_in_shift(GOLDEN_SQ, (1,))
    assert not word_in_shift(GOLDEN_SQ, (4,))


def test_subword_closure():
    rng = random.Random(13)
    aut = build_sft(BASE_212)
    full = frozenset(range(aut.n_states))
    for _ in range(200):
        w = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 8)))
        if word_in_shift(BASE_212, w):
            for i in range(len(w)):
                for j in range(i + 1, len(w) + 1):
                    assert word_in_shift(BASE_212, w[i:j])


def _perron_log_oracle(aut: SftAutomaton) -> tuple[float, float]:
    """Exact characteristic-polynomial bracket for the log of the spectral
    radius: sympy's isolating interval, narrower than 1e-10, of the largest
    real root (the Perron root of the nonnegative transition matrix)."""
    import sympy

    m = sympy.zeros(aut.n_states, aut.n_states)
    for (s, _c), t in aut.transitions.items():
        m[s, t] += 1
    ivs = m.charpoly().intervals(eps=sympy.Rational(1, 10**10))
    assert ivs and ivs[-1][0][0] > 0, "no positive dominant root found"
    lo, hi = ivs[-1][0]
    return math.log(lo), math.log(hi)


@pytest.mark.parametrize("pi1,logbeta", [
    (GOLDEN_SQ, math.log((3 + 5**0.5) / 2)),
    (BASE_3, math.log(2.0)),
])
def test_automaton_entropy_known_values(pi1, logbeta):
    h = automaton_entropy(build_sft(pi1))
    assert abs(h - logbeta) < 1e-6


def test_automaton_entropy_against_charpoly_oracle():
    for pi1 in (GOLDEN_SQ, BASE_212, BASE_3):
        aut = build_sft(pi1)
        h = automaton_entropy(aut)
        lo, hi = _perron_log_oracle(aut)
        assert lo - 1e-6 <= h <= hi + 1e-6


def test_single_loop_has_zero_entropy():
    aut = SftAutomaton(n_states=1, start=0, transitions={(0, 1): 0},
                       alphabet_max=1, sft=True)
    assert abs(automaton_entropy(aut)) < 1e-12


def test_one_state_with_two_loops_has_entropy_log_two():
    aut = SftAutomaton(n_states=1, start=0, transitions={(0, 1): 0, (0, 2): 0},
                       alphabet_max=2, sft=True)
    assert abs(automaton_entropy(aut) - math.log(2.0)) < 1e-12


def test_slow_convergence_rescales_iterates():
    """A two-loop state beside a disjoint 5-bonacci cycle (radius 1.966):
    the iteration needs more than 400 steps, so the iterates pass 2^600 and
    are rescaled, and the entropy is still log 2."""
    tr = {(i, 1): 0 for i in range(5)}
    tr.update({(i, 2): i + 1 for i in range(4)})
    tr.update({(5, 1): 5, (5, 2): 5})
    aut = SftAutomaton(n_states=6, start=0, transitions=tr, alphabet_max=2, sft=True)
    with pytest.raises(PowerIterationError):
        automaton_entropy(aut, max_iter=400)
    assert abs(automaton_entropy(aut) - math.log(2.0)) < 1e-9


@pytest.mark.xfail(
    strict=True, raises=PowerIterationError,
    reason="two strongly connected components of spectral radius 2, one feeding "
           "the other, form a Jordan block, so power iteration converges like 1/k "
           "and stops at max_iter; ROADMAP D's per-SCC Collatz-Wielandt bracket "
           "would decide it",
)
def test_equal_radius_components_have_entropy_log_two():
    aut = SftAutomaton(n_states=2, start=0,
                       transitions={(0, 1): 0, (0, 2): 0, (0, 3): 1, (1, 1): 1, (1, 2): 1},
                       alphabet_max=3, sft=False)
    assert abs(automaton_entropy(aut) - math.log(2.0)) < 1e-9


def test_dead_end_automaton_raises():
    # state 1 has no outgoing edge, so the count matrix is nilpotent
    aut = SftAutomaton(n_states=2, start=0, transitions={(0, 1): 1},
                       alphabet_max=2, sft=True)
    with pytest.raises(SpecError):
        automaton_entropy(aut)


def test_automaton_entropy_is_log_beta(small_shift_universe):
    """h = log beta for the shift of a simple base (Ito & Sadahiro), on
    every purely periodic valid sequence of the cap-5 universe."""
    from negabeta import is_valid_expansion_of_one

    simple = [s for s in small_shift_universe
              if s.is_purely_periodic and is_valid_expansion_of_one(s).valid]
    assert len(simple) == 51
    for pi1 in simple:
        lo, hi = beta_from_expansion(pi1).refine(Fraction(1, 10**14))
        log_beta = math.log(float((lo + hi) / 2))
        assert abs(automaton_entropy(build_sft(pi1)) - log_beta) <= 1e-8, pi1


def test_entropy_estimates():
    est = entropy_estimate(GOLDEN_SQ, 18)
    assert abs(est.estimate - math.log((3 + 5**0.5) / 2)) < 0.08
    est = entropy_estimate(PHI_PI, 18)
    assert abs(est.estimate - math.log((1 + 5**0.5) / 2)) < 0.08
    est = entropy_estimate(BASE_3, 10)
    assert abs(est.estimate - math.log(2.0)) < 0.12
    assert est.upper_bound >= math.log(2.0) - 1e-12


def test_entropy_monotone_with_base():
    h212 = automaton_entropy(build_sft(BASE_212))
    h32 = automaton_entropy(build_sft(GOLDEN_SQ))
    assert h212 < h32  # 1.7549 < 2.618


def test_exports():
    aut = build_sft(GOLDEN_SQ)
    dot = aut.to_dot()
    assert dot.startswith("digraph") and 'label="3"' in dot
    blob = json.dumps(aut.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["sft"] is True
    assert len(data["edges"]) == len(aut.transitions)


def test_bitmask_counts_equal_brute_force_on_small_universe(small_shift_universe):
    # n = 8 keeps the enumeration near 1 s: at n = 10 the 91 valid
    # sequences have 3.5 million legal words between them
    from negabeta import is_valid_expansion_of_one

    valid = [s for s in small_shift_universe if is_valid_expansion_of_one(s).valid]
    assert len(valid) == 91
    for pi1 in valid:
        assert count_words(pi1, 8) == brute_force_words(pi1, 8), pi1
