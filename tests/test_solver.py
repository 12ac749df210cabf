from fractions import Fraction
from itertools import product

import pytest

from negabeta import (
    EvPeriodic,
    SolveError,
    SpecError,
    alt_compare,
    approximate_simple_numbers,
    beta_from_expansion,
    canonicalize_expansion_candidate,
    count_words,
    evaluate,
    is_valid_expansion_of_one,
    make_beta,
    periodic_approximants,
    pi_of_one,
    value_equation_poly,
)
from negabeta.measure import algebraic_equal

E = EvPeriodic


def test_value_equation_poly():
    # (32)^inf clears to beta^2 - 3 beta + 1
    assert value_equation_poly(E((), (3, 2))) == (1, -3, 1)
    # (3)^inf clears to beta - 2
    assert value_equation_poly(E((), (3,))) == (-2, 1)


def test_beta_from_expansion_examples(phi2):
    b = beta_from_expansion(E((), (3, 2)))
    assert algebraic_equal(b.beta_point(), phi2.beta_point())
    assert beta_from_expansion(E((), (3,))).decimal_str(6) == "2"
    b = beta_from_expansion(E((), (2, 1, 2)))
    assert b.decimal_str(10) == "1.7548776662"
    bp = b.beta_point()
    assert (bp**3 - 2 * bp**2 + bp - 1).is_zero()


def test_beta_from_expansion_certifies(phi):
    for text in ("|32", "|212", "|2112", "|2122", "2|1", "211|2"):
        target = E.parse(text)
        beta = beta_from_expansion(target)
        check = pi_of_one(beta, budget=64)
        assert check.sequence == target
        assert (evaluate(target, beta) - 1).is_zero()


def test_beta_from_expansion_rejects_invalid():
    with pytest.raises(SpecError):
        beta_from_expansion(E((), (2, 1)))


# every valid sequence of the {1,2,3} shift universe at cap 6 (total length
# <= 6) whose value equation has two roots above 1, with the base it solves to
TWO_ROOT_TARGETS = {
    "3|1121": "poly:[1,-3,1,-1,1,2]@(2.5,4)",
    "3|1132": "poly:[1,-3,1,-1,2,1]@(2.5,4)",
    "3|1231": "poly:[1,-3,1,-2,2,2]@(2.5,4)",
    "3|2111": "poly:[1,-3,2,-1,0,2]@(1.75,2.5)",
    "3|2122": "poly:[1,-3,2,-1,1,1]@(1.75,2.5)",
    "3|2221": "poly:[1,-3,2,-2,1,2]@(1.75,2.5)",
    "|311213": "poly:[1,-3,1,-1,2,-1,2]@(2.5,4)",
    "|311323": "poly:[1,-3,1,-1,3,-2,2]@(2.5,4)",
    "|321113": "poly:[1,-3,2,-1,1,-1,2]@(1.75,2.5)",
    "|321212": "poly:[1,-3,2,-1,2,-1,1]@(1.75,2.5)",
    "|321223": "poly:[1,-3,2,-1,2,-2,2]@(1.75,2.5)",
    "|322213": "poly:[1,-3,2,-2,2,-1,2]@(1.75,2.5)",
}


def test_beta_from_expansion_multi_root_targets():
    """Targets whose value equation has two roots above 1: the solver takes
    the root that re-expands to the target, and the other root does not,
    since the expansion of 1 determines the base."""
    from negabeta.numerics import Beta
    from negabeta.solver import _roots_above_one

    for text, spec in TWO_ROOT_TARGETS.items():
        target = E.parse(text)
        g, _chain, intervals = _roots_above_one(value_equation_poly(target))
        assert len(intervals) == 2
        beta = beta_from_expansion(target)
        assert beta.spec_string() == spec
        assert pi_of_one(beta).sequence == target
        others = [Beta.root_above_one(g, *iv) for iv in intervals]
        others = [b for b in others if b.spec_string() != spec]
        assert len(others) == 1, text
        pi = pi_of_one(others[0], budget=target.tail_count() + 16)
        assert not (pi.resolved and pi.sequence == target), text


def test_solved_roots_carry_their_sturm_chain(count_calls):
    """The chain _roots_above_one isolates with travels into the base:
    root_above_one and from_poly given it build no chain of their own, and
    a Beta equal to the one built without it, with the same squarefree part
    and Sturm chain; also for a repeated factor, and for a polynomial with
    a root at zero, which from_poly keeps with its chain."""
    from negabeta import polys
    from negabeta.numerics import Beta
    from negabeta.solver import _roots_above_one

    words = (*TWO_ROOT_TARGETS, "|212", "2|1", "|2112", "|2122", "|323", "21|2", "211|2",
             "|311133", "|32")
    gs = [value_equation_poly(E.parse(w)) for w in words]
    golden_sq, plastic = (1, 2, -1, -2, 1), (-1, -1, 0, 1)  # (x^2 - x - 1)^2, x^3 - x - 1
    gs.append(tuple(sum(golden_sq[i] * plastic[k - i] for i in range(len(golden_sq))
                        if 0 <= k - i < len(plastic)) for k in range(8)))
    calls = count_calls(polys, "sturm_chain")
    for g0 in gs:
        g, chain, intervals = _roots_above_one(g0)
        assert intervals and chain == polys.sturm_chain(g)
        for lo, hi in intervals:
            calls.clear()
            with_chain = Beta.root_above_one(g, lo, hi, chain)
            via_poly = Beta.from_poly(with_chain.coeffs, *with_chain.iso, chain)
            assert not calls
            without = Beta.root_above_one(g, lo, hi)
            for beta in (with_chain, via_poly):
                assert beta == without
                assert (beta.sf_poly, beta.sturm) == (without.sf_poly, without.sturm)
    assert len(gs[-1]) == 8 and len(_roots_above_one(gs[-1])[2]) == 2
    times_x = (0,) + plastic
    chain = polys.sturm_chain(times_x)
    calls.clear()
    beta = Beta.from_poly(tuple(reversed(times_x)), Fraction(6, 5), Fraction(7, 5), chain)
    assert not calls and beta.poly == times_x and beta.sturm is chain

def test_beta_from_expansion_without_validity_test_rejects_by_re_expansion():
    """(21)^inf is not an expansion of 1; skipping the validity test, no
    root of its value equation re-expands to it."""
    with pytest.raises(SolveError):
        beta_from_expansion(E((), (2, 1)), require_valid=False)


def test_canonicalize():
    assert canonicalize_expansion_candidate(E((), (2, 1, 1, 1))) == E((), (2, 1, 2))
    assert canonicalize_expansion_candidate(E((), (2, 1))) == E((), (3,))
    assert canonicalize_expansion_candidate(E((), (3, 2))) == E((), (3, 2))
    assert canonicalize_expansion_candidate(E((), (2, 1, 2, 1, 1))) == E((), (2, 1, 2, 2))
    # partners share the defining root: both evaluate to 1 at the same base
    beta = beta_from_expansion(E((), (2, 1, 2)))
    assert (evaluate(E((), (2, 1, 1, 1)), beta) - 1).is_zero()


def test_canonicalize_rejects_hopeless_candidates():
    with pytest.raises(SolveError):
        canonicalize_expansion_candidate(E((), (2,)))   # below the boundary word
    with pytest.raises(SolveError):
        canonicalize_expansion_candidate(E((), (1, 2)))  # not self-admissible


def test_periodic_approximants_prefix_power_family(phi):
    pi1 = pi_of_one(phi).sequence
    plan = periodic_approximants(pi1, 5)
    words = [str(c) for c in plan.candidates]
    assert words == ["|2", "|21", "|211", "|2111", "|21111"]
    assert set(plan.case_tags) == {"finitely-many-max"}
    assert plan.sides == ("below", "above", "below", "above", "below")


def test_periodic_approximants_overlap_family():
    base = make_beta("poly:[1,-1,-1,-1,-1]@(1.9,2.0)")
    pi1 = pi_of_one(base).sequence
    assert str(pi1) == "212|1"
    plan = periodic_approximants(pi1, 4)
    assert [str(c) for c in plan.candidates] == \
        ["|21211", "|212111", "|2121111", "|21211111"]

    pi2 = E((2, 1, 2, 1, 2, 2, 1, 1), (2, 1, 2, 1, 2, 2, 1, 2))
    plan = periodic_approximants(pi2, 6)
    words = {str(c) for c in plan.candidates}
    # the block-overlap members with one and two period copies both appear
    assert "|2121221121212212" in words
    assert "|212122112121221221212212" in words
    for cand in plan.candidates:
        from negabeta import is_self_admissible
        assert is_self_admissible(cand).result


def test_periodic_approximants_needs_input():
    with pytest.raises(SpecError):
        periodic_approximants(None, 3)
    with pytest.raises(SpecError):
        periodic_approximants(E((), (3, 2)), 3)   # already simple


def test_prefix_too_short():
    from negabeta.errors import PrefixTooShort

    with pytest.raises(PrefixTooShort):
        periodic_approximants(None, 6, prefix=(2, 1, 1, 1))


def test_approximate_simple_numbers_golden(phi):
    results = approximate_simple_numbers(phi, 8)
    by_word = {str(r.candidate): r for r in results}
    r = by_word["|2111"]
    assert r.beta_n.decimal_str(6) == "1.754877"
    assert abs(float(r.gap) - 0.1368) < 1e-2
    assert r.simple_certified and str(r.canonical) == "|212"
    # a candidate below the boundary word has no base above 1
    assert by_word["|2"].beta_n is None
    # every resolved entry is certified simple after canonicalization
    for r in results:
        if r.beta_n is not None:
            assert r.simple_certified


def test_gap_is_within_two_to_the_minus_100(plastic):
    """The gap of each approximant is |beta - beta_n| to within 2^-100 (a
    50-digit sympy oracle), and the same on a fresh base as after the base
    was refined to 10^-60."""
    import sympy

    def root(beta):
        x = sympy.Symbol("x")
        lo, hi = (sympy.Rational(e) for e in beta.iso)
        return next(r for r in sympy.Poly(beta.coeffs, x).real_roots() if lo < r < hi)

    spec = plastic.spec_string()
    fresh = approximate_simple_numbers(make_beta(spec), 6)
    refined_beta = make_beta(spec)
    refined_beta.refine(Fraction(1, 10**60))
    refined = approximate_simple_numbers(refined_beta, 6)
    assert [r.gap for r in fresh] == [r.gap for r in refined]
    target = root(plastic)
    solved = [r for r in fresh if r.beta_n is not None]
    assert solved
    for r in solved:
        exact = abs(target - root(r.beta_n)).evalf(50)
        assert abs(sympy.Rational(r.gap) - exact) <= sympy.Rational(1, 2**100)


def test_sides_match_actual_positions(phi, plastic):
    for beta in (phi, plastic):
        width = Fraction(1, 10**30)
        lo, hi = beta.refine(width)
        mid = (lo + hi) / 2
        for r in approximate_simple_numbers(beta, 8):
            if r.beta_n is None:
                continue
            nlo, nhi = r.beta_n.refine(width)
            nmid = (nlo + nhi) / 2
            if r.side == "below":
                assert nmid < mid
            else:
                assert nmid > mid


def test_already_simple_base(phi2):
    results = approximate_simple_numbers(phi2, 4)
    assert len(results) == 1
    assert results[0].gap == 0 and results[0].simple_certified


def test_word_counts_agree_for_close_bases(phi):
    """A certified approximant's shift shares small word counts with the target's."""
    results = approximate_simple_numbers(phi, 8)
    target_counts = count_words(pi_of_one(phi).sequence, 6)
    best = [r for r in results if r.beta_n is not None][-1]
    approx_counts = count_words(best.canonical, 6)
    agree = len(best.candidate.period) - 2
    assert target_counts[: min(6, agree)] == approx_counts[: min(6, agree)]


def _primitive(word):
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and word[:d] * (n // d) == word:
            return False
    return True


def test_monotone_correspondence():
    """Valid expansions of 1 order exactly like their bases."""
    targets = []
    for plen in (1, 2, 3, 4):
        for per in product((1, 2, 3), repeat=plen):
            if not _primitive(per):
                continue
            seq = E((), per)
            if is_valid_expansion_of_one(seq).valid and seq not in targets:
                targets.append(seq)
    assert len(targets) >= 15
    width = Fraction(1, 10**25)
    solved = []
    for seq in targets:
        beta = beta_from_expansion(seq)
        lo, hi = beta.refine(width)
        solved.append((seq, (lo + hi) / 2))
    for i in range(len(solved)):
        for j in range(i + 1, len(solved)):
            (s1, m1), (s2, m2) = solved[i], solved[j]
            c = alt_compare(s1, s2).result
            assert c != 0
            assert (m1 < m2) == (c < 0)
