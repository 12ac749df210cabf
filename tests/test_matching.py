import random
from fractions import Fraction

import pytest

from negabeta import (
    SpecError,
    make_beta,
    matching_time,
    multinacci_orbit,
    orbit_of_one,
    pi_of_one,
    verify_multinacci_matching,
)
from negabeta.expansion import step
from negabeta.numerics import Beta


def test_matching_golden(phi):
    rep = matching_time(phi)
    assert rep.matched and rep.matching_time == 2
    assert (rep.fixed_point - (2 - phi.beta_point())).is_zero()


def test_matching_plastic(plastic):
    rep = matching_time(plastic)
    assert rep.matched and rep.matching_time == 4
    b = plastic.beta_point()
    assert (rep.fixed_point - (2 * b * b - 2 * b)).is_zero()
    assert str(pi_of_one(plastic).sequence) == "211|2"


def test_unmatched_golden_square(phi2):
    rep = matching_time(phi2)
    assert rep.matched is False
    assert rep.matching_time is None


def test_matching_unknown_within_budget():
    rep = matching_time(make_beta("dec:2.5"), budget=200)
    assert rep.matched is None


def test_integer_base_matches_immediately():
    rep = matching_time(make_beta("dec:2"))
    assert rep.matched and rep.matching_time == 1


def test_multinacci_orbit_values(phi):
    v = multinacci_orbit(1, 2, 1)
    assert (v - (2 - phi.beta_point())).is_zero()

    trib = make_beta("multinacci:q=1,m=3")
    b = trib.beta_point()
    v = multinacci_orbit(1, 3, 2)
    assert (v - (1 - (b * b).inverse())).is_zero()
    assert (multinacci_orbit(1, 3, 0) - 1).is_zero()
    with pytest.raises(SpecError):
        multinacci_orbit(1, 3, 4)


@pytest.mark.parametrize("q,m", [(1, 2), (1, 3), (2, 2)])
def test_verify_multinacci_examples(q, m):
    check = verify_multinacci_matching(q, m)
    assert check.passed and check.matching_time == m


def _random_cubic_bases(rng, count):
    """Cubic bases x^3 - a x^2 - b x - c with a certified isolating interval."""
    from negabeta import polys

    out = []
    seen = set()
    while len(out) < count:
        a, b, c = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)
        if (a, b, c) in seen or (a, b, c) == (0, 0, 0):
            continue
        seen.add((a, b, c))
        x = Fraction(101, 100)
        if x**3 - a * x**2 - b * x - c == 0:
            continue
        ivs = polys.isolate_roots((-c, -b, -a, 1), x, Fraction(7))
        if len(ivs) != 1 or ivs[0][0] == ivs[0][1]:
            continue
        out.append(Beta.from_poly((1, -a, -b, -c), *ivs[0]))
    return out


def test_matched_iff_orbit_reaches_fixed_point():
    """Both directions of the fixed-point criterion on 50 random bases."""
    rng = random.Random(404)
    betas = []
    for p in range(1, 6):
        for q in range(p, 7):
            betas.append(make_beta(f"pisot2:p={p},q={q}"))
    betas += _random_cubic_bases(rng, 35)
    rng.shuffle(betas)
    resolved = 0
    for beta in betas[:50]:
        rec = orbit_of_one(beta, 500)
        if not rec.resolved:
            # budget exhaustion is no verdict either way
            assert matching_time(beta, 500).matched is None
            continue
        rep = matching_time(beta, 500)
        has_fixed = any((step(beta, x)[1] - x).is_zero() for x in rec.points)
        assert rep.matched == has_fixed
        resolved += 1
    assert resolved >= 25


def test_simple_bases_never_match():
    """A purely periodic expansion of 1 at a non-integer base excludes matching."""
    from negabeta.solver import beta_from_expansion
    from negabeta import EvPeriodic

    for text in ("|32", "|212", "|2112", "|2122", "|323"):
        beta = beta_from_expansion(EvPeriodic.parse(text))
        assert pi_of_one(beta).is_simple
        assert matching_time(beta).matched is False


def test_matched_expansions_end_with_constant_tail(phi, plastic, tribonacci):
    for beta in (phi, plastic, tribonacci, make_beta("multinacci:q=2,m=3")):
        rep = matching_time(beta)
        assert rep.matched
        seq = pi_of_one(beta).sequence
        assert len(seq.period) == 1
