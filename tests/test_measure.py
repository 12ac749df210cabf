import random
from fractions import Fraction

import pytest

from negabeta import (
    OrbitUnresolved,
    densities_coincide,
    density,
    density_at,
    limits,
    make_beta,
    measure_interval,
    normalization,
)
from negabeta.errors import PrecisionExhausted
from negabeta.measure import algebraic_equal, check_invariance
from negabeta.numerics import point_decimal_str


def test_density_golden(phi):
    d = density(phi)
    b = phi.beta_point()
    assert len(d.breakpoints) == 3
    assert (d.breakpoints[1] - (2 - b)).is_zero()
    # value on the low interval is beta/(beta+1); on the top it is 1
    assert (d.values[0] - b * (b + 1).inverse()).is_zero()
    assert (d.values[1] - 1).is_zero()
    assert point_decimal_str(d.K, 10) == "0.8541019662"


def test_density_golden_square(phi2):
    d = density(phi2)
    b = phi2.beta_point()
    assert (d.K - 1).is_zero()
    assert (d.values[0] - b * (b + 1).inverse()).is_zero()
    assert (d.values[1] - b * b * (b * b - 1).inverse()).is_zero()


def test_density_tribonacci(tribonacci):
    d = density(tribonacci)
    b = tribonacci.beta_point()
    assert len(d.breakpoints) == 4
    assert (d.breakpoints[1] - (b ** 3).inverse()).is_zero()
    assert (d.breakpoints[2] - (1 - (b * b).inverse())).is_zero()
    assert (normalization(tribonacci) - d.K).is_zero()


def test_density_integer_like():
    d = density(make_beta("dec:2"))
    assert d.breakpoints == (Fraction(0), Fraction(1))
    assert d.values == (Fraction(2, 3),)
    assert d.K == Fraction(2, 3)
    assert normalization(make_beta("dec:2")) == Fraction(2, 3)


def test_density_unresolved():
    with pytest.raises(OrbitUnresolved):
        density(make_beta("dec:2.5"), budget=300)


def test_density_at_examples(phi, phi2):
    b = phi.beta_point()
    assert (density_at(phi, Fraction(9, 10)) - 1).is_zero()
    assert (density_at(phi, Fraction(1, 10)) - b * (b + 1).inverse()).is_zero()
    b2 = phi2.beta_point()
    assert (density_at(phi2, Fraction(1, 10)) - b2 * (b2 + 1).inverse()).is_zero()


def test_density_at_matches_density(phi, phi2, tribonacci):
    rng = random.Random(31)
    for beta in (phi, phi2, tribonacci):
        d = density(beta)
        hits = 0
        while hits < 34:
            x = Fraction(rng.randint(1, 9999), 10000)
            if any((bp - x).is_zero() for bp in d.breakpoints[1:-1]):
                continue
            assert (density_at(beta, x) - d.value_at(x)).is_zero()
            hits += 1


def test_density_at_decimal_next_to_an_orbit_point():
    """dec:2.5 is the rational 5/2, so x = 1/2 + 2^-40, a hair above the
    orbit point T(1) = 1/2, is ordered exactly against every orbit point.
    The orbit of 1 does not resolve, so the value is the partial sum of the
    weights (-2/5)^n over the first N orbit points at or above x."""
    beta, tol = Fraction(5, 2), Fraction(1, 10**12)
    x = Fraction(1, 2) + Fraction(1, 2**40)
    # N: the least count whose geometric tail (2/5)^N / (3/5) is below tol, plus 2
    n = next(n for n in range(1, 100) if Fraction(2, 5) ** n / Fraction(3, 5) < tol) + 2
    pt, weight, expected = Fraction(1), Fraction(1), Fraction(0)
    for _ in range(n):
        if pt >= x:
            expected += weight
        y = beta * pt
        pt, weight = y.numerator // y.denominator + 1 - y, weight * Fraction(-2, 5)
    d = make_beta("dec:2.5")
    assert density_at(d, x) == expected
    # at x = 1/2 the orbit point 1/2 adds its weight -2/5
    assert density_at(d, Fraction(1, 2)) == expected - Fraction(2, 5)


def test_measure_interval(phi, phi2):
    d = density(phi)
    b = phi.beta_point()
    m = measure_interval(d, 0, 2 - b)
    # exact simplification: the mass of the low interval is 1/(phi+2)
    assert (m * (b + 2) - 1).is_zero()
    assert point_decimal_str(m, 7) == "0.2763932"
    d2 = density(phi2)
    b2 = phi2.beta_point()
    m2 = measure_interval(d2, 0, 3 - b2)
    assert algebraic_equal(m, m2)
    assert (measure_interval(d, 0, 1) - 1).is_zero()


def test_limits(phi, phi2):
    b = phi.beta_point()
    L = limits(phi)
    assert (L.at_zero - b * (b + 1).inverse()).is_zero()
    assert (L.at_one - 1).is_zero()
    b2 = phi2.beta_point()
    L2 = limits(phi2)
    b4 = b2 ** 2
    assert (L2.at_one - b4 * (b4 - 1).inverse()).is_zero()
    assert point_decimal_str(L2.at_one, 7) == "1.1708203"
    Ld = limits(make_beta("dec:2"))
    assert Ld.at_zero == Fraction(2, 3) and Ld.at_one == Fraction(2, 3)
    Lt = limits(make_beta("dec:2.5"), budget=200)
    assert Lt.at_one is None


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_quadratic_pairs_coincide(p, q):
    b1 = make_beta(f"pisot2:p={p},q={q}")
    report = densities_coincide(b1, b1.plus_one())
    assert report.verdict == "Coincide"
    assert report.predicted is True


def test_non_pairs_differ(phi, tribonacci):
    report = densities_coincide(phi, tribonacci)
    assert report.verdict == "Differ"
    assert report.predicted is False
    report = densities_coincide(phi, make_beta("dec:2.5"), budget=300)
    assert report.verdict == "Unresolved"


def test_same_base_rejected(phi):
    from negabeta import SpecError

    with pytest.raises(SpecError):
        densities_coincide(phi, make_beta("pisot2:p=1,q=1"))


def test_invariance(phi, phi2, tribonacci, plastic):
    for beta in (phi, phi2, tribonacci, plastic, make_beta("pisot2:p=2,q=3")):
        assert check_invariance(density(beta))


def test_invariance_on_random_intervals(phi, phi2, tribonacci):
    """Mass of (a, b] equals the mass of its full preimage, branch by branch."""
    rng = random.Random(271828)
    for beta in (phi, phi2, tribonacci):
        d = density(beta)
        binv = 1 / beta.beta_point()
        for _ in range(10):
            a = Fraction(rng.randint(0, 9998), 10000)
            b = Fraction(rng.randint(1, 9999), 10000)
            if a >= b:
                a, b = b, a + Fraction(1, 10000)
            direct = d.integral_raw(a, b)
            pieces = []
            for dig in range(1, beta.alphabet_max + 1):
                lo, hi = max((dig - b) * binv, 0), min((dig - a) * binv, 1)
                if hi > lo:
                    pieces.append(d.integral_raw(lo, hi))
            assert pieces
            assert direct == sum(pieces)


def test_algebraic_equal_rational_points_and_level_cap(monkeypatch):
    """Equal rationals in two fields have one-point enclosures (no Sturm
    count can isolate them); widening past the level cap is unresolved."""
    from negabeta import numerics

    golden, tribonacci = make_beta("pisot2:p=1,q=1"), make_beta("multinacci:q=1,m=3")
    third = Fraction(1, 3)
    assert algebraic_equal(golden.point_from_rational(third),
                           tribonacci.point_from_rational(third))
    assert not algebraic_equal(golden.point_from_rational(third),
                               tribonacci.point_from_rational(Fraction(1, 2)))
    other = make_beta("poly:[1,-1,-1]@(1.6,1.7)")
    assert algebraic_equal(golden.beta_point(), other.beta_point())
    monkeypatch.setattr(numerics, "MAX_REFINE_LEVEL", 2)
    with pytest.raises(PrecisionExhausted, match="level cap"):
        algebraic_equal(make_beta("pisot2:p=1,q=1").beta_point(),
                        make_beta("poly:[1,-1,-1]@(1.6,1.7)").beta_point())


def test_algebraic_equal_cross_field(phi, phi2):
    b, b2 = phi.beta_point(), phi2.beta_point()
    assert algebraic_equal(b + 1, b2)
    assert not algebraic_equal(b, b2)
    assert algebraic_equal(Fraction(1, 2), Fraction(1, 2))
    assert algebraic_equal(2 - b, 3 - b2)
