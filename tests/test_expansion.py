import math
import random
from fractions import Fraction

import pytest

from negabeta import (
    EvPeriodic,
    SpecError,
    beta_from_expansion,
    evaluate,
    expand,
    make_beta,
    orbit_of_one,
    pi_of_one,
    step,
    truncation_bound,
)


def test_step_examples(phi, phi2):
    d, nxt = step(phi, phi.one())
    assert d == 2
    assert (nxt - (2 - phi.beta_point())).is_zero()
    # beta = phi^2 sends 2-phi back to 1 through an exact integer product
    d, nxt = step(phi2, 3 - phi2.beta_point())
    assert d == 2
    assert (nxt - 1).is_zero()
    d, nxt = step(make_beta("dec:2.5"), Fraction(1))
    assert (d, nxt) == (3, Fraction(1, 2))


STEP_BASES = (
    "dec:1.8", "dec:1.005",                                    # degree 1
    "pisot2:p=1,q=1", "poly:[1,-3,1]@(2.5,3)",                 # quadratic surds
    "multinacci:q=1,m=3", "multinacci:q=1,m=4", "poly:[1,-2,1,-2,1]@(1.5,2)",
    "poly:[4,-7,-3]@(2,3)", "poly:[12,-20,-9,-6]@(2,3)",       # non-monic
    "poly:[2,-5,-1,0]@(2,3)",                                  # f_0 = 0: the full gcd
)


@pytest.mark.parametrize("spec", STEP_BASES)
def test_map_step_is_the_composed_step(spec):
    """The one-pass ``map_step`` gives the digit and the (num, den) of
    ``times_beta()``, then ``math.floor``, then d - y, on every step of
    seeded orbits at budget 200: from 1, and from rationals with a
    denominator divisible by 6, where the step's reduction acts."""
    beta, rng = make_beta(spec), random.Random(spec)
    starts = [beta.one()] + [beta.point_from_rational(Fraction(rng.randint(1, q), q))
                             for q in (6 * rng.randint(1, 150) for _ in range(3))]
    for x in starts:
        for _ in range(200):
            y = x.times_beta()
            want = math.floor(y) + 1
            nxt = want - y
            d, x = x.map_step()
            assert (d, x.num, x.den) == (want, nxt.num, nxt.den)


def test_expand_examples(phi, phi2):
    assert expand(phi, 1, 5) == (2, 1, 1, 1, 1)
    assert expand(phi2, 1, 6) == (3, 2, 3, 2, 3, 2)
    assert expand(make_beta("dec:2.5"), 1, 4) == (3, 2, 2, 1)


def test_expand_rejects_points_outside_domain(phi):
    for x in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(SpecError):
            expand(phi, x, 3)
        with pytest.raises(SpecError):
            expand(make_beta("dec:2.5"), x, 3)


def test_orbit_classifications(phi, phi2, tribonacci):
    rec = orbit_of_one(phi)
    assert (rec.kind, rec.pre_len, rec.period_len) == ("eventually-periodic", 1, 1)
    assert (rec.points[1] - (2 - phi.beta_point())).is_zero()

    rec = orbit_of_one(phi2)
    assert (rec.kind, rec.period_len) == ("periodic", 2)

    rec = orbit_of_one(tribonacci)
    assert (rec.kind, rec.pre_len, rec.period_len) == ("eventually-periodic", 2, 1)
    fixed = 1 - (tribonacci.beta_point() ** 2).inverse()
    assert (rec.points[2] - fixed).is_zero()


def test_orbit_decimal():
    assert orbit_of_one(make_beta("dec:2.5"), 200).kind == "truncated"
    rec = orbit_of_one(make_beta("dec:2"))
    assert (rec.kind, rec.period_len) == ("periodic", 1)


def test_pi_of_one(phi, phi2, plastic):
    p = pi_of_one(phi2)
    assert p.is_simple and str(p.sequence) == "|32"
    p = pi_of_one(phi)
    assert not p.is_simple and str(p.sequence) == "2|1"
    p = pi_of_one(plastic)
    assert not p.is_simple and str(p.sequence) == "211|2"


def test_evaluate_closed_forms(phi, phi2):
    assert (evaluate(EvPeriodic((), (3, 2)), phi2) - 1).is_zero()
    assert (evaluate(EvPeriodic((2,), (1,)), phi) - 1).is_zero()
    assert evaluate(EvPeriodic((), (3,)), make_beta("dec:2")) == 1
    # the solved base's polynomial (x^2-x+1)(x^4-2x^3-2x^2-x+2) is reducible
    target = EvPeriodic.parse("|311133")
    assert (evaluate(target, beta_from_expansion(target)) - 1).is_zero()


def test_partial_sums_converge_to_closed_form(phi):
    """Brute-force prefixes of 2(1)^inf approach 1 within the stated bound."""
    seq = EvPeriodic((2,), (1,))
    prev = None
    for n in (5, 10, 20, 40):
        v = evaluate(seq.prefix(n), phi)
        err = v - 1
        err = err if err >= 0 else -err
        assert truncation_bound(phi, n) >= err
        if prev is not None:
            assert prev > err
        prev = err


def test_round_trip_bound(phi, tribonacci):
    rng = random.Random(3)
    for beta in (phi, tribonacci):
        for _ in range(20):
            x = Fraction(rng.randint(1, 999), 1000)
            w = expand(beta, x, 40)
            assert all(1 <= d <= beta.alphabet_max for d in w)
            err = evaluate(w, beta) - x
            err = err if err >= 0 else -err
            assert truncation_bound(beta, 40) >= err


def test_order_compatibility_sample(phi):
    rng = random.Random(11)
    for _ in range(30):
        a = Fraction(rng.randint(1, 998), 1000)
        b = Fraction(rng.randint(1, 998), 1000)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        wa, wb = expand(phi, a, 64), expand(phi, b, 64)
        assert wa != wb
        k = next(i for i in range(64) if wa[i] != wb[i])
        if (k + 1) % 2 == 1:
            assert wa[k] < wb[k]
        else:
            assert wa[k] > wb[k]


def test_periodic_expansion_evaluates_to_one(phi2):
    pi = pi_of_one(phi2)
    assert (evaluate(pi.sequence, phi2) - 1).is_zero()
    b212 = make_beta("poly:[1,-2,1,-1]@(1.7,1.8)")
    pi = pi_of_one(b212)
    assert pi.is_simple
    assert (evaluate(pi.sequence, b212) - 1).is_zero()


def test_ev_periodic_canonicalization():
    assert EvPeriodic((2, 1), (1,)) == EvPeriodic((2,), (1,))
    assert EvPeriodic((), (3, 2, 3, 2)) == EvPeriodic((), (3, 2))
    s = EvPeriodic((2, 1), (2, 1))
    assert s.preperiod == () and s.period == (2, 1)
    with pytest.raises(SpecError):
        EvPeriodic((1,), ())


def test_ev_periodic_parse_str_round_trip():
    for text in ("2|1", "|32", "211|2", "|2111"):
        assert str(EvPeriodic.parse(text)) == text
    with pytest.raises(SpecError):
        EvPeriodic.parse("21")


def test_digit_and_shift():
    s = EvPeriodic((2, 1, 2), (1,))
    assert s.prefix(6) == (2, 1, 2, 1, 1, 1)
    assert s.shift(2) == EvPeriodic((2,), (1,))
    assert s.shift(5) == EvPeriodic((), (1,))


def test_canonical_points_agree_with_the_position_tests(bench_workloads, monkeypatch, count_calls):
    """With ``field_proved`` forced False every point takes the 2^-80 orbit
    buckets, the position test and the gcd zero test; the orbit records
    (points compared by that ==) and the stdout of orbit, density, match
    and measure-compare are those of the coordinate comparisons: on the
    benchmark bases, the corpus measure-compare argvs, and x^2 - qx - p
    (p <= 8, q <= 6) at budget 400.  With the proof, the orbits of the
    proved bases refine no point for a key and run no gcd zero test."""
    from negabeta import cli, numerics, polys
    from negabeta.numerics import Beta

    bases = [make_beta(s) for s in bench_workloads.CLI_BASES]
    sweep = [Beta.root_above_one((-p, -q, 1), q, q + p).spec_string()
             for q in range(1, 7) for p in range(1, 9)]
    argvs = [(verb, "--beta", b) for verb in ("orbit", "density", "match")
             for b in bench_workloads.CLI_BASES]
    argvs += [a for a in bench_workloads.CLI_HEAVY if a[0] == "measure-compare"]
    argvs += [(verb, flag, b, "--budget", "400") for b in sweep
              for verb, flag in (("orbit", "--beta"), ("density", "--beta"),
                                 ("match", "--beta"), ("measure-compare", "--beta1"))]

    def run_all():
        return [orbit_of_one(b) for b in bases], [bench_workloads.run_cli(cli, a) for a in argvs]

    keys, gcds = count_calls(numerics, "point_scaled_floor"), count_calls(polys, "cofactor_gcd")
    assert all(orbit_of_one(b).resolved for b in bases if b.field_proved)
    assert keys == gcds == {}
    proved = run_all()
    assert sum(b.field_proved for b in bases) == 18
    assert all(code == 0 for code, _out in proved[1][:-48 * 4])
    monkeypatch.setattr(Beta, "field_proved", property(lambda self: False))
    keys.clear()
    gcds.clear()
    recs, outs = run_all()
    assert keys["point_scaled_floor"] > 1000 and gcds["cofactor_gcd"] > 0
    assert outs == proved[1]
    for a, b in zip(recs, proved[0]):
        assert (a.kind, a.pre_len, a.period_len, a.digits, a.budget) == \
            (b.kind, b.pre_len, b.period_len, b.digits, b.budget)
        assert len(a.points) == len(b.points) and all(x == y for x, y in zip(a.points, b.points))
