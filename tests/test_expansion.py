import math
import random
from fractions import Fraction
from itertools import islice

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


BALL_BASES = STEP_BASES + (
    "multinacci:q=1,m=60",
    "poly:[1,-2,1,-1]@(1.5,2)",                                # |212: an exact hit every period
)


@pytest.mark.parametrize("spec", BALL_BASES)
def test_ball_digits_equal_exact_digits(spec):
    """Every (d, point) of the orbit driver is the composed exact step:
    ``times_beta()``, then ``math.floor``, then d - y, with (num, den)
    equal, along seeded orbits of 300 steps from 1 and from rationals with
    a denominator divisible by 6, on a base refined first to 2^-100, so
    that on degree 3 and up the ball decides digits, wears out and falls
    back to the exact step.  The ball holds beta and the point when it is
    seeded, and it gives the bucket an enclosure refined for it gives, or
    a neighbour.  At every step the seeded ball, rounded outward to 24
    bits so that its rounding is most of its width, gives the exact digit
    whenever it decides, and a next ball that meets the next point's
    enclosure, as a ball that holds the point must."""
    from negabeta import expansion

    beta, rng = make_beta(spec), random.Random(spec)
    beta.refine(Fraction(1, 2**100))
    starts = [beta.one()] + [beta.point_from_rational(Fraction(rng.randint(1, q), q))
                             for q in (6 * rng.randint(1, 150) for _ in range(3))]
    balls = coarse = 0
    for x in starts:
        ball = []
        for i, (d, got) in enumerate(islice(expansion._orbit(x, ball), 300)):
            y = x.times_beta()
            want = math.floor(y) + 1
            if beta.degree > 2:
                bl, bh, lo, hi, P = expansion._seed(beta, x)
                s = P - 24
                step24 = expansion._ball_step(bl >> s, -(-bh >> s), lo >> s, -(-hi >> s), 24)
            x = want - y
            assert (d, got.num, got.den) == (want, x.num, x.den)
            if beta.degree > 2 and step24:
                coarse += 1
                _, _, lo, hi, P = expansion._seed(beta, x)  # x in [lo, hi] / 2^P
                s = P - 24
                assert step24[0] == want and step24[1] << s <= hi and lo <= step24[2] << s
            balls += bool(ball)
            if ball and i % 50 == 0:
                assert abs(expansion._bucket(x, ball) - expansion._bucket(x, ())) <= 1
        if beta.degree > 2:
            bl, bh, lo, hi, P = expansion._seed(beta, x)
            b = beta.beta_point()
            assert Fraction(bl, 2**P) <= b <= Fraction(bh, 2**P)
            assert Fraction(lo, 2**P) <= x <= Fraction(hi, 2**P)
    assert (balls > 800) == (coarse > 800) == (beta.degree > 2)


def test_ball_step_encloses_the_exact_step():
    """``_ball_step`` decides d only when every product of an end of beta's
    ball and an end of x's lies in [d - 1, d), and its next ball holds
    d - beta x for each of them, rounded outward; when it decides nothing,
    some product reaches past the integer above the least one.  On seeded
    balls, and on balls whose upper product is exactly an integer."""
    from negabeta.expansion import _ball_step

    rng = random.Random(7)
    cases = []
    for P in (8, 64, 100):
        one = 1 << P
        cases += [(P, 2 * one, 2 * one, one - 1, one),         # beta x = 2 at the upper end
                  (P, 3 * one, 3 * one, 2 * one // 3 - 1, 2 * one // 3 + 1),
                  (P, one + 1, one + 1, one - 1, one - 1)]
        for _ in range(400):
            b = rng.randint(one, 8 * one)
            bw, xw = rng.randint(0, 1 << rng.randint(0, P)), rng.randint(0, 1 << rng.randint(0, P))
            x = rng.randint(-(one >> 4), one)
            cases.append((P, b, b + bw, x, x + xw))
    decided = 0
    for P, bl, bh, lo, hi in cases:
        corners = [Fraction(b * x, 1 << 2 * P) for b in (bl, bh) for x in (lo, hi)]
        got = _ball_step(bl, bh, lo, hi, P)
        n = math.floor(min(corners))
        if got is None:
            assert max(corners) >= n + 1
            continue
        d, nlo, nhi = got
        decided += 1
        assert d == n + 1 and max(corners) < d
        assert all(Fraction(nlo, 1 << P) <= d - c <= Fraction(nhi, 1 << P) for c in corners)
    assert decided > 500


def test_expand_examples(phi, phi2):
    assert expand(phi, 1, 5) == (2, 1, 1, 1, 1)
    assert expand(phi2, 1, 6) == (3, 2, 3, 2, 3, 2)
    assert expand(make_beta("dec:2.5"), 1, 4) == (3, 2, 2, 1)


@pytest.mark.parametrize("spec", ("dec:1.8", "pisot2:p=1,q=1", "multinacci:q=1,m=4"))
def test_expand_digit_counts(spec):
    """A digit count of 0 gives no digits and a negative one raises
    ``SpecError`` before any step, on each kind of orbit the driver runs."""
    beta = make_beta(spec)
    assert expand(beta, 1, 0) == ()
    with pytest.raises(SpecError, match="nonnegative"):
        expand(beta, 1, -1)


def test_step_seeds_no_ball(count_calls):
    """``step`` on a base of degree 3 or more, refined past the level where
    the driver's ball starts, is ``map_step`` and seeds no ball."""
    from negabeta import expansion

    beta = make_beta("multinacci:q=1,m=60")
    beta.refine(Fraction(1, 2**100))
    seeds = count_calls(expansion, "_seed")
    x = beta.one()
    for _ in range(20):
        (d, y), (want, z) = step(beta, x), x.map_step()
        assert (d, y.num, y.den) == (want, z.num, z.den)
        x = y
    assert seeds["_seed"] == 0


@pytest.mark.parametrize("spec", ("multinacci:q=1,m=4", "poly:[1,-2,1,-2,1]@(1.5,2)"))
def test_short_orbits_refine_beta_only_for_their_buckets(spec, count_calls):
    """An orbit of 1 that repeats within ``_BUCKET_AFTER`` steps on a base
    without ``field_proved`` seeds no ball, and leaves beta's cells at the
    level that keying its points by refined enclosures alone reaches."""
    from negabeta import expansion

    beta, ref = make_beta(spec), make_beta(spec)
    seeds = count_calls(expansion, "_seed")
    rec = orbit_of_one(beta)
    assert seeds["_seed"] == 0
    assert not beta.field_proved and rec.resolved
    assert len(rec.digits) <= expansion._BUCKET_AFTER
    x = ref.one()
    expansion._bucket(x, ())
    for _ in rec.digits:
        _, x = x.map_step()
        expansion._bucket(x, ())
    assert beta._cells.level == ref._cells.level >= expansion._BALL_LEVEL


@pytest.mark.parametrize("spec", ("poly:[1,-2,1,-2,1,-2,1,-2,1,-2,1,-2,1]@(1.5,2)",
                                  "multinacci:q=1,m=12"))
def test_long_orbits_find_their_repeat_among_balls(spec):
    """On a base without ``field_proved`` whose orbit of 1 first repeats
    after more than ``_BUCKET_AFTER`` steps, so that its later points carry
    balls, ``orbit_of_one`` finds the repeat that exact steps and exact
    equality find."""
    from negabeta import expansion

    beta = make_beta(spec)
    rec = orbit_of_one(beta)
    assert not beta.field_proved and len(rec.digits) > expansion._BUCKET_AFTER
    points, digits = [beta.one()], []
    while True:
        d, x = points[-1].map_step()
        digits.append(d)
        hit = next((j for j, p in enumerate(points) if p == x), None)
        if hit is not None:
            break
        points.append(x)
    assert rec.points == tuple(points) and rec.digits == tuple(digits)
    assert (rec.pre_len, rec.period_len) == (hit, len(points) - hit)


def test_expand_rejects_points_outside_domain(phi):
    for x in (Fraction(0), Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(SpecError):
            expand(phi, x, 3)
        with pytest.raises(SpecError):
            expand(make_beta("dec:2.5"), x, 3)


def _same_steps(beta, x, y):
    """``step`` from x and from y give one digit and equal coordinates."""
    (d, a), (e, b) = step(beta, x), step(beta, y)
    return d == e and (a.num, a.den) == (b.num, b.den)


@pytest.mark.parametrize("spec", ("dec:1.8", "pisot2:p=1,q=1", "multinacci:q=1,m=3"))
def test_points_of_other_bases_are_carried_to_the_base(spec):
    """``expand`` and ``step`` iterate the base they are given: a point of
    that base as it is, a point of a degree-1 base as the rational it is,
    and a point of the base beta + 1 through a Taylor shift; a point of any
    other base raises SpecError, even when its value is rational."""
    beta, golden = make_beta(spec), make_beta("pisot2:p=1,q=1")
    b = beta.beta_point()
    own = b - math.floor(b)  # beta - floor(beta), in (0, 1)
    assert expand(beta, make_beta(spec).one(), 6) == expand(beta, 1, 6)
    assert _same_steps(beta, own, own)
    half = make_beta("dec:2.5").point_from_rational(Fraction(1, 2))
    assert expand(beta, half, 6) == expand(beta, Fraction(1, 2), 6)
    assert _same_steps(beta, half, Fraction(1, 2))
    above = beta.plus_one()
    shifted = above.beta_point() - (math.floor(b) + 1)  # the value of own
    assert expand(beta, shifted, 6) == expand(beta, own, 6)
    assert _same_steps(beta, shifted, own)
    other = make_beta("multinacci:q=1,m=4") if spec == "pisot2:p=1,q=1" else golden
    for x in (other.one(), other.beta_point() - 1):
        with pytest.raises(SpecError, match="different bases"):
            expand(beta, x, 6)
        with pytest.raises(SpecError, match="different bases"):
            step(beta, x)


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
    from negabeta import cli, expansion, polys
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

    keys, gcds = count_calls(expansion, "_bucket"), count_calls(polys, "cofactor_gcd")
    assert all(orbit_of_one(b).resolved for b in bases if b.field_proved)
    assert keys == gcds == {}
    proved = run_all()
    assert sum(b.field_proved for b in bases) == 18
    assert all(code == 0 for code, _out in proved[1][:-48 * 4])
    monkeypatch.setattr(Beta, "field_proved", property(lambda self: False))
    keys.clear()
    gcds.clear()
    recs, outs = run_all()
    assert keys["_bucket"] > 1000 and gcds["cofactor_gcd"] > 0
    assert outs == proved[1]
    for a, b in zip(recs, proved[0]):
        assert (a.kind, a.pre_len, a.period_len, a.digits, a.budget) == \
            (b.kind, b.pre_len, b.period_len, b.digits, b.budget)
        assert len(a.points) == len(b.points) and all(x == y for x, y in zip(a.points, b.points))
