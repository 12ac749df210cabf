import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from negabeta import SpecError, expand, make_beta
from negabeta import numerics, polys
from negabeta.numerics import Beta


def floor_beta_times(beta, x):
    """floor(beta x) for a point or a rational x, by ``times_beta``."""
    return math.floor(numerics.as_point(beta, x).times_beta())


def bisect_root(coeffs_high, lo, hi, width):
    """Independent oracle: plain bisection on exact rationals."""
    def ev(x):
        acc = Fraction(0)
        for c in coeffs_high:
            acc = acc * x + c
        return acc

    lo, hi = Fraction(lo), Fraction(hi)
    assert ev(lo) * ev(hi) < 0
    while hi - lo > width:
        mid = (lo + hi) / 2
        if ev(lo) * ev(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def midpoint_float(x):
    """The float of the midpoint of an enclosure of the field point x
    narrower than 10^-20 (a nearby rational to probe comparisons with)."""
    lo, hi = x.interval(Fraction(1, 10**20))
    return float((lo + hi) / 2)


def test_make_beta_golden_ratio(phi):
    b = phi.beta_point()
    assert (b * b - b - 1).is_zero()
    lo, hi = phi.refine(Fraction(1, 10**12))
    mid = float((lo + hi) / 2)
    assert abs(mid - (1 + 5**0.5) / 2) < 1e-10


def test_make_beta_tribonacci_against_bisection(tribonacci):
    expected = bisect_root((1, -1, -1, -1), 1, 2, Fraction(1, 10**12))
    lo, hi = tribonacci.refine(Fraction(1, 10**12))
    assert abs((lo + hi) / 2 - expected) < Fraction(1, 10**10)
    assert str(tribonacci.decimal_str(10)) == "1.8392867552"


def test_make_beta_rejects_p_above_q():
    with pytest.raises(SpecError):
        make_beta("pisot2:p=2,q=1")


@pytest.mark.parametrize("spec", [
    "nonsense", "poly:[1,2", "pisot2:p=0,q=1", "multinacci:q=1,m=1",
    "dec:0.5", "poly:[1,-1,-1]@(0.5,2)",
])
def test_make_beta_rejects_bad_specs(spec):
    with pytest.raises(SpecError):
        make_beta(spec)


@pytest.mark.parametrize("spec", ["dec:1.8", "pisot2:p=1,q=1", "poly:[1,0,-1,-1]@(1.2,1.4)"])
def test_make_beta_ignores_its_second_argument(spec):
    """The benchmark's setup timing calls make_beta(spec, 256); the
    argument, once a decimal working precision, has no effect."""
    assert make_beta(spec, 256) == make_beta(spec)


def test_spec_string_round_trip(phi, tribonacci, plastic):
    for beta in (phi, tribonacci, plastic, make_beta("dec:2.5")):
        again = make_beta(beta.spec_string())
        assert again == beta


def test_floor_examples(phi):
    assert floor_beta_times(phi, phi.one()) == 1
    x = 2 - phi.beta_point()
    assert floor_beta_times(phi, x) == 0


def test_floor_boundary_exact_one():
    # beta root of x^3 - 2x^2 + x - 1; beta * (1 - beta(2 - beta)) is exactly 1
    beta = make_beta("poly:[1,-2,1,-1]@(1.7,1.8)")
    b = beta.beta_point()
    x = 1 - b * (2 - b)
    assert (x.times_beta() - 1).is_zero()
    assert floor_beta_times(beta, x) == 1


def test_decimal_floor_is_exact_next_to_an_integer():
    """dec:2.5 is the rational 5/2, so beta*x a hair above the integer 1
    has floor 1, as does the exact hit 5/2 * 2/5 = 1."""
    d = make_beta("dec:2.5")
    assert floor_beta_times(d, Fraction(1, 2)) == 1
    x = Fraction(2, 5) + Fraction(1, 2**30)  # beta*x = 1 + 5/2^31
    assert floor_beta_times(d, x) == 1
    assert floor_beta_times(d, Fraction(2, 5)) == 1
    x = Fraction(2, 5) - Fraction(1, 2**30)  # beta*x = 1 - 5/2^31
    assert floor_beta_times(d, x) == 0
    # math.floor on a dec: point is the floor of the rational
    assert math.floor(d.beta_point() * x) == 0 and math.floor(d.beta_point()) == 2


def test_compare_to_rational(phi, tribonacci):
    x = 2 - phi.beta_point()
    half = Fraction(1, 2)
    assert x < half and half > x and not x >= half
    assert x.compare(2 - phi.beta_point()) == 0 and x == 2 - phi.beta_point()
    # high-precision ordering: 1 - 1/beta^2 vs 0.70444 needs real refinement
    y = 1 - 1 / tribonacci.beta_point() ** 2
    with mpmath.workdps(50):
        b = mpmath.findroot(lambda t: t**3 - t**2 - t - 1, 1.84)
        below = 1 - 1 / b**2 < mpmath.mpf("0.70444")
    r = Fraction(70444, 100000)
    assert (y < r, y > r) == (below, not below)


@pytest.mark.parametrize("spec", [
    "pisot2:p=1,q=1", "multinacci:q=1,m=3", "poly:[1,0,-1,-1]@(1.2,1.4)",
    "poly:[1,-2,1,-2,1]@(1.5,2)", "poly:[1,-3,2,-2]@(2.5,4)",
    "poly:[1,-3,1,-1,1,-3,2]@(2.5,4)",  # reducible
    "poly:[2,-3]@(1.25,1.75)", "poly:[2,-3,0,4,-6]@(1.25,1.75)",  # the root 3/2
])
def test_compare_to_rational_is_sign_of_difference(spec):
    """compare against an int or a Fraction, the comparison operators and
    ==, agree with the sign of the point minus the rational, on exact hits,
    near misses and far values; == never refines the base."""
    from negabeta.numerics import FieldPoint

    beta, rng = make_beta(spec), random.Random(spec)
    rational_root = polys.sign_at(beta.sf_poly, Fraction(3, 2)) == 0
    for _ in range(40):
        vec = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 8])) for _ in range(beta.degree)]
        x = FieldPoint(beta, vec)
        near = Fraction(midpoint_float(x)).limit_denominator(rng.choice([1, 10, 10**6, 10**15]))
        exact = sum(c * Fraction(3, 2)**i for i, c in enumerate(vec))
        for r in (near, math.floor(near), rng.randint(-5, 5)) + ((exact,) if rational_root else ()):
            want = (x - r).sign()
            assert x.compare(r) == want
            assert (x < r, x <= r, x > r, x >= r) == (want < 0, want <= 0, want > 0, want >= 0)
            level = beta._cells.level
            assert (x == r) == (want == 0)
            assert beta._cells.level == level
        if rational_root:
            assert x.compare(exact) == 0


def test_pisot2_identities():
    for p in range(1, 4):
        for q in range(p, 5):
            beta = make_beta(f"pisot2:p={p},q={q}")
            b = beta.beta_point()
            assert (b * b - q * b - p).is_zero()
            assert beta.floor_value() == q


def test_family_isolating_intervals():
    """pisot2 and multinacci bases are isolated in (q, q+1), and in
    (3/2, 2) for q = 1, where the family polynomial is negative at 3/2."""
    def spec(coeffs, q):
        iso = f"({q},{q + 1})" if q >= 2 else "(1.5,2)"
        return f"poly:[{','.join(map(str, coeffs))}]@{iso}"

    for q in range(1, 7):
        for p in range(1, q + 1):
            assert make_beta(f"pisot2:p={p},q={q}").spec_string() == spec([1, -q, -p], q)
    for q in range(1, 5):
        for m in range(2, 9):
            assert make_beta(f"multinacci:q={q},m={m}").spec_string() == spec([1] + [-q] * m, q)


def _mp_beta(coeffs_high, approx):
    return mpmath.findroot(
        lambda t: sum(c * t ** (len(coeffs_high) - 1 - i) for i, c in enumerate(coeffs_high)),
        approx,
    )


def test_floor_matches_200_digit_evaluation(phi, tribonacci):
    """Exact floors agree with a 200-digit numeric oracle on random points."""
    from negabeta.numerics import FieldPoint

    rng = random.Random(20240817)
    cases = [(phi, 1.618033988749895), (tribonacci, 1.839286755214161)]
    with mpmath.workdps(200):
        for beta, approx in cases:
            b_mp = _mp_beta(beta.coeffs, approx)
            deg = beta.degree
            done = 0
            while done < 500:
                vec = [Fraction(rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(deg)]
                val = sum(mpmath.mpf(c.numerator) / c.denominator * b_mp**i
                          for i, c in enumerate(vec))
                if not 0 < val <= 1:
                    continue
                # stay away from numeric-tie trouble in the oracle itself
                if abs(val * b_mp - mpmath.nint(val * b_mp)) < mpmath.mpf(10) ** -150:
                    continue
                x = FieldPoint(beta, vec)
                assert floor_beta_times(beta, x) == int(mpmath.floor(val * b_mp))
                done += 1


def test_order_consistent_with_decimal_evaluation(phi):
    rng = random.Random(7)
    from negabeta.numerics import FieldPoint

    with mpmath.workdps(60):
        b_mp = (1 + mpmath.sqrt(5)) / 2
        for _ in range(300):
            u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            x, y = FieldPoint(phi, u), FieldPoint(phi, v)
            xv = mpmath.mpf(u[0].numerator) / u[0].denominator + \
                mpmath.mpf(u[1].numerator) / u[1].denominator * b_mp
            yv = mpmath.mpf(v[0].numerator) / v[0].denominator + \
                mpmath.mpf(v[1].numerator) / v[1].denominator * b_mp
            c = x.compare(y)
            if c == 0:
                assert abs(xv - yv) < mpmath.mpf(10) ** -50
            else:
                assert (xv < yv) == (c < 0)


def test_field_inverse(phi):
    x = 2 - phi.beta_point()
    assert (x * x.inverse() - 1).is_zero()
    with pytest.raises(ZeroDivisionError):
        (x - x).inverse()
    # division is multiplication by the inverse, by a point or a rational
    assert 1 / x == x.inverse() and 3 / x == 3 * x.inverse()
    assert x / x == 1 and (x * x) / x == x and x / Fraction(2, 3) == Fraction(3, 2) * x
    for zero in (x - x, 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_equality_never_refines():
    """== decides from the enclosure at the current level or by the gcd zero
    test, so it leaves the isolating interval, on which later renderings
    depend, where it was; sum() over points starts from the int 0."""
    beta = make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")
    b = beta.beta_point()
    start = beta.interval()
    assert b * b * b == b + 1 and b != Fraction(4, 3) and b * b != b + Fraction(1, 10**30)
    assert beta.interval() == start
    assert sum([b, b * b]) == b * (b + 1) and 0 + b is b


def test_non_minimal_defining_polynomial():
    """(x^2-x-1)(x-3) is accepted; zero tests see through the extra factor."""
    beta = make_beta("poly:[1,-4,2,3]@(1.5,2.0)")
    b = beta.beta_point()
    assert (b * b - b - 1).is_zero()
    assert not (b - 3).is_zero()
    assert floor_beta_times(beta, beta.one()) == 1


def test_decimal_base_is_the_exact_rational():
    """dec:v is the rational v itself: two bases 2^-260 apart share 306
    digits of the expansion of 1 and then part."""
    a = expand(Beta.from_decimal(Fraction(9, 5)), 1, 320)
    b = expand(Beta.from_decimal(Fraction(9, 5) + Fraction(1, 2**260)), 1, 320)
    assert a[:306] == b[:306]
    assert a[306] != b[306]


def test_point_protocol_stays_in_numerics():
    """Only numerics may tell field points from rationals or exact bases
    from decimal ones; every other module builds and compares points with
    Python's operators.  No module, numerics included, keeps a second point
    kind: a base has no rational ``value`` and no table of reciprocals, and
    beta is a field point under each of the four spec grammars."""
    from negabeta.numerics import FieldPoint

    src = Path(numerics.__file__).parent
    pattern = re.compile(r"isinstance\([^)]*FieldPoint|\.is_exact|\bbeta[0-9]?\.value\b|\bb\.value\b")
    second_kind = re.compile(r"_reciprocals|\b(self|beta[0-9]?|b)\.value\b")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if second_kind.search(line) or path.name != "numerics.py" and pattern.search(line)
    ]
    assert hits == []
    for spec in ("dec:1.8", "poly:[1,0,-1,-1]@(1.2,1.4)", "pisot2:p=1,q=1", "multinacci:q=1,m=3"):
        beta = make_beta(spec)
        assert "value" not in vars(Beta(beta.kind, beta.coeffs, beta.iso)), spec
        assert isinstance(beta.beta_point(), FieldPoint), spec
        assert not hasattr(beta, "value"), spec


def test_point_equality_stays_in_numerics():
    """``==`` decides every pair of points, so no other module keeps field
    logic of its own: none names a cross-field equality, a same-field test,
    or the characteristic polynomial behind them.  Points divide and
    multiply by beta through their methods alone."""
    src = Path(numerics.__file__).parent
    pattern = re.compile(r"\b(algebraic_equal|same_field|_charpoly|_mult_matrix)\b")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "numerics.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
    assert [n for n in ("same_field", "times_beta", "over_beta") if hasattr(numerics, n)] == []


def test_renderings_stay_in_numerics():
    """A decimal is rendered in numerics alone, from an exact floor: no
    other module takes the midpoint of an enclosure, and neither the CLI
    nor the solver refines a base to make a midpoint close enough.  polys
    is left out because its midpoints are the bisection points of root
    isolation, where a sign is taken and nothing is rendered."""
    src = Path(numerics.__file__).parent
    midpoint = re.compile(r"\(\s*(lo|a)\d*\s*\+\s*(hi|b)\d*\s*\)\s*/\s*2")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name not in ("numerics.py", "polys.py")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if midpoint.search(line) or path.name in ("cli.py", "solver.py") and ".refine(" in line
    ]
    assert hits == []


def test_one_decimal_rendering():
    """point_decimal_str is the only decimal rendering: the midpoint
    renderings, the enclosure helper for rationals and the solver's
    refinement tolerance are gone, and Beta.decimal_str renders beta."""
    import inspect

    from negabeta.numerics import FieldPoint
    from negabeta.solver import beta_from_expansion

    assert not hasattr(FieldPoint, "decimal_str")
    assert not hasattr(numerics, "_ratio_decimal_str")
    assert not hasattr(numerics, "point_interval")
    assert "tol" not in inspect.signature(beta_from_expansion).parameters
    beta = make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")
    assert beta.decimal_str(20) == numerics.point_decimal_str(beta.beta_point(), 20)


def _mp_root(beta, dps):
    """beta at ``dps`` digits: sympy's real root of its polynomial inside the
    isolating interval, as an mpmath number."""
    import sympy

    x = sympy.Symbol("x")
    lo, hi = (sympy.Rational(e) for e in beta.iso)
    roots = {r for r in sympy.Poly(beta.coeffs, x).real_roots() if lo < r < hi}
    assert len(roots) == 1
    with mpmath.workdps(dps):
        return mpmath.mpf(str(roots.pop().evalf(dps + 10)))


def _truncation_oracle(coeffs, root, digits, dps=80):
    """The point with rational ``coeffs`` at the mpmath number ``root``,
    truncated toward zero to ``digits`` decimals and printed as the CLI
    prints decimals.  A rational point is truncated exactly; any other must
    lie 10^-30 or more from the nearest truncation boundary."""
    if not any(coeffs[1:]):
        v = coeffs[0]
        n, negative = abs(v.numerator) * 10**digits // v.denominator, v < 0
    else:
        with mpmath.workdps(dps):
            v = sum(mpmath.mpf(c.numerator) / c.denominator * root**i for i, c in enumerate(coeffs))
            scaled = abs(v) * mpmath.mpf(10) ** digits
            n = int(mpmath.floor(scaled))
            assert min(scaled - n, n + 1 - scaled) > mpmath.mpf(10) ** -30
            negative = v < 0
    s = str(n).rjust(digits + 1, "0")
    ip, fp = s[:len(s) - digits], s[len(s) - digits:].rstrip("0")
    return ("-" if negative else "") + ip + ("." + fp if fp else "")


def test_decimal_is_the_exact_truncation_next_to_a_boundary():
    """x = beta - t + 1/1000, with t the plastic number truncated to 9
    decimals, lies just above 1/1000: it truncates to 0.001 on a fresh base
    and after its base was refined to 10^-30 alike (the truncated midpoint
    of an enclosure 10^-5 wide printed 0 on the fresh base)."""
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda y: y**3 - y - 1, mpmath.mpf("1.3247"))
        t = Fraction(int(mpmath.floor(root * 10**9)), 10**9)
    oracle = _truncation_oracle((Fraction(1, 1000) - t, Fraction(1)), root, 3, dps=50)
    assert oracle == "0.001"
    for prior in (None, Fraction(1, 10**30)):
        beta = make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")
        x = beta.beta_point() - t + Fraction(1, 1000)
        if prior is not None:
            beta.beta_point().interval(prior)
        assert numerics.point_decimal_str(x, 3) == oracle
        assert numerics.point_decimal_str(-x, 3) == "-" + oracle


def test_decimal_renderings_do_not_depend_on_refinement(bench_workloads):
    """Orbit points of 1 (and their negatives), density values, K and beta
    over the benchmark's CLI bases, at 0, 3, 15 and 40 digits: each
    rendering from a fresh base equals the rendering after a seeded prior
    refinement of the base or of a point, to a random depth, and both equal
    the truncation of a sympy/mpmath oracle."""
    from negabeta.expansion import orbit_of_one
    from negabeta.measure import density

    def points(spec):
        beta = make_beta(spec)
        orbit = orbit_of_one(beta).points
        d = density(beta)
        return beta, list(orbit) + [-x for x in orbit] + list(d.values) + [d.K, beta.beta_point()]

    rng = random.Random(15)
    for spec in bench_workloads.CLI_BASES:
        beta, xs = points(spec)
        root = _mp_root(beta, 80)
        for digits in (0, 3, 15, 40):
            oracle = [_truncation_oracle(x.coeffs, root, digits) for x in xs]
            fresh = [numerics.point_decimal_str(x, digits) for x in points(spec)[1]]
            refined_beta, refined = points(spec)
            width = Fraction(1, 10 ** rng.randint(1, 120))
            if rng.random() < 0.5:
                refined_beta.refine(width)
            else:
                rng.choice(refined).interval(width)
            assert fresh == oracle, (spec, digits)
            again = [numerics.point_decimal_str(x, digits) for x in refined]
            assert again == oracle, (spec, digits)


def test_beta_caches_are_not_fields():
    """Beta caches its polynomial, Sturm chain, power table, cells and floor
    per object, beside the fields: equality and hashing see only the base
    (kind, coeffs, iso), whatever has been computed or refined."""
    a, b = make_beta("multinacci:q=1,m=3"), make_beta("multinacci:q=1,m=3")
    assert list(vars(Beta(a.kind, a.coeffs, a.iso))) == ["kind", "coeffs", "iso"]
    a.refine(Fraction(1, 10**40))
    assert a.floor_value() == 1 and (a.beta_point() * a.beta_point()).num == (0, 0, 1)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.interval() != b.interval()


def test_isolate_roots_splits_at_a_rational_root():
    """(x - 2)(x^2 - 3) on (1, 3): the first midpoint 2 is a root, so the
    split shrinks around it until sqrt(3) is left out, then reports it as
    the point (2, 2); each interval holds exactly one of sympy's roots."""
    import sympy

    x = sympy.Symbol("x")
    p = (6, -3, -2, 1)
    out = polys.isolate_roots(p, 1, 3)
    assert out == [(1, Fraction(7, 4)), (2, 2)]
    roots = [r for r in sympy.Poly(list(reversed(p)), x).real_roots() if 1 < r < 3]
    assert len(roots) == len(out)
    for lo, hi in out:
        lo, hi = sympy.Rational(lo), sympy.Rational(hi)
        inside = [r for r in roots if (lo < r < hi if lo < hi else r == lo)]
        assert len(inside) == 1


def test_root_above_one_shrinks_around_a_rational_root():
    """The rational root 2 of (x - 2)(10 x - 21) is widened to an open
    interval that leaves out the root 2.1: halving from 1/4 stops at 1/16."""
    import sympy

    x = sympy.Symbol("x")
    poly = (42, -41, 10)
    beta = Beta.root_above_one(poly, 2, 2)
    assert beta.spec_string() == "poly:[10,-41,42]@(1.9375,2.0625)"
    assert beta.beta_point() == 2 and beta.floor_value() == 2
    lo, hi = (sympy.Rational(e) for e in beta.iso)
    roots = sympy.Poly(list(reversed(poly)), x).real_roots()
    assert [r for r in roots if lo < r < hi] == [2]


def _horner_oracle(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _interval_horner_oracle(p, iv):
    lo, hi = Fraction(0), Fraction(0)
    for c in reversed(p):
        prods = (lo * iv[0], lo * iv[1], hi * iv[0], hi * iv[1])
        lo, hi = min(prods) + c, max(prods) + c
    return lo, hi


def _random_rational(rng, big=False):
    num = rng.randint(-10**30, 10**30) if big else rng.randint(-40, 40)
    return Fraction(num, rng.choice([1, 1, 2, 3, 7, 12, 2**rng.randint(1, 90)]))


def _over_one_denominator(values):
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def test_integer_horner_kernels_equal_fraction_horner():
    """sign_at gives the sign, and int_eval_interval exactly the rationals,
    of a Fraction Horner, on points and on negative, zero-straddling and
    degenerate intervals."""
    rng = random.Random(20261018)
    for _ in range(600):
        p = [_random_rational(rng, rng.random() < 0.2) if rng.random() < 0.8
             else Fraction(0) for _ in range(rng.randint(0, 7))]
        while p and p[-1] == 0:
            p.pop()
        x = _random_rational(rng, rng.random() < 0.2)
        ints, d = _over_one_denominator(p)
        if ints:
            v = _horner_oracle(p, x)
            assert polys.sign_at(ints, x) == polys.sign_at(ints, x.numerator, x.denominator) \
                == (v > 0) - (v < 0)
        a, b = sorted((_random_rational(rng), _random_rational(rng)))
        for iv in ((a, b), (-b, -a), (min(a, -abs(b)), abs(b)), (a, a)):
            (lo, hi), w = _over_one_denominator(iv)
            n_lo, n_hi, s = polys.int_eval_interval(ints, lo, hi, w)
            assert (Fraction(n_lo, d * s), Fraction(n_hi, d * s)) == \
                _interval_horner_oracle(p, iv)


CRITERION_BASES = [f"pisot2:p={p},q={q}" for p in range(1, 4) for q in range(p, 4)] + [
    "multinacci:q=1,m=3", "multinacci:q=1,m=4", "multinacci:q=2,m=3",
    "poly:[1,0,-1,-1]@(1.2,1.4)", "poly:[1,-2,1,-1]@(1.5,2)", "poly:[1,-1,0,-1]@(1.25,1.5)",
    "poly:[1,-2,1,-2,1]@(1.5,2)", "poly:[1,-3,2,-2]@(2.5,4)",
]


@pytest.mark.parametrize("spec", CRITERION_BASES)
def test_refinement_is_fraction_bisection(spec):
    """Refining one level at a time for 120 levels gives the nested cells of
    a plain bisection of the isolating interval on the defining polynomial."""
    bases = [make_beta(spec)]
    if spec.startswith("pisot2"):
        bases.append(make_beta(spec).plus_one())
    for beta in bases:
        coeffs_low = tuple(reversed(beta.coeffs))
        lo, hi = beta.iso
        assert beta.interval() == (lo, hi)
        for _ in range(120):
            width = hi - lo
            mid = (lo + hi) / 2
            v = _horner_oracle(coeffs_low, mid)
            assert v != 0
            if _horner_oracle(coeffs_low, lo) * v < 0:
                hi = mid
            else:
                lo = mid
            beta.refine(3 * width / 4)  # one level: the next cell is narrower
            assert beta.interval() == (lo, hi)


@pytest.mark.parametrize("spec", ["poly:[1,0,-1,-1]@(1.2,1.4)", "poly:[2,-3,-1]@(1.5,2)",
                                  "poly:[3,-1,-5,-2]@(1.5,2)"])
def test_times_beta_is_reduction_mod_f(spec):
    from negabeta.numerics import FieldPoint

    beta = make_beta(spec)
    rng = random.Random(11)
    for _ in range(100):
        vec = [_random_rational(rng) for _ in range(beta.degree)]
        if rng.random() < 0.2:
            vec[-1] = Fraction(0)
        expected = _ref_mod([0] + vec, beta.poly)
        got = FieldPoint(beta, vec).times_beta().coeffs
        assert got == expected and all(type(c) is Fraction for c in got)


class _LinearRefinement:
    """Oracle: the isolating interval bisected one step at a time on the
    defining polynomial, with a Fraction interval Horner enclosure at the
    current interval after every step."""

    def __init__(self, beta):
        self.f = tuple(reversed(beta.coeffs))
        self.lo, self.hi = beta.iso
        self.root = None
        self.lo_negative = _horner_oracle(self.f, self.lo) < 0

    def interval(self):
        return (self.root, self.root) if self.root is not None else (self.lo, self.hi)

    def step(self):
        if self.root is None:
            mid = (self.lo + self.hi) / 2
            v = _horner_oracle(self.f, mid)
            if v == 0:
                self.root = mid
            elif (v < 0) == self.lo_negative:
                self.lo = mid
            else:
                self.hi = mid

    def refine(self, width):
        while True:
            lo, hi = self.interval()
            if hi - lo < width:
                return lo, hi
            self.step()

    def floor_value(self):
        while True:
            lo, hi = self.interval()
            if math.floor(lo) == math.floor(hi):
                return math.floor(lo)
            k = math.floor(lo) + 1
            if _horner_oracle(self.f, k) == 0:
                self.root = Fraction(k)
                return k
            self.step()

    def point_interval(self, vec, width):
        while True:
            a, b = _interval_horner_oracle(vec, self.interval())
            if b - a < width:
                return a, b
            self.step()

    def sign(self, vec):
        zero_tested = False
        while True:
            a, b = _interval_horner_oracle(vec, self.interval())
            if a > 0:
                return 1
            if b < 0:
                return -1
            if zero_tested:
                self.step()
            elif not any(vec):  # the defining polynomial is irreducible
                return 0
            else:
                zero_tested = True

    def floor(self, vec):
        while True:
            a, b = _interval_horner_oracle(vec, self.interval())
            fa, fb = math.floor(a), math.floor(b)
            if fa == fb:
                return fa
            if fb == fa + 1:
                return fb if self.sign((vec[0] - fb,) + tuple(vec[1:])) >= 0 else fa
            self.step()


@pytest.mark.parametrize("spec", CRITERION_BASES)
def test_level_search_matches_linear_refinement(spec):
    """interval(w), sign(), math.floor, refine(w) and floor_value return
    what a step-by-step loop returns, and leave the base in its state.  On
    a quadratic base signs and floors refine nothing: a copy of the loop
    decides them, and the base's interval stays where the loop's own
    refinements left it."""
    import copy

    import sympy

    from negabeta.numerics import FieldPoint

    rng = random.Random(spec)
    specs = [spec, make_beta(spec).plus_one().spec_string()] if spec.startswith("pisot2") \
        else [spec]
    for trial in range(24):
        beta = make_beta(specs[trial % len(specs)])
        assert sympy.Poly(beta.coeffs, sympy.Symbol("x")).is_irreducible
        oracle = _LinearRefinement(beta)
        decider = copy.copy(oracle) if beta.degree == 2 else oracle
        value = float(bisect_root(beta.coeffs, *beta.iso, Fraction(1, 2**60)))
        ops = rng.choices(["interval", "sign", "floor", "refine"], k=5) + ["floor_value"]
        rng.shuffle(ops)
        for op in ops:
            vec = [Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 16]))
                   for _ in range(beta.degree)]
            if rng.random() < 0.5:
                # centre the value on 0 (sign) or near an integer (floor)
                vec[0] -= round(sum(float(c) * value**i for i, c in enumerate(vec)))
            if rng.random() < 0.3:
                vec = [c / 2**rng.randint(10, 60) for c in vec]
            width = Fraction(1, 2**rng.randint(0, 140))
            x = FieldPoint(beta, vec)
            if op == "interval":
                assert x.interval(width) == oracle.point_interval(vec, width)
            elif op == "sign":
                assert x.sign() == decider.sign(vec)
            elif op == "floor":
                assert math.floor(x) == decider.floor(vec)
            elif op == "refine":
                assert beta.refine(width) == oracle.refine(width)
            else:
                assert beta.floor_value() == decider.floor_value()
            assert beta.interval() == oracle.interval()


def test_rational_roots_keep_their_level():
    """A midpoint root and the integer root found by floor_value end the
    bisection at the level where they appear."""
    # (2x - 3)(x + 5): a quadratic, since a linear f has its root at level 0
    beta = make_beta("poly:[2,7,-15]@(1.25,1.75)")
    assert beta.interval() == (Fraction(5, 4), Fraction(7, 4))
    beta.refine(Fraction(3, 8))  # one level below the width 1/2
    assert beta.interval() == (Fraction(3, 2), Fraction(3, 2))
    beta.refine(Fraction(3, 16))
    assert beta.interval() == (Fraction(3, 2), Fraction(3, 2))
    fresh = make_beta("poly:[2,7,-15]@(1.25,1.75)")
    assert fresh.refine(Fraction(1, 2**40)) == (Fraction(3, 2), Fraction(3, 2))
    b = fresh.beta_point()
    assert (b * b).interval(Fraction(1, 10)) == (Fraction(9, 4), Fraction(9, 4))
    assert math.floor(b * b) == 2 and (b - Fraction(3, 2)).sign() == 0
    for spec in ("poly:[1,-1,-2]@(1.5,2.75)", "poly:[1,-2,1,-2]@(1.5,2.75)"):
        beta = make_beta(spec)
        assert beta.floor_value() == 2
        assert beta.interval() == (Fraction(2), Fraction(2))
        assert beta.refine(Fraction(1, 2**30)) == (Fraction(2), Fraction(2))
        assert math.floor(beta.beta_point()) == 2


CELL_BASES = CRITERION_BASES + [make_beta(s).plus_one().spec_string() for s in CRITERION_BASES] + [
    "poly:[1,-3,1,-1,1,-3,2]@(2.5,4)",  # reducible: the base solved from |311133
    # (4x - 7)(x + 1), (16x - 25)(x + 1): roots at levels 1 and 4 (a linear f
    # has its root at level 0)
    "poly:[4,-3,-7]@(1.5,2)", "poly:[16,-9,-25]@(1.5,1.75)",
    # (2^31 x - 3 2^30 - 1)(x + 1): the root 3/2 + 2^-31 at level 30
    "poly:[2147483648,-1073741825,-3221225473]@(1.5,2)",
    f"poly:[{10**400},0,{-2 * 10**400 - 1}]@(1.25,1.5)",  # no float holds a coefficient
    # sqrt(2 + 2^-120), a root of (x^2 - 2)(2^120 x^2 - 2^121 - 1) about 2^-122
    # above sqrt(2), which draws Newton from afar; the left end lies between
    f"poly:[{2**120},0,{-(2**122 + 1)},0,{2**122 + 2}]@({math.isqrt(2 << 248) + 2}/{2**124},1.5)",
]


def _fraction_bisection(beta, depth):
    """Oracle: the isolating interval bisected on Fraction midpoints with the
    defining polynomial, to the level ``depth`` or a midpoint root; the
    cells by level, the root and its level (inf when not met).  f(n/d) has
    the sign of d^deg(f) f(n/d), an integer."""
    def value(x):
        acc, scale = 0, 1
        for c in reversed(beta.coeffs):  # d^deg(f) f(n/d), lowest degree first
            acc = acc * x.denominator + c * scale
            scale *= x.numerator
        return acc

    lo, hi = beta.iso
    lo_sign = value(lo) > 0
    cells = [(lo, hi)]
    while len(cells) <= depth:
        mid = (lo + hi) / 2
        v = value(mid)
        if v == 0:
            return cells, mid, len(cells)
        if (v > 0) == lo_sign:
            lo = mid
        else:
            hi = mid
        cells.append((lo, hi))
    return cells, None, math.inf


def _cells_match_bisection(spec, depth=3000):
    """cell(k) on seeded level sequences up to ``depth``, in increasing,
    mixed and decreasing order, gives the cell, root and root level of
    bisecting one level at a time, and keeps the deepest level bisection
    keeps."""
    cells, root, root_level = _fraction_bisection(make_beta(spec), depth)
    rng = random.Random(spec)
    levels = rng.sample(range(1, depth), 14) + [depth, 5, 6, 47, 48, 49]
    for order in (sorted(levels), levels, sorted(levels, reverse=True)):
        state, reached = make_beta(spec)._cells, 0
        for k in order:
            lo, hi, den = state.cell(k)
            reached = max(reached, k)
            assert (Fraction(lo, den), Fraction(hi, den)) == \
                ((root, root) if k >= root_level else cells[k])
            assert (state.root, state.root_level) == \
                ((root, root_level) if reached >= root_level else (None, math.inf))
            assert state.deep == min(reached, root_level - 1)


@pytest.mark.parametrize("spec", CELL_BASES, ids=lambda s: s if len(s) < 48 else s[:40] + "...")
def test_jumped_cells_are_fraction_bisection(spec):
    _cells_match_bisection(spec)


@pytest.mark.parametrize("spec", ["pisot2:p=1,q=1", "multinacci:q=1,m=3",
                                  "poly:[1,-5,5]@(1.25,1.5)", "poly:[16,-9,-25]@(1.5,1.75)"])
def test_cells_do_not_depend_on_the_newton_proposal(spec, monkeypatch):
    """Newton only proposes: with each correction moved up to 64 units of the
    working precision either way (up to about 4 cells at the target level),
    the certified cells still move both ways or fall back to bisection, and
    equal bisection's."""
    rng, terms = random.Random(spec), numerics._fixed_point_newton_terms

    def noisy(f, x, p):
        v, dv = terms(f, x, p)
        return v + rng.randint(-64, 64) * dv, dv

    monkeypatch.setattr(numerics, "_fixed_point_newton_terms", noisy)
    _cells_match_bisection(spec, 1000)


@pytest.mark.parametrize("spec", CRITERION_BASES + [CELL_BASES[-2]],
                         ids=lambda s: s if len(s) < 48 else s[:40] + "...")
def test_deep_refinement_makes_few_exact_evaluations(spec, count_calls):
    """Refining to 10^-3000 (about 10,000 levels) costs a few jumps, not a
    sign evaluation per level.  Newton starts from the cell's midpoint in
    integers, so coefficients no float holds (the ``CELL_BASES`` entry
    with 10^400) need no bisection first: at most 16 evaluations."""
    beta = make_beta(spec)
    calls = count_calls(polys, "sign_at", "_horner")
    lo, hi = beta.refine(Fraction(1, 10**3000))
    assert 0 < hi - lo < Fraction(1, 10**3000)
    assert 0 < calls.total() <= (16 if spec == CELL_BASES[-2] else 64)


def test_failed_jumps_take_more_newton_steps_then_retry(count_calls):
    """Next to a second root 2^-122 away (the last ``CELL_BASES`` entry),
    Newton gains fewer bits than a jump budgets: more steps at the final
    precision certify the jump from level 200, and from a fresh base, whose
    midpoint seed cannot tell the two roots apart, a few doubling chunks of
    bisection reach a level where they do, instead of bisecting every level
    (3,007 and 2,807 signs before)."""
    fresh, deep = (make_beta(CELL_BASES[-1])._cells for _ in range(2))
    deep.cell(200)
    calls = count_calls(polys, "sign_at")
    fresh.cell(3000)
    assert 0 < calls["sign_at"] <= 400
    calls.clear()
    deep.cell(3000)
    assert 0 < calls["sign_at"] <= 16


def test_refine_step_on_a_fresh_base():
    beta = make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")
    beta.refine(Fraction(3, 20))  # one level below the width 1/5
    assert beta.interval() == (Fraction(13, 10), Fraction(7, 5))


@pytest.mark.parametrize("spec", ["poly:[2,-3]@(1.25,1.75)", "poly:[1,0,-1,-1]@(1.2,1.4)",
                                  "poly:[3,-1,-5,-2]@(1.5,2)", "poly:[1,-2,1,-2,1]@(1.5,2)"])
def test_product_is_reduction_mod_f(spec):
    """The table-reduced product is the schoolbook product reduced mod f."""
    from negabeta.numerics import FieldPoint

    beta = make_beta(spec)
    rng = random.Random(spec)
    for _ in range(100):
        u, v = ([_random_rational(rng) if rng.random() < 0.8 else Fraction(0)
                 for _ in range(beta.degree)] for _ in range(2))
        expected = _ref_mod(_ref_product(u, v), beta.poly)
        got = (FieldPoint(beta, u) * FieldPoint(beta, v)).coeffs
        assert got == expected and all(type(c) is Fraction for c in got)


def test_orbit_enclosures_are_found_by_search(count_calls):
    """The orbit of 1 of the plastic base evaluates few enclosures; a loop
    that evaluates one per bisection step makes 89."""
    from negabeta.expansion import orbit_of_one

    calls = count_calls(polys, "int_eval_interval")
    rec = orbit_of_one(make_beta("poly:[1,0,-1,-1]@(1.2,1.4)"))
    assert rec.kind == "eventually-periodic"
    assert 0 < calls["int_eval_interval"] <= 30


def test_orbit_steps_build_no_fraction(count_calls):
    """Steps of the orbit of 1 (products, integer operands, floors, bucket
    keys and equality tests) run on integers: a truncated orbit builds as
    many Fractions at budget 50 as at budget 100 (210 and 410 when each
    step built them)."""
    from negabeta.expansion import orbit_of_one

    calls, built = count_calls(Fraction, "__new__"), []
    for budget in (50, 100):
        beta = make_beta("poly:[1,-5,5]@(3.5,4)")
        calls.clear()
        assert orbit_of_one(beta, budget).kind == "truncated"
        built.append(calls["__new__"])
    assert built[0] == built[1]


def _fraction_power_table(f):
    """Oracle: x^d, ..., x^(2d-1) mod f (lowest degree first) by Fraction
    companion steps: shift, then add the top coordinate times x^d mod f."""
    row = first = [Fraction(-c, f[-1]) for c in f[:-1]]
    rows = [row]
    for _ in range(len(f) - 2):
        row = [row[-1] * first[0]] + [c + row[-1] * r for c, r in zip(row, first[1:])]
        rows.append(row)
    return rows


def _value_equations(count, degree, seed):
    """Seeded value equations of eventually periodic words over {1, 2, 3}
    whose polynomial has the given degree."""
    from negabeta.expansion import EvPeriodic
    from negabeta.solver import value_equation_poly

    rng, out = random.Random(seed), []
    while len(out) < count:
        cut = rng.randint(0, degree - 1)
        digits = "".join(rng.choice("123") for _ in range(degree))
        f = value_equation_poly(EvPeriodic.parse(digits[:cut] + "|" + digits[cut:]))
        if len(f) == degree + 1:
            out.append(f)
    return out


def test_power_table_is_fraction_companion_recurrence():
    """The integer power table gives the rationals of Fraction companion
    steps, over the lcm of their denominators: on the criterion bases and
    their +1 bases, the reducible |311133 base, a leading coefficient
    2^120, a negative and a non-unit leading coefficient, linear f, and 20
    seeded degree-40 value equations."""
    from negabeta.expansion import EvPeriodic
    from negabeta.solver import beta_from_expansion

    bases = [make_beta(s) for s in CRITERION_BASES]
    fs = [b.poly for b in bases] + [b.plus_one().poly for b in bases] + [
        beta_from_expansion(EvPeriodic.parse("|311133")).poly,
        make_beta(CELL_BASES[-1]).poly,  # leading coefficient 2^120
        make_beta("poly:[-1,1,1]@(1.5,2)").poly, make_beta("poly:[3,-1,-5,-2]@(1.5,2)").poly,
        make_beta("poly:[2,-3]@(1.25,1.75)").poly, make_beta("poly:[1,-5]@(4.5,5.5)").poly,
    ] + _value_equations(20, 40, 2026)
    for f in fs:
        beta = Beta(kind="exact", coeffs=tuple(reversed(f)))
        rows, den = beta._power_table
        want = _fraction_power_table(f)
        assert den == math.lcm(*(c.denominator for row in want for c in row))
        assert [[Fraction(c, den) for c in row] for row in rows] == want
        assert all(type(row) is tuple and all(type(c) is int for c in row) for row in rows)


@pytest.mark.parametrize("spec", ["pisot2:p=1,q=1", "poly:[1,0,-1,-1]@(1.2,1.4)",
                                  "poly:[3,-1,-5,-2]@(1.5,2)", "poly:[2,-3]@(1.25,1.75)",
                                  "poly:[1,-3,1,-1,1,-3,2]@(2.5,4)"])
def test_rational_operands_act_as_embedded_points(spec):
    """An int or Fraction operand (negative, huge, zero) gives the num/den,
    or the decision, of the same operation on its embedded point; the
    embedding is the rational in the first coordinate, and the JSON
    rendering of a point is format_rational of its coordinates."""
    from negabeta.numerics import FieldPoint, format_rational, point_json

    beta, rng = make_beta(spec), random.Random(spec)
    d = beta.degree
    for trial in range(30):
        x = FieldPoint(beta, [_random_rational(rng, trial % 3 == 0) for _ in range(d)])
        for r in (0, 1, -1, rng.randint(-9, 9), -10**40 - 7, Fraction(-3, 8),
                  Fraction(10**30 + 1, 7 * 2**70), _random_rational(rng), Fraction(0),
                  Fraction(midpoint_float(x)).limit_denominator(10**6)):
            p, q = beta.point_from_rational(r), Fraction(r)
            assert p.coeffs == (q,) + (Fraction(0),) * (d - 1)
            assert (p.num, p.den) == ((q.numerator,) + (0,) * (d - 1), q.denominator)
            for got, want in ((x + r, x + p), (r + x, p + x), (x - r, x - p), (r - x, p - x),
                              (x * r, x * p), (r * x, p * x)):
                assert (got.num, got.den) == (want.num, want.den)
            if r:
                for got, want in ((x / r, x / p), (r / x, p / x)):
                    assert (got.num, got.den) == (want.num, want.den)
            else:
                with pytest.raises(ZeroDivisionError):
                    x / r
            assert (x == r) == (x == p) and (x < r) == (x < p) and (x >= r) == (x >= p)
            assert math.floor(x + r) == math.floor(x + p)
        assert point_json(x, 6)["coeffs"] == [format_rational(c) for c in x.coeffs]


@pytest.mark.parametrize("dec", ["dec:1.5", "dec:2.25"])
@pytest.mark.parametrize("spec", ["pisot2:p=1,q=1", "pisot2:p=2,q=3", "multinacci:q=1,m=3"])
def test_degree_one_points_take_either_side_of_an_operator(dec, spec):
    """A point of a degree-1 base against a point of a larger base that is
    no integer shift of it, on either side of + - * / < <= > >= and ==: it
    acts as the rational it is, so the result is the point of the larger
    base that the rational operand gives, and the swapped operation
    agrees."""
    import operator

    from negabeta.numerics import FieldPoint

    beta, rat, rng = make_beta(spec), make_beta(dec), random.Random(dec + spec)
    assert rat.shift_to(beta) is None
    for trial in range(12):
        q = _random_rational(rng, trial % 4 == 0) or Fraction(1, 3)
        r = rat.point_from_rational(q)
        x = beta.point_from_rational(q) if trial % 3 == 0 else \
            FieldPoint(beta, [_random_rational(rng) for _ in range(beta.degree)])
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for got, want in ((op(r, x), op(q, x)), (op(x, r), op(x, q))):
                assert (got.beta, got.num, got.den) == (beta, want.num, want.den), op
        assert r + x == x + r and r - x == -(x - r) and r * x == x * r and r / x * (x / r) == 1
        for op, swapped in ((operator.lt, operator.gt), (operator.le, operator.ge),
                            (operator.gt, operator.lt), (operator.ge, operator.le),
                            (operator.eq, operator.eq)):
            assert op(r, x) == swapped(x, r) == op(q, x), op


def _format_rational_oracle(r):
    if r.denominator == 1:
        return str(r.numerator)
    den = r.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        try:
            text = repr(float(r))
        except OverflowError:
            text = None
        if text is not None and Fraction(text) == r:
            return text
    return f"{r.numerator}/{r.denominator}"


def test_format_rational_matches_reference():
    """Decimal when the float repr is exactly r and the denominator has only
    the factors 2 and 5, num/den otherwise; denominators 2^a 5^b up to
    a, b = 2000."""
    rng = random.Random(31)
    exps = [0, 1, 2, 3, 17, 52, 53, 60, 300, 330, 1074, 1100, 2000]
    for _ in range(3000):
        a = rng.choice(exps + [rng.randint(0, 2000)])
        b = rng.choice(exps + [rng.randint(0, 2000)])
        num = rng.choice([1, -1, 3, -7, 10**rng.randint(0, 40) + 1,
                          rng.randint(-10**25, 10**25), rng.randint(-999, 999)])
        r = Fraction(num, 2**a * 5**b * rng.choice([1, 1, 1, 3, 7]))
        assert numerics.format_rational(r) == _format_rational_oracle(r)


def test_format_ratio_long_numerators_skip_the_decimal_analysis(count_calls):
    """A numerator of more than 57 bits renders as num/den at once, with no
    look at the denominator's factors 2 and 5, and every rendering equals
    the round-trip oracle: numerators 2^57 - 1, 2^57, 2^57 + 1 and seeded
    ~600-digit ones, of both signs, over 2^a 5^b."""
    rng = random.Random(57)
    nums = [2**57 - 1, 2**57, 2**57 + 1] + [rng.randint(10**599, 10**600) for _ in range(20)]
    dens = [2**a * 5**b for a in (0, 1, 3, 52, 60, 300) for b in (0, 1, 2, 17, 40, 300)][1:]
    for num in nums:
        for den in dens:
            for sign in (1, -1):
                r = Fraction(sign * num, den)
                assert numerics.format_rational(r) == _format_rational_oracle(r), r
    calls = count_calls(math, "ceil")
    assert numerics.format_rational(Fraction(2**57 + 1, 5)) == f"{2**57 + 1}/5"
    assert not calls
    assert numerics.format_rational(Fraction(2**57 - 1, 5)) == f"{2**57 - 1}/5"
    assert calls["ceil"] == 1


def test_format_ratio_short_decimals_match_the_round_trip(count_calls):
    """A decimal N / 10^m with N < 10^15 and m <= 307 renders as the float
    repr without the Fraction round trip, and every rendering equals the
    round-trip oracle: seeded num / (2^a 5^b), and N = 10^15 - 1, 10^15
    (which reduces to N = 1), 10^15 + 1 and 10^17 - 1 at m = 307, 308,
    323 and 324 and their neighbours."""
    rng = random.Random(53)
    cases = [Fraction(sign * n, 10**m)
             for n in (1, 7, 10**15 - 1, 10**15, 10**15 + 1, 10**16 + 3, 10**17 - 1, 10**17 + 1)
             for m in (1, 15, 17, 306, 307, 308, 309, 322, 323, 324, 325) for sign in (1, -1)]
    for _ in range(4000):
        a, b = rng.randint(0, 340), rng.randint(0, 340)
        num = rng.randint(1, 10 ** rng.randint(1, 19)) * rng.choice((1, -1))
        cases.append(Fraction(num, 2**a * 5**b))
    for r in cases:
        assert numerics.format_rational(r) == _format_rational_oracle(r), r
    calls = count_calls(numerics, "Fraction")
    assert numerics.format_rational(Fraction(-(10**15 - 1), 10**307)) == "-9.99999999999999e-293"
    assert numerics.format_rational(Fraction(3, 8)) == "0.375"
    assert not calls
    assert numerics.format_rational(Fraction(10**15 + 1, 10**16)) == "0.1000000000000001"
    assert calls["Fraction"] == 1


def test_renderings_past_the_int_to_str_limit_raise_spec_error():
    """A rational or decimal rendering past Python's int-to-str limit raises
    SpecError (exit 2 in the CLI), as ``orbit --beta dec:1.7`` reaches at
    the default budget."""
    big = Fraction(10**5000 + 1, 3)
    point = make_beta("dec:1.5").point_from_rational(big)
    for render in (lambda: numerics.format_rational(big), lambda: numerics.point_decimal_str(point, 0)):
        with pytest.raises(SpecError, match="int-to-str limit"):
            render()


def test_rational_renderings_meet_the_int_to_str_limit_exactly():
    """A rational point, of a degree-1 base or a field point with no
    beta-coordinate, raises the int-to-str SpecError exactly when
    floor(|x| 10^digits) has more digits than the limit L, whether bit
    lengths decide it before 10^digits is formed or str() meets it; a zero
    point renders as "0".  At --digits 10^7 the rendering raises at once."""
    import sys
    import time

    limit = sys.get_int_max_str_digits()
    rng = random.Random(20261019)
    cubic, dec = make_beta("multinacci:q=1,m=3"), make_beta("dec:1.5")
    cases = [(Fraction(rng.choice([1, -1]) * rng.randint(1, 10**rng.randint(0, 60)),
                       rng.randint(1, 10**rng.randint(0, 60))), limit + rng.randint(-70, 40))
             for _ in range(150)]
    # floors of exactly L and L + 1 digits: 10^L - 1 and 10^L
    cases += [(Fraction(10**limit + e, 10**(limit + t)), limit + t)
              for t in range(1, 30) for e in (-1, 0)]
    for x, digits in cases:
        over = abs(x.numerator) * 10**digits // x.denominator >= 10**limit
        for point in (dec.point_from_rational(x), cubic.point_from_rational(x)):
            if over:
                with pytest.raises(SpecError, match="int-to-str limit"):
                    numerics.point_decimal_str(point, digits)
            else:
                assert numerics.point_decimal_str(point, digits)
    for point in [dec.point_from_rational(r) for r in (1, Fraction(-7, 3), Fraction(1, 10**50))] \
            + [cubic.one()]:
        t0 = time.perf_counter()
        with pytest.raises(SpecError, match="int-to-str limit"):
            numerics.point_decimal_str(point, 10**7)
        assert time.perf_counter() - t0 < 0.1
    assert numerics.point_decimal_str(cubic.point_from_rational(0), 10**7) == "0"


def _sympy_int_poly(rng, x):
    """A seeded integer polynomial of degree <= 12 built by sympy: a product
    of random factors, some linear with a rational root, sometimes one
    factor twice, times a scalar that may be negative."""
    import sympy

    factors = []
    while not factors or rng.random() < 0.5 and len(factors) < 4:
        if rng.random() < 0.35:
            factors.append(rng.randint(1, 4) * x - rng.randint(-6, 6))
        else:
            factors.append(sum(rng.randint(-5, 5) * x**i for i in range(rng.randint(1, 3)))
                           + rng.choice([1, -1, 2, 3]) * x**3)
    if rng.random() < 0.4:
        factors.append(rng.choice(factors))
    p = sympy.Poly(rng.choice([1, -1, 2, -3]) * sympy.Mul(*factors), x)
    return p if 1 <= p.degree() <= 12 else sympy.Poly(factors[0], x)


def _low_first(p):
    return tuple(int(c) for c in reversed(p.all_coeffs()))


def test_primitive_remainder_sequences_against_sympy():
    """count_roots, cofactor_gcd and the squarefree part that heads a Sturm
    chain, on integer polynomials up to degree 12 (repeated factors,
    negative leading coefficients, rational roots), agree with sympy's root
    counts, gcd and squarefree part."""
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    for _ in range(150):
        p = _sympy_int_poly(rng, x)
        a = _low_first(p)
        chain = polys.sturm_chain(a)
        assert chain[0][-1] > 0 and all(math.gcd(*g) == 1 for g in chain)
        for _ in range(4):
            lo, hi = sorted(Fraction(rng.randint(-60, 60), rng.choice([1, 2, 3, 8]))
                            for _ in range(2))
            if lo == hi or p.eval(sympy.Rational(lo.numerator, lo.denominator)) == 0 \
                    or p.eval(sympy.Rational(hi.numerator, hi.denominator)) == 0:
                continue
            expected = p.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                     sympy.Rational(hi.numerator, hi.denominator))
            assert polys.count_roots(a, lo, hi) == expected
            assert polys.count_roots(a, lo, hi, chain) == expected
        sf = sympy.Poly(list(reversed(chain[0])), x)
        assert sf.degree() == sympy.sqf_part(p).degree()
        assert sf.monic() == sympy.sqf_part(p).monic() and sf.LC() > 0
        common = _sympy_int_poly(rng, x)
        p, q = p * common, _sympy_int_poly(rng, x) * common
        g = polys.primitive(polys.cofactor_gcd(_low_first(p), _low_first(q))[0])
        expected = sympy.gcd(p, q)
        assert len(g) - 1 == expected.degree()
        assert sympy.Poly(list(reversed(g)), x).monic() == expected.monic() and g[-1] > 0


def test_sturm_chain_against_sympy_sturm():
    """sturm_chain, one remainder sequence of (p, p') that restarts on
    p / gcd(p, p') only for a repeated factor, has the length and the sign
    sequences at seeded rationals of sympy's Sturm sequence, which is built
    on the monic squarefree part; inputs are seeded products with repeated
    factors, times negative and non-unit scalars."""
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(20261019)
    repeated = 0
    for _ in range(120):
        p = sympy.Integer(rng.choice([1, -1, 2, -3, 6, -10]))
        for _ in range(rng.randint(1, 3)):
            factor = sum(rng.randint(-4, 4) * x**i for i in range(rng.randint(1, 3)))
            factor += rng.choice([1, -1, 2]) * x**rng.randint(1, 3)
            p *= factor ** rng.choice([1, 1, 2, 3])
        p = sympy.Poly(p, x)
        if not 1 <= p.degree() <= 14:
            continue
        repeated += sympy.sqf_part(p).degree() < p.degree()
        chain = polys.sturm_chain(_low_first(p))
        expected = sympy.sturm(p)
        assert len(chain) == len(expected)
        for _ in range(6):
            r = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 7, 16]))
            q = sympy.Rational(r.numerator, r.denominator)
            assert [polys.sign_at(g, r) for g in chain] == \
                [int(sympy.sign(e.eval(q))) for e in expected]
    assert repeated >= 30


def test_squarefree_sturm_chain_is_one_remainder_sequence(count_calls):
    """A squarefree polynomial's chain costs one pseudo-division per element
    after the first and no gcd; a repeated factor costs one more chain, on
    the squarefree part, which is the same chain."""
    calls = count_calls(polys, "pseudo_divmod", "cofactor_gcd")
    f = (-1, -1, 0, 1)  # x^3 - x - 1
    chain = polys.sturm_chain(f)
    assert calls == {"pseudo_divmod": len(chain) - 1}
    square = (1, 2, 1, -2, -2, 0, 1)  # (x^3 - x - 1)^2
    calls.clear()
    assert polys.sturm_chain(tuple(-3 * c for c in square)) == chain
    # the square's sequence (degrees 6, 5, 4, then 3: a multiple of f), the
    # exact quotient by f, then the chain of f
    assert calls == {"pseudo_divmod": 3 + 1 + len(chain) - 1}


def _int_product(*factors):
    out = (1,)
    for g in factors:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = tuple(prod)
    return out


def test_plus_one_shifts_the_base_chain(bench_workloads, count_calls):
    """x -> x - 1 commutes with pseudo-division, the derivative and the
    content, so the shifted Sturm chain of f is the chain of f(x - 1): on
    the 20 CLI_BASES and 300 seeded products (repeated factors, negative
    and non-unit scalars).  plus_one builds beta + 1 from the shifted chain
    with no pseudo-division, also when it has a root at zero (f(-1) = 0)."""
    rng = random.Random(20261020)
    fs = [make_beta(s).poly for s in bench_workloads.CLI_BASES]
    assert len(fs) == 20
    for _ in range(300):
        factors = [(rng.choice([1, -1, 2, -3, 6]),)]
        for _ in range(rng.randint(1, 3)):
            g = tuple(rng.randint(-5, 5) for _ in range(rng.randint(1, 3))) + (rng.choice([1, -1, 2]),)
            factors += [g] * rng.choice([1, 1, 2, 3])
        fs.append(_int_product(*factors))
    repeated = 0
    for f in fs:
        chain = polys.sturm_chain(f)
        repeated += len(chain[0]) < len(f)
        assert [polys.taylor_shift(g, -1) for g in chain] == \
            polys.sturm_chain(polys.taylor_shift(f, -1))
    assert repeated >= 100

    beta = make_beta("multinacci:q=1,m=4")
    chain = beta.sturm
    calls = count_calls(polys, "pseudo_divmod")
    up = beta.plus_one()
    assert calls == {} and up.sturm is not chain
    assert up.sturm == polys.sturm_chain(up.poly)
    assert up == Beta.from_poly(up.coeffs, *up.iso)
    # (x + 1)(x^2 - x - 1): beta + 1 keeps the root at zero and the shifted chain
    beta = make_beta("poly:[1,0,-2,-1]@(1.5,2)")
    calls.clear()
    up = beta.plus_one()
    assert calls == {} and up.degree == 3 and up.sturm == polys.sturm_chain(up.poly)


def test_floor_settles_by_the_position_test(count_calls):
    """An enclosure that holds one integer m is settled by the sign of
    x - m read off x's own enclosures: compare is never called.  On fresh
    bases, points within 2^-140 of an integer, on both sides, and integers
    with non-rational coordinates (reducible f) each get the right floor;
    each takes one position test, except on the quadratic base, whose
    floors take none and leave its interval as it was."""
    from negabeta.numerics import FieldPoint

    points = []
    for spec in ("pisot2:p=1,q=1", "multinacci:q=1,m=3", "poly:[1,0,-1,-1]@(1.2,1.4)",
                 "poly:[1,-3,1,-1,1,-3,2]@(2.5,4)"):
        beta = make_beta(spec)
        mid, eps = bisect_root(beta.coeffs, *beta.iso, Fraction(1, 2**80)), Fraction(1, 2**80)
        for r in (mid - eps, mid + eps):
            above = polys.sign_at(beta.sf_poly, r) == polys.sign_at(beta.sf_poly, beta.iso[0])
            for k in (-2, 0, 3):
                points.append((spec, lambda b, k=k, r=r: k + (b - r) / 2**60, k if above else k - 1))
    # integers with non-rational coordinates on reducible f: beta is a root
    # of x^2 - x - 1 = f / (x - 3) and of q = f / (x^2 - x + 1)
    q = polys.exact_quotient((2, -3, 1, -1, 1, -3, 1), (1, -1, 1))
    for spec, g in (("poly:[1,-4,2,3]@(1.5,2.0)", (-1, -1, 1)),
                    ("poly:[1,-3,1,-1,1,-3,2]@(2.5,4)", q)):
        points += [(spec, lambda b, k=k, g=g: sum(c * b**i for i, c in enumerate(g)) + k, k)
                   for k in (-2, 0, 3)]
    points = [(point(make_beta(spec).beta_point()), want) for spec, point, want in points]
    quadratic = [(x.beta, x.beta.interval()) for x, _ in points if x.beta.degree == 2]
    calls = count_calls(FieldPoint, "compare", "_side")
    assert [math.floor(x) for x, _ in points] == [want for _, want in points]
    assert calls == {"_side": len(points) - len(quadratic)} and len(quadratic) == 6
    assert all(beta.interval() == iv == beta.iso for beta, iv in quadratic)


def test_inverse_on_a_reducible_modulus_tests_its_own_gcd(count_calls):
    """On the base solved from |311133, f = (x^2 - x + 1) q(x) and beta is a
    root of q: the inverse of beta^2 - beta + 1 zero-tests the g of its own
    extended remainder sequence (one pseudo-division gives g, two build the
    Sturm chain of g), divides f by g (one) and runs the sequence mod q
    (three); no zero test runs a second sequence."""
    from negabeta.expansion import EvPeriodic
    from negabeta.numerics import FieldPoint
    from negabeta.solver import beta_from_expansion

    beta = beta_from_expansion(EvPeriodic.parse("|311133"))
    assert beta.coeffs == (1, -3, 1, -1, 1, -3, 2)
    b = beta.beta_point()
    x = b * b - b + 1
    calls = count_calls(polys, "pseudo_divmod", "cofactor_gcd", "sturm_chain")
    zero_tests = count_calls(FieldPoint, "is_zero")
    y = x.inverse()
    assert calls == {"pseudo_divmod": 7, "cofactor_gcd": 2, "sturm_chain": 1}
    assert zero_tests == {}
    assert x * y == 1


def _ref_mod(p, f):
    """p mod f over Fractions by schoolbook long division, as a d-tuple."""
    p, d = [Fraction(c) for c in p], len(f) - 1
    for k in range(len(p) - 1, d - 1, -1):
        q = p[k] / f[-1]
        for i in range(d + 1):
            p[k - d + i] -= q * f[i]
    return tuple(p[:d]) + (Fraction(0),) * (d - len(p))


def _ref_product(u, v):
    prod = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    return prod


@pytest.mark.parametrize("spec", ["poly:[1,0,-1,-1]@(1.2,1.4)", "poly:[2,-3,-1]@(1.5,2)",
                                  "poly:[3,-1,-5,-2]@(1.5,2)", "poly:[1,-4,2,3]@(1.5,2.0)",
                                  "poly:[1,-1,0,-1,-1]@(1.5,1.7)", "poly:[2,-3,0,4,-6]@(1.25,1.75)",
                                  "poly:[2,-3]@(1.25,1.75)",
                                  "|311133"])
def test_field_point_against_fraction_reference(spec):
    """Every FieldPoint operation gives the coordinates of a Fraction
    reference (schoolbook product, long division mod f), on monic,
    non-monic and reducible f; the inverse is checked in Q(beta), modulo
    the factor of f that beta is a root of."""
    import sympy

    from negabeta.expansion import EvPeriodic
    from negabeta.numerics import FieldPoint
    from negabeta.solver import beta_from_expansion

    beta = beta_from_expansion(EvPeriodic.parse(spec)) if spec.startswith("|") \
        else make_beta(spec)
    x, f, d = sympy.Symbol("x"), tuple(reversed(beta.coeffs)), beta.degree
    lo, hi = (sympy.Rational(e.numerator, e.denominator) for e in beta.iso)
    minimal = [m for m, _ in sympy.factor_list(sympy.Poly(beta.coeffs, x))[1]
               if m.count_roots(lo, hi) == 1]
    m = _low_first(minimal[0])
    rng = random.Random(spec)
    for trial in range(80):
        u, v = ([_random_rational(rng, rng.random() < 0.1) if rng.random() < 0.8
                 else Fraction(0) for _ in range(d + (trial % 7 == 0))] for _ in range(2))
        r = _random_rational(rng)
        a, b = FieldPoint(beta, u), FieldPoint(beta, v)
        ru, rv = _ref_mod(u, f), _ref_mod(v, f)
        assert a.coeffs == ru and all(type(c) is Fraction for c in a.coeffs)
        assert a.den == math.lcm(*(c.denominator for c in ru))
        assert a.num == tuple(int(c * a.den) for c in ru)
        assert (a + b).coeffs == tuple(s + t for s, t in zip(ru, rv))
        assert (a - b).coeffs == tuple(s - t for s, t in zip(ru, rv))
        assert (a * r).coeffs == (r * a).coeffs == tuple(s * r for s in ru)
        assert (a * b).coeffs == _ref_mod(_ref_product(ru, rv), f)
        assert a.times_beta().coeffs == _ref_mod((0,) + ru, f)
        if any(_ref_mod(ru, m)):  # nonzero in Q(beta)
            inv = a.inverse().coeffs
            one = _ref_mod(_ref_product(inv, ru), m)
            assert one == (1,) + (0,) * (len(m) - 2)
        else:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
    if m != f:  # a point that is zero in Q(beta), and points sharing a factor with f only
        with pytest.raises(ZeroDivisionError):
            FieldPoint(beta, m).inverse()
        cofactor = sympy.quo(sympy.Poly(beta.coeffs, x), minimal[0])
        for other in (cofactor, cofactor * sympy.Poly(x + 2, x)):
            other = _low_first(other)
            if len(other) <= d:
                inv = FieldPoint(beta, other).inverse().coeffs
                assert _ref_mod(_ref_product(inv, other), m) == (1,) + (0,) * (len(m) - 2)


def test_polynomials_are_integer_tuples():
    """polys keeps no rational-coefficient layer, and every polynomial the
    library builds is a tuple of int."""
    from negabeta.expansion import EvPeriodic
    from negabeta.numerics import _charpoly, _mult_matrix
    from negabeta.solver import value_equation_poly

    deleted = ("Poly", "ZERO", "make_poly", "degree", "poly_eval", "poly_add", "poly_neg",
               "poly_sub", "poly_mul", "poly_divmod", "poly_mod", "shift_poly",
               "squarefree_part", "poly_gcd")
    assert [name for name in deleted if hasattr(polys, name)] == []

    def int_tuple(p):
        return type(p) is tuple and all(type(c) is int for c in p)

    f = (-2, 1, -4, 3, 6, -1, 2)
    beta = make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")
    x = beta.beta_point() * Fraction(3, 7) + Fraction(1, 2)
    built = [polys.primitive(f), polys.cofactor_gcd(f, (1, 1))[0],
             polys.exact_quotient(f, (1, 2)), polys.taylor_shift(f, -1),
             *polys.pseudo_divmod(f, (3, 2, 5))[1:], *polys.cofactor_gcd((1, 1), f),
             polys.derivative(f), *polys.sturm_chain(f),
             value_equation_poly(EvPeriodic.parse("21|2")), _charpoly(*_mult_matrix(x)),
             beta.plus_one().poly, beta.plus_one().coeffs]
    assert all(int_tuple(p) for p in built)


def test_charpoly_against_sympy():
    """The characteristic polynomial of an integer matrix over a denominator,
    degrees 1 to 6, is a primitive integer multiple of sympy's."""
    import sympy

    from negabeta.numerics import _charpoly

    lam = sympy.Symbol("lam")
    rng = random.Random(20261018)
    for trial in range(60):
        n, den = trial % 6 + 1, rng.choice([1, 2, 3, 6, 12, 2**40 + 1])
        m = [[rng.randint(-9, 9) * rng.choice([1, 1, 1, 10**12]) for _ in range(n)]
             for _ in range(n)]
        p = _charpoly(m, den)
        assert len(p) == n + 1 and p[-1] > 0 and math.gcd(*p) == 1
        expected = (sympy.Matrix(m) / den).charpoly(lam)
        assert sympy.Poly(list(reversed(p)), lam).monic().all_coeffs() == expected.all_coeffs()


def test_taylor_shift_against_sympy():
    """taylor_shift(a, -1) is a(x - 1); other shifts compose the same way."""
    import sympy

    x = sympy.Symbol("x")
    rng = random.Random(7)
    for _ in range(100):
        a = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 9))]
        s = rng.choice([-1, -1, 1, rng.randint(-50, 50)])
        p = sympy.Poly(list(reversed(a)), x)
        expected = p.compose(sympy.Poly(x + s, x))
        got = polys.taylor_shift(a, s)
        assert len(got) == len(a)
        assert sympy.Poly(list(reversed(got)), x) == expected


def test_shift_to_names_the_integer_between_bases(bench_workloads, count_calls):
    """beta + 1 is beta shifted by 1 and beta by -1 from it, on each
    benchmark base; the answer is kept on the Beta object, so a fresh
    object of the same spec works it out again."""
    for spec in bench_workloads.CLI_BASES:
        beta = make_beta(spec)
        up = beta.plus_one()
        assert beta.shift_to(up) == 1 and up.shift_to(beta) == -1
        assert beta.shift_to(up.plus_one()) == 2 and up.plus_one().shift_to(beta) == -2
        assert beta.shift_to(make_beta(spec)) == 0
    calls = count_calls(Beta, "_find_shift")
    beta = make_beta("multinacci:q=1,m=3")
    up = beta.plus_one()
    assert [beta.shift_to(up) for _ in range(3)] == [1, 1, 1]
    assert calls["_find_shift"] == 1 and beta.__dict__["_shifts"] == {up: 1}
    fresh = make_beta("multinacci:q=1,m=3")
    assert fresh.shift_to(up) == 1 and calls["_find_shift"] == 2


def test_shift_to_on_intervals_collapsed_to_a_root():
    """A cell that is a rational root has that root as both endpoints, so
    it never bounds a Sturm count: the position against the other base's
    isolating interval decides instead."""

    def collapsed(spec):
        beta = make_beta(spec)
        beta.floor_value()  # the floor is a root: the cell becomes that point
        assert beta.interval()[0] == beta.interval()[1]
        return beta

    # (x - 2)(x + 5) and (x - 3)(x + 4): 3 = 2 + 1
    for two in (make_beta("poly:[1,3,-10]@(1.001,4)"), collapsed("poly:[1,3,-10]@(1.001,4)")):
        for three in (two.plus_one(), collapsed(two.plus_one().spec_string())):
            assert two.shift_to(three) == 1 and three.shift_to(two) == -1
            assert two.beta_point() + 1 == three.beta_point()
    # (x - 2)(x - 3) and (x - 3)(x - 4) are shifts by 1, but 4 = 2 + 2: the
    # shifted point 3 is a root at the end of the hull of [3, 3] and 4's cell
    two, four = collapsed("poly:[1,-5,6]@(1.5,2.5)"), collapsed("poly:[1,-7,12]@(3.5,4.5)")
    for a, b in ((two, make_beta("poly:[1,-7,12]@(3.5,4.5)")),
                 (make_beta("poly:[1,-5,6]@(1.5,2.5)"), four), (two, four)):
        assert a.shift_to(b) is None and b.shift_to(a) is None
        assert a.beta_point() + 2 == b.beta_point()
    # 2 from (x - 2)(x + 1): beta + 1 keeps the root at zero of x(x - 3)
    two = collapsed("poly:[1,-1,-2]@(1.001,4)")
    three = two.plus_one()
    assert three.coeffs == (1, -3, 0)
    assert two.shift_to(three) == 1 and three.shift_to(two) == -1
    assert two.beta_point() + 1 == three.beta_point()


def test_shift_to_needs_two_exact_bases_with_shifted_polynomials():
    """A decimal base shifts only to a base of degree 1 whose value differs
    by an integer; the same root under two specs has shift 0, and a
    non-minimal polynomial whose values agree with another base's without
    being its shift falls back to the general equality."""
    from negabeta import densities_coincide

    dec, golden = make_beta("dec:1.5"), make_beta("pisot2:p=1,q=1")
    assert dec.shift_to(make_beta("dec:2.5")) == 1 and make_beta("dec:2.5").shift_to(dec) == -1
    assert dec.shift_to(make_beta("dec:1.8")) is None
    for a, b in ((dec, golden), (golden, dec)):
        assert a.shift_to(b) is None
    other = make_beta("poly:[1,-1,-1]@(1.6,1.7)")
    assert golden.shift_to(other) == 0 and other.shift_to(golden) == 0
    with pytest.raises(SpecError, match="bases must differ"):
        densities_coincide(golden, other)
    # (x^2 - x - 1)(x - 5) against (x^2 - 3x + 1)(x - 9): the x^2 terms name
    # t = 2, which does not carry one polynomial onto the other
    phi5 = make_beta("poly:[1,-6,4,5]@(1.5,1.7)")
    for spec in ("poly:[1,-12,28,-9]@(2.5,2.7)", "poly:[1,-3,1]@(2.5,3)"):
        up = make_beta(spec)
        assert phi5.shift_to(up) is None and up.shift_to(phi5) is None
        assert phi5.beta_point() + 1 == up.beta_point()
        assert phi5.beta_point() + 2 != up.beta_point()


def test_points_of_shifted_bases_meet_by_a_taylor_shift(bench_workloads):
    """A point y of beta + t, coerced into beta's field, is exactly the
    point that beta's own arithmetic builds from the same coordinates on
    beta + t (representatives of degree below d are unique)."""
    rng = random.Random(20261019)
    for spec in bench_workloads.CLI_BASES:
        beta = make_beta(spec)
        for t, other in ((1, beta.plus_one()), (2, beta.plus_one().plus_one())):
            for _ in range(3):
                coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                          for _ in range(beta.degree)]
                y = numerics.FieldPoint(other, coeffs)
                direct = sum(c * (beta.beta_point() + t) ** i for i, c in enumerate(coeffs))
                x = beta.one()._coerce(y)
                assert (x.beta, x.num, x.den) == (beta, direct.num, direct.den)
                assert y == direct and direct == y
                back = other.one()._coerce(direct)
                assert (back.num, back.den) == (y.num, y.den)
    with pytest.raises(SpecError, match="different bases"):
        make_beta("pisot2:p=1,q=1").one() + make_beta("multinacci:q=1,m=3").one()


# reducible: (x - 3)(x^2 - x - 1), (x + 1)(x^2 - x - 1) and (x - 2)(x + 1)
REDUCIBLE_SPECS = ("poly:[1,-4,2,3]@(1.5,2.0)", "poly:[1,0,-2,-1]@(1.5,2)", "poly:[1,-1,-2]@(1.001,4)")


def _sympy_irreducible(poly):
    """Is the integer polynomial ``poly`` (lowest degree first) irreducible over Q?"""
    import sympy

    return sympy.Poly(list(reversed(poly)), sympy.Symbol("x"), domain="QQ").is_irreducible


def test_field_proof_against_sympy(bench_workloads):
    """A proof never names a reducible f, and every irreducible f of degree
    <= 3 in the sample is proved: the benchmark bases and their +1 bases
    (36 of the 40 proved: not the two of degree 4 nor their +1 bases),
    x^2 - qx - p (p <= 8, q <= 6) and their +1 bases, three reducible
    bases, every quadratic with coefficients in [-6, 6] and every cubic
    with coefficients in [-3, 3] (leading and constant term nonzero).  The
    reducible base solved from |311133 is not proved."""
    import itertools

    from negabeta.expansion import EvPeriodic
    from negabeta.solver import beta_from_expansion

    corpus = [make_beta(s) for s in bench_workloads.CLI_BASES]
    corpus += [b.plus_one() for b in corpus]
    assert sum(b.field_proved for b in corpus) == 36
    assert [b.degree for b in corpus if not b.field_proved] == [4, 4, 4, 4]
    bases = [make_beta(s) for s in REDUCIBLE_SPECS]
    bases += [Beta.root_above_one((-p, -q, 1), q, q + p) for q in range(1, 7) for p in range(1, 9)]
    bases += [b.plus_one() for b in bases] + corpus
    for b in bases:
        irreducible = _sympy_irreducible(b.poly)
        assert b.field_proved == (irreducible and b.degree <= 3), b.spec_string()
    assert not any(make_beta(s).field_proved for s in REDUCIBLE_SPECS)
    assert not beta_from_expansion(EvPeriodic.parse("|311133")).field_proved
    assert make_beta("dec:1.8").field_proved  # degree 1
    nonzero = [c for c in range(-6, 7) if c]
    quadratics = itertools.product(nonzero, range(-6, 7), nonzero)
    nonzero = [c for c in range(-3, 4) if c]
    cubics = itertools.product(nonzero, range(-3, 4), range(-3, 4), nonzero)
    for f in itertools.chain(quadratics, cubics):
        assert polys.proved_irreducible(f) == _sympy_irreducible(f), f
    assert polys.proved_irreducible((-3, 2)) and not polys.proved_irreducible((1, 0, 0, 0, 1))


def test_quadratic_irreducibility_against_sympy():
    """A quadratic is proved irreducible exactly when sympy finds it so: on
    all 5,970 primitive A x^2 + B x + C with A > 0, C != 0 and coefficients
    in [-12, 12], and on x^2 - (1 + the product of the primes below 50),
    which has a root modulo each of those primes."""
    import itertools

    primes = [p for p in range(2, 50) if all(p % q for q in range(2, p))]
    witness = (-(1 + math.prod(primes)), 0, 1)
    assert witness == (-614889782588491411, 0, 1)
    assert all(any((x * x + witness[0]) % p == 0 for x in range(p)) for p in primes)
    assert polys.proved_irreducible(witness) and _sympy_irreducible(witness)
    box = range(-12, 13)
    quadratics = [(c, b, a) for a, b, c in itertools.product(range(1, 13), box, box)
                  if c and math.gcd(a, b, c) == 1]
    assert len(quadratics) == 5970
    for f in quadratics:
        assert polys.proved_irreducible(f) == _sympy_irreducible(f), f


def test_beta_hash_is_cached_and_agrees_with_equality(count_calls):
    """A base's hash is the hash of its fields, computed once; equal bases
    made apart hash alike, and a shift lookup hashes no Fraction."""
    for spec in ("pisot2:p=1,q=1", "poly:[1,0,-1,-1]@(1.2,1.4)", "dec:1.8"):
        a, b = make_beta(spec), make_beta(spec)
        assert a is not b and a == b and hash(a) == hash(b)
        assert hash(a) == hash((a.kind, a.coeffs, a.iso)) == a.__dict__["_hash"]
    beta = make_beta("multinacci:q=1,m=3")
    up = beta.plus_one()
    for repeat in range(2):
        calls = count_calls(Fraction, "__hash__")
        assert beta.shift_to(up) == 1 and up.beta_point() == beta.beta_point() + 1
        assert calls["__hash__"] == (0 if repeat else 4)  # two Fractions in each iso


@pytest.mark.parametrize("spec,proved", [
    ("pisot2:p=1,q=1", True), ("poly:[1,0,-1,-1]@(1.2,1.4)", True), ("poly:[2,-3]@(1.25,1.75)", True),
    ("poly:[-1,1,1]@(1.5,2)", True), ("poly:[2,-3,-1]@(1.5,2)", True),
    ("poly:[3,-1,-5,-2]@(1.5,2)", False), ("poly:[1,-4,2,3]@(1.5,2.0)", False),
    ("multinacci:q=1,m=4", False), ("poly:[1,-3,1,-1,1,-3,2]@(2.5,4)", False)])
def test_field_points_are_reduced(spec, proved):
    """Every point that +, -, *, /, **, times_beta, over_beta, inverse, the
    coercion of a point of beta + 1 and Beta.one build is a d-tuple of ints over a
    positive den with gcd(den, *num) = 1, on bases with and without a
    proof (monic and not, a negative leading coefficient, linear, and
    reducible f); the identities that hold on any base, and the sign of
    each point, give == and is_zero the same answer on both."""
    from negabeta.numerics import FieldPoint

    beta, rng = make_beta(spec), random.Random(spec)
    assert beta.field_proved == proved
    d, up = beta.degree, beta.plus_one()

    def reduced(x):
        assert x.beta is beta and len(x.num) == d and all(type(c) is int for c in x.num + (x.den,))
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        return x

    pool = [reduced(beta.one()), reduced(beta.beta_point()), reduced(beta.point_from_rational(0))]
    for trial in range(12):
        x = reduced(FieldPoint(beta, [_random_rational(rng, trial % 3 == 0) for _ in range(d)]))
        y = reduced(beta.one()._coerce(FieldPoint(up, [_random_rational(rng) for _ in range(up.degree)])))
        r = _random_rational(rng)
        z = reduced(rng.choice(pool))
        built = [x + y, x - y, x * y, y - x, x + r, r - x, x * r, -x, x ** 3, x.times_beta(),
                 x.over_beta(), x.over_beta(-1), x * z, z + y, x + 2, 3 - x, x * 0,
                 beta.beta_point() * (r or 1)]
        if r:
            built.append(x / r)
        if not y.is_zero():
            built += [x / y, y.inverse(), reduced(x * y) / y]
            assert (x * y) / y == x and y * y.inverse() == 1
        assert (x + y) - y == x and x.times_beta() == x * beta.beta_point()
        assert x * 0 == 0 and (x - x).is_zero() and x - x == 0
        assert not x + Fraction(1, 10**30) == x and not (x + Fraction(1, 10**30) - x).is_zero()
        pool += [reduced(p) for p in built]
        assert all(p.is_zero() == (p.sign() == 0) == (p == 0) for p in built)


def test_sturm_counts_evaluate_each_chain_element_once_per_endpoint(count_calls):
    """A Sturm count evaluates every chain element once at each endpoint and
    reads the endpoint test off the first: the golden ratio costs 2 signs
    to push its left end above 1 and 3 per endpoint of its chain.  A root
    at an endpoint and a count other than one keep their messages."""
    calls = count_calls(polys, "sign_at")
    make_beta("pisot2:p=1,q=1")
    assert calls["sign_at"] == 8
    with pytest.raises(SpecError, match="^isolating interval endpoints must not be roots$"):
        make_beta("poly:[1,-3,2]@(2,3)")
    with pytest.raises(SpecError, match="^isolating interval must contain exactly one real root$"):
        make_beta("poly:[1,-1,-1]@(2,3)")
    assert polys.isolates(polys.sturm_chain((-1, -1, 1)), Fraction(3, 2), 2)
    assert not polys.isolates(polys.sturm_chain((2, -3, 1)), 2, 3)


def test_over_beta_against_the_inverse(bench_workloads):
    """x.over_beta() is x / beta: times beta it gives x back, and it is x
    times beta.inverse(), which runs an extended remainder sequence and a
    full product instead of the companion step; coordinates are compared
    where f(0) != 0, since then x is a unit of Q[x]/(f) and x / beta has
    one reduced representative.  Seeded points of the benchmark bases,
    their beta + 1, the cell bases, a non-monic f, a reducible f and an f
    with f(0) = 0; over_beta(-1) is the negated quotient, and a decimal
    base divides by its rational value."""
    from negabeta.numerics import FieldPoint

    specs = list(bench_workloads.CLI_BASES)
    specs += [make_beta(s).plus_one().spec_string() for s in bench_workloads.CLI_BASES]
    specs += CELL_BASES + ["poly:[2,-3,-1]@(1.5,2)", "poly:[1,-4,2,3]@(1.5,2.0)",
                           "poly:[1,-3,0]@(2.5,3.5)"]
    rng = random.Random(47)
    at_zero = 0
    for spec in specs:
        beta = make_beta(spec)
        b, binv = beta.beta_point(), beta.beta_point().inverse()
        points = [beta.one(), b] + [FieldPoint(beta, [_random_rational(rng, big) for _ in range(beta.degree)])
                                    for big in (False, True, False)]
        for x in points:
            q = x.over_beta()
            assert q * b == x and q == x * binv
            assert x.over_beta(-1) == -q
            if beta.poly[0]:
                assert (q.num, q.den) == ((x * binv).num, (x * binv).den)
                assert ((q * b).num, (q * b).den) == (x.num, x.den)
                assert (x.over_beta(-1).num, x.over_beta(-1).den) == ((-q).num, (-q).den)
            else:
                at_zero += 1
    assert at_zero == 5
    dec = make_beta("dec:1.5")
    for r in (Fraction(1), Fraction(-7, 9), Fraction(2, 3) ** 40):
        assert dec.point_from_rational(r).over_beta() == r / Fraction(3, 2)
        assert dec.point_from_rational(r).over_beta(-1) == -r / Fraction(3, 2)


@pytest.mark.parametrize("spec", ["poly:[4,-7,-3]@(2,3)", "poly:[12,-20,-9,-6]@(2,3)",
                                  "poly:[2,-5,-1,0]@(2,3)", "dec:1.005"])
def test_companion_steps_reduce_as_the_full_gcd(spec, monkeypatch):
    """times_beta, map_step given a digit, and over_beta divide out common
    factors at the primes of f_0 f_d alone (``Beta._step_modulus``), and
    still give the (num, den) of one gcd over the full coordinates
    (``numerics._reduce`` replaced by it): along seeded chains of steps from
    seeded points whose coordinates carry powers of small primes, on bases
    with repeated primes in f_0 and f_d (4x^2 - 7x - 3, 12x^3 - 20x^2 -
    9x - 6, and 200x - 201 for dec:1.005) and on 2x^3 - 5x^2 - x, whose
    f_0 = 0 takes the full gcd."""
    from negabeta.numerics import FieldPoint

    beta = make_beta(spec)
    primes = (2, 3, 5, 7, 67)

    def coordinate(rng):
        num = rng.randint(-10**6, 10**6) * math.prod(rng.choice(primes) for _ in range(rng.randint(0, 4)))
        return Fraction(num, math.prod(rng.choice(primes) for _ in range(rng.randint(0, 6))))

    def chains():
        rng, out = random.Random(spec), []
        starts = [[coordinate(rng) for _ in range(beta.degree)] for _ in range(8)]
        # (f - f_0) / x over an odd denominator: its companion step is the
        # rational -f_0, which is 0 when f_0 = 0
        m = 3 * coordinate(rng).denominator
        starts.append([Fraction(c, m) for c in beta.poly[1:]])
        for coords in starts:
            x = FieldPoint(beta, coords)
            for i in range(40):
                u = rng.random()
                if i == 0 or u < 0.35:
                    x = x.times_beta()
                elif u < 0.5:
                    _, x = x.map_step(rng.randint(-3, 3))  # d - beta x, the digit given
                else:
                    x = x.over_beta(rng.choice((1, -1)))
                assert x.den > 0 and math.gcd(x.den, *x.num) == 1
                out.append((x.num, x.den))
        return out

    stepped = chains()

    def full_gcd(num, den, r=0):
        g = math.gcd(den, *num)
        return tuple(c // g for c in num), den // g

    monkeypatch.setattr(numerics, "_reduce", full_gcd)
    assert stepped == chains()


@pytest.mark.parametrize("dec_spec,twin_spec", [
    ("dec:1.8", "poly:[5,-9]@(1.7,1.9)"), ("dec:1.005", "poly:[200,-201]@(1.0049,1.0051)")])
def test_decimal_bases_equal_their_poly_twins(dec_spec, twin_spec):
    """A dec: base and the degree-1 poly: base of the same rational give
    coordinate-equal orbit points and the same digits at budget 800, and
    equal density_at values at tol 10^-12; the two bases differ only in
    their renderings."""
    from negabeta import density_at, orbit_of_one

    dec, twin = make_beta(dec_spec), make_beta(twin_spec)
    assert dec != twin and dec.shift_to(twin) == 0
    assert (dec.spec_string(), twin.spec_string()) == (dec_spec, twin_spec)
    a, b = orbit_of_one(dec, 800), orbit_of_one(twin, 800)
    assert (a.kind, a.digits) == (b.kind, b.digits)
    assert [(p.num, p.den) for p in a.points] == [(p.num, p.den) for p in b.points]
    u, v = (density_at(beta, Fraction(1, 2), Fraction(1, 10**12)) for beta in (dec, twin))
    assert (u.num, u.den) == (v.num, v.den) and u == v


QUADRATIC_SPECS = ("pisot2:p=1,q=1", "pisot2:p=3,q=5", "poly:[2,-3,-1]@(1.5,2)",
                   "poly:[1,-5,5]@(1.2,2)", "poly:[-3,5,4]@(2,3)", "poly:[3,-2,-7]@(1.5,2)",
                   "poly:[1,-1,-2]@(1.5,3)")


def _sympy_sign(value):
    """The sign of an exact sympy number: exact for a rational, else read
    off 1,300 digits and asserted far from 0."""
    import sympy

    value = sympy.expand(value)
    if value.is_Rational:
        return int(sympy.sign(value))
    v = value.evalf(1300)
    assert abs(v) > sympy.Rational(1, 10**1000)
    return 1 if v > 0 else -1


def _sympy_floor(value):
    """The floor of an exact sympy number, as ``_sympy_sign`` decides signs."""
    import sympy

    value = sympy.expand(value)
    if value.is_Rational:
        return int(sympy.floor(value))
    v = value.evalf(1300)
    f = int(sympy.floor(v))
    assert min(v - f, f + 1 - v) > sympy.Rational(1, 10**1000)
    return f


@pytest.mark.parametrize("spec", QUADRATIC_SPECS)
def test_quadratic_decisions_against_sympy_surds(spec, count_calls):
    """On quadratic bases (monic, non-monic, a negative leading coefficient,
    the smaller root of f, and x^2 - x - 2 with its rational root 2),
    math.floor, sign, compare and floor_value agree with sympy on the
    exact surd, the root of f in the isolating interval.  The points are
    seeded: random coordinates with numerators and denominators scaled up
    to 10^200, and points within 2^-140 of an integer on both sides, with
    sqrt(D) coefficients far below and far above their denominators.  No
    call evaluates an enclosure, and the base keeps its isolating interval;
    only floor_value on the integer root 2 turns it into the point (2, 2)."""
    import sympy

    from negabeta.numerics import FieldPoint

    beta, rng = make_beta(spec), random.Random(spec)
    lo, hi = beta.iso
    (root,) = [r for r in sympy.Poly(beta.coeffs, sympy.Symbol("x")).real_roots() if lo < r < hi]

    def exact(x):
        return (x.num[0] + x.num[1] * root) / sympy.Integer(x.den)

    def scaled():
        return 10 ** rng.choice([0, 0, 20, 200])

    points = [FieldPoint(beta, [Fraction(rng.randint(-10**6, 10**6) * scaled(),
                                         rng.randint(1, 10**4) * scaled()) for _ in range(2)])
              for _ in range(16)]
    # n + (beta - r) 2^-60 and n + (beta - r') 3^76 for r within 2^-80 of
    # beta and r' on the 3^-170 grid within 2^-260, below and above: small
    # and large sqrt(D) terms, the latter with no zero low bits
    mid = bisect_root(beta.coeffs, lo, hi, Fraction(1, 2**82))
    deep = bisect_root(beta.coeffs, lo, hi, Fraction(1, 2**262))
    for n in (-3, 0, 1, 10**200):
        for e in (1, -1):
            points.append(n + (beta.beta_point() - mid - e * Fraction(1, 2**81)) / 2**60)
            r = Fraction(round((deep + e * Fraction(1, 2**261)) * 3**170), 3**170)
            points.append(n + (beta.beta_point() - r) * 3**76)
    points += [beta.point_from_rational(Fraction(-7, 3)), beta.point_from_rational(5)]
    calls = count_calls(polys, "int_eval_interval")
    for x in points:
        value, f = exact(x), math.floor(x)
        assert f == _sympy_floor(value)
        assert x.sign() == _sympy_sign(value)
        for r in (f, f + 1, Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))):
            assert x.compare(r) == _sympy_sign(value - r)
        y = rng.choice(points)
        assert x.compare(y) == _sympy_sign(value - exact(y))
    assert beta.interval() == beta.iso
    assert beta.floor_value() == _sympy_floor(root)
    assert beta.interval() == (beta.iso if beta.field_proved else (Fraction(2), Fraction(2)))
    assert calls == {}


@pytest.mark.parametrize("spec", ["multinacci:q=1,m=3", "multinacci:q=2,m=3",
                                  "poly:[1,0,-1,-1]@(1.2,1.4)"])
def test_rendering_level_cap_check_is_sound(spec, monkeypatch):
    """The check that fails a rendering before 10^digits is formed fires
    only where refinement to the level cap leaves the floor of x 10^digits
    undecided, and at most 3 digits after refinement first fails.  Cubic
    bases, whose floors still refine, with the cap lowered to 300; points
    over denominators up to 2^90 need up to about 27 digits more."""
    from negabeta.errors import PrecisionExhausted
    from negabeta.numerics import FieldPoint

    def raises(f, *args):
        try:
            f(*args)
        except PrecisionExhausted as exc:
            assert "level cap" in str(exc)
            return True
        return False

    monkeypatch.setattr(numerics, "MAX_REFINE_LEVEL", 300)
    rng = random.Random(spec)
    for scale in (1, 1, 2**45, 2**90):
        beta = make_beta(spec)
        x = FieldPoint(beta, [Fraction(rng.randint(-50, 50), rng.randint(1, 30) * scale)
                              for _ in range(3)])
        fired, failed = [], []
        for digits in range(60, 150):
            if raises(numerics._check_level_cap, x, digits):
                fired.append(digits)
            if raises(lambda: math.floor(x * 10**digits)):
                failed.append(digits)
        assert set(fired) <= set(failed) and fired and fired[0] <= failed[0] + 3


def _solved_quintic():
    """The first root of degree >= 5 that approx solves from the tribonacci
    number: a base whose polynomial is not proved irreducible."""
    from negabeta.solver import approximate_simple_numbers

    results = approximate_simple_numbers(make_beta("multinacci:q=1,m=3"), 6)
    return next(r.beta_n for r in results if r.beta_n is not None and r.beta_n.degree >= 5)


@pytest.mark.parametrize("spec", ["multinacci:q=1,m=4", "poly:[1,-2,1,-2,1]@(1.5,2)", "solved"])
def test_straddles_need_no_gcd(spec, count_calls):
    """On bases not proved irreducible, a point near an integer n whose
    enclosure holds n is settled by refinement alone: math.floor, sign and
    compare agree with sympy and run no gcd zero test.  Each seeded point
    is n + e (beta^j - r) on a fresh base refined to 2^-12, with r moved
    2^-1 .. 2^-5 of the enclosure of beta^j from its value toward the
    enclosure's middle, so that the enclosure of the point holds n."""
    import sympy

    spec = _solved_quintic().spec_string() if spec == "solved" else spec
    beta, rng = make_beta(spec), random.Random(spec)
    assert not beta.field_proved and beta._surd is None
    lo, hi = beta.iso
    (root,) = [r for r in sympy.Poly(beta.coeffs, sympy.Symbol("x")).real_roots() if lo < r < hi]
    root = sympy.N(root, 80)

    def oracle_floor(v):
        f = int(sympy.floor(v))
        assert min(v - f, f + 1 - v) > sympy.Rational(1, 10**60)
        return f

    straddles = 0
    for _ in range(16):
        beta = make_beta(spec)
        beta.refine(Fraction(1, 2**12))
        n, e, j, k = rng.choice([-2, 0, 1, 3]), rng.choice([1, -1]), rng.randint(1, 3), rng.randint(1, 5)
        power = beta.beta_point() ** j
        a, b, s = power._search(lambda *_: True, None, "")
        v = root**j
        toward = 1 if v < sympy.Rational(a + b, 2 * s) else -1
        r = Fraction(int(sympy.floor((v + toward * sympy.Rational(b - a, s * 2**k)) * 2**300)), 2**300)
        x = n + e * (power - r)
        value = n + e * (v - sympy.Rational(r.numerator, r.denominator))
        xa, xb, xs = x._search(lambda *_: True, None, "")
        straddles += xa <= n * xs <= xb
        calls = count_calls(polys, "cofactor_gcd")
        f = oracle_floor(value)
        assert math.floor(x) == f
        assert x.compare(n) == (1 if value > n else -1)
        assert (x - n).sign() == x.compare(n)
        assert x.sign() == (1 if value > 0 else -1)
        for m in (f, f + 1):
            assert x.compare(m) == (1 if value > m else -1)
        assert calls == {}
    assert straddles == 16


def test_exact_hits_stay_exact(monkeypatch, count_calls):
    """On the reducible base (x^2 - x - 1)(x^2 + 1), beta is the golden
    ratio and y = 1 - beta + beta^2 is exactly 2: no refinement separates y
    from 2, so each decision ends in one gcd zero test and answers 0, also
    when the level cap lies a few levels above the current level (the
    search before the zero test stops at the cap instead of raising)."""
    beta = make_beta("poly:[1,-1,0,-1,-1]@(1.5,1.75)")
    assert not beta.field_proved and beta._surd is None
    b = beta.beta_point()
    y = 1 - b + b * b
    assert any(y.num[1:])
    calls = count_calls(polys, "cofactor_gcd")
    assert math.floor(y) == 2 and calls["cofactor_gcd"] == 1
    assert y.compare(2) == 0 and calls["cofactor_gcd"] == 2
    assert (y - 2).sign() == 0 and calls["cofactor_gcd"] == 3
    monkeypatch.setattr(numerics, "MAX_REFINE_LEVEL", beta._cells.level + 3)
    assert math.floor(y) == 2 and y.compare(2) == 0 and (y - 2).sign() == 0
    assert y.compare(Fraction(5, 2)) == -1 and y == 2
    assert calls["cofactor_gcd"] == 7


def test_corpus_runs_no_zero_test_on_unproved_bases(bench_workloads, monkeypatch):
    """Every near miss that the heavy benchmark requests meet on a base not
    proved irreducible (64 gcd zero tests before refinement came first) is
    settled by refinement: none of them runs ``is_zero`` on such a base,
    and their outputs stay equal to the goldens."""
    import hashlib

    from negabeta import cli
    from negabeta.numerics import FieldPoint

    unproved = []
    is_zero = FieldPoint.is_zero

    def counted(x):
        if not x.beta.field_proved:
            unproved.append(x)
        return is_zero(x)

    monkeypatch.setattr(FieldPoint, "is_zero", counted)
    goldens = bench_workloads.load_goldens()["cli"]
    for argv in bench_workloads.CLI_HEAVY:
        code, out = bench_workloads.run_cli(cli, argv)
        g = goldens[bench_workloads.golden_key(argv)]
        assert (code, hashlib.sha256(out).hexdigest()) == (g["exit"], g["sha256"]), argv
    assert unproved == []


@pytest.mark.parametrize("spec", ["multinacci:q=1,m=3", "multinacci:q=1,m=4", "pisot2:p=1,q=1"])
def test_early_str_limit_check_keeps_every_outcome(spec, monkeypatch):
    """The check that fails an irrational rendering past the int-to-str
    limit before 10^digits is formed changes no outcome: for each digits
    count, point_decimal_str raises what the level cap check, the exact
    floor and the limit raise in that order, and the check itself fires
    only where the floor passes the limit.  With the limit lowered to 640
    digits and the level cap to 2,400, digits 600..760 run through every
    outcome: a rendering, the limit, and PrecisionExhausted."""
    import sys

    from negabeta.errors import PrecisionExhausted
    from negabeta.numerics import FieldPoint

    def outcome(f):
        try:
            f()
        except (PrecisionExhausted, SpecError) as exc:
            return type(exc).__name__
        return "ok"

    def reference(x, digits):
        numerics._check_level_cap(x, digits)
        y = x * 10**digits
        n = math.floor(y)
        if max(n, math.floor(-y)) >= 10**limit:
            raise SpecError("beyond the limit")

    monkeypatch.setattr(numerics, "MAX_REFINE_LEVEL", 2400)
    old, limit = sys.get_int_max_str_digits(), 640
    sys.set_int_max_str_digits(limit)
    try:
        rng = random.Random(spec)
        seen = set()
        for scale in (1, 2**40, Fraction(1, 2**40)):
            beta = make_beta(spec)
            beta.refine(Fraction(1, 2**30))
            d = beta.degree
            x = FieldPoint(beta, [Fraction(rng.randint(-50, 50) * scale, rng.randint(1, 30))
                                  for _ in range(d - 1)] + [Fraction(rng.choice([-1, 1]))])
            fired = []
            for digits in range(600, 761, 4):
                got = outcome(lambda: numerics.point_decimal_str(x, digits))
                assert got == outcome(lambda: reference(x, digits)), digits
                if outcome(lambda: numerics._check_str_limit(x, digits)) == "SpecError":
                    capped = outcome(lambda: numerics._check_level_cap(x, digits))
                    assert got == ("PrecisionExhausted" if capped != "ok" else "SpecError")
                    fired.append(digits)
                seen.add(got)
            assert fired
        assert seen == {"ok", "SpecError", "PrecisionExhausted"}
    finally:
        sys.set_int_max_str_digits(old)
