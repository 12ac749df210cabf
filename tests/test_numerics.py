import math
import random
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from negabeta import SpecError, expand, floor_beta_times, make_beta
from negabeta import numerics, polys
from negabeta.numerics import Beta


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
    Python's operators."""
    src = Path(numerics.__file__).parent
    pattern = re.compile(r"isinstance\([^)]*FieldPoint|\.is_exact|\bbeta[0-9]?\.value\b|\bb\.value\b")
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py")) if path.name != "numerics.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


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
    what a step-by-step loop returns, and leave the base in its state."""
    import sympy

    from negabeta.numerics import FieldPoint

    rng = random.Random(spec)
    specs = [spec, make_beta(spec).plus_one().spec_string()] if spec.startswith("pisot2") \
        else [spec]
    for trial in range(24):
        beta = make_beta(specs[trial % len(specs)])
        assert sympy.Poly(beta.coeffs, sympy.Symbol("x")).is_irreducible
        oracle = _LinearRefinement(beta)
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
                assert x.sign() == oracle.sign(vec)
            elif op == "floor":
                assert math.floor(x) == oracle.floor(vec)
            elif op == "refine":
                assert beta.refine(width) == oracle.refine(width)
            else:
                assert beta.floor_value() == oracle.floor_value()
            assert beta.interval() == oracle.interval()


def test_rational_roots_keep_their_level():
    """A midpoint root and the integer root found by floor_value end the
    bisection at the level where they appear."""
    beta = make_beta("poly:[2,-3]@(1.25,1.75)")
    assert beta.interval() == (Fraction(5, 4), Fraction(7, 4))
    beta.refine(Fraction(3, 8))  # one level below the width 1/2
    assert beta.interval() == (Fraction(3, 2), Fraction(3, 2))
    beta.refine(Fraction(3, 16))
    assert beta.interval() == (Fraction(3, 2), Fraction(3, 2))
    fresh = make_beta("poly:[2,-3]@(1.25,1.75)")
    assert fresh.refine(Fraction(1, 2**40)) == (Fraction(3, 2), Fraction(3, 2))
    b = fresh.beta_point()
    assert (b * b).interval(Fraction(1, 10)) == (Fraction(9, 4), Fraction(9, 4))
    assert math.floor(b * b) == 2 and (b - Fraction(3, 2)).sign() == 0
    for spec in ("poly:[1,-2]@(1.5,2.75)", "poly:[1,-2,1,-2]@(1.5,2.75)"):
        beta = make_beta(spec)
        assert beta.floor_value() == 2
        assert beta.interval() == (Fraction(2), Fraction(2))
        assert beta.refine(Fraction(1, 2**30)) == (Fraction(2), Fraction(2))
        assert math.floor(beta.beta_point()) == 2


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


def test_orbit_enclosures_are_found_by_search(monkeypatch):
    """The orbit of 1 of the plastic base evaluates few enclosures; a loop
    that evaluates one per bisection step makes 89."""
    from negabeta.expansion import orbit_of_one

    calls = []
    kernel = polys.int_eval_interval
    monkeypatch.setattr(polys, "int_eval_interval", lambda *a: calls.append(1) or kernel(*a))
    rec = orbit_of_one(make_beta("poly:[1,0,-1,-1]@(1.2,1.4)"))
    assert rec.kind == "eventually-periodic"
    assert 0 < len(calls) <= 30


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


def test_renderings_past_the_int_to_str_limit_raise_spec_error():
    """A rational or decimal rendering past Python's int-to-str limit raises
    SpecError (exit 2 in the CLI), as ``orbit --beta dec:1.7`` reaches at
    the default budget."""
    big = Fraction(10**5000 + 1, 3)
    for render in (numerics.format_rational, lambda r: numerics.point_decimal_str(r, 0)):
        with pytest.raises(SpecError, match="int-to-str limit"):
            render(big)


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
    """count_roots, poly_gcd and squarefree_part on integer polynomials up to
    degree 12 (repeated factors, negative leading coefficients, rational
    roots) agree with sympy's root counts, gcd and squarefree part."""
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
        sf = sympy.Poly(list(reversed(polys.squarefree_part(a))), x)
        assert sf.degree() == sympy.sqf_part(p).degree()
        assert sf.monic() == sympy.sqf_part(p).monic() and sf.LC() > 0
        common = _sympy_int_poly(rng, x)
        p, q = p * common, _sympy_int_poly(rng, x) * common
        g = polys.poly_gcd(_low_first(p), _low_first(q))
        expected = sympy.gcd(p, q)
        assert len(g) - 1 == expected.degree()
        assert sympy.Poly(list(reversed(g)), x).monic() == expected.monic() and g[-1] > 0


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
    from negabeta.measure import _charpoly, _mult_matrix
    from negabeta.solver import value_equation_poly

    deleted = ("Poly", "ZERO", "make_poly", "degree", "poly_eval", "poly_add", "poly_neg",
               "poly_sub", "poly_mul", "poly_divmod", "poly_mod", "shift_poly")
    assert [name for name in deleted if hasattr(polys, name)] == []

    def int_tuple(p):
        return type(p) is tuple and all(type(c) is int for c in p)

    f = (-2, 1, -4, 3, 6, -1, 2)
    beta = make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")
    x = beta.beta_point() * Fraction(3, 7) + Fraction(1, 2)
    built = [polys.primitive(f), polys.squarefree_part(f), polys.poly_gcd(f, (1, 1)),
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

    from negabeta.measure import _charpoly

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
