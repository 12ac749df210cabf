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
from negabeta.errors import PrecisionExhausted, SpecError
from negabeta.numerics import FieldPoint, as_point, point_decimal_str


def value_at(d, x):
    """The density d on the interval containing x, for 0 < x <= 1."""
    x = as_point(d.beta, x)
    if not 0 < x <= 1:
        raise SpecError("density is defined on (0, 1]")
    for i in range(len(d.values)):
        if x <= d.breakpoints[i + 1]:
            return d.values[i]
    return d.values[-1]


def check_invariance(d) -> bool:
    """Does the density satisfy exact invariance on its own intervals?

    The mass of every breakpoint interval must equal the mass of its full
    preimage, assembled branch by branch from the map's linear pieces.
    """
    beta = d.beta
    binv = 1 / beta.beta_point()
    amax = beta.alphabet_max
    one = as_point(beta, 1)
    zero = as_point(beta, 0)
    for i in range(len(d.values)):
        a, b = d.breakpoints[i], d.breakpoints[i + 1]
        direct = d.integral_raw(a, b)
        # the digit-1 branch maps onto all of [0, 1), so some piece is nonempty
        pulled = 0
        for dig in range(1, amax + 1):
            lo = max((dig - b) * binv, zero)
            hi = min((dig - a) * binv, one)
            if hi > lo:
                pulled = pulled + d.integral_raw(lo, hi)
        if direct != pulled:
            return False
    return True


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


def test_density_values_are_the_direct_definition(bench_workloads):
    """On the 20 benchmark bases, the simple bases approx solves from two
    of them and dec:2, the breakpoints run from 0 to 1, strictly
    increasing, through every orbit point of 1, and each value is the
    direct definition: the weights of the orbit points at or right of its
    breakpoint, summed by comparing every point with every breakpoint."""
    from negabeta import approximate_simple_numbers
    from negabeta.expansion import DEFAULT_BUDGET
    from negabeta.measure import _orbit_weights

    bases = [make_beta(spec) for spec in bench_workloads.CLI_BASES] + [make_beta("dec:2")]
    for spec, count in (("pisot2:p=1,q=1", 8), ("poly:[1,0,-1,-1]@(1.2,1.4)", 6)):
        bases += [r.beta_n for r in approximate_simple_numbers(make_beta(spec), count)
                  if r.beta_n is not None]
    assert len(bases) >= 30
    for beta in bases:
        d, pairs = density(beta), _orbit_weights(beta, DEFAULT_BUDGET)
        bps = d.breakpoints
        assert bps[0] == 0 and bps[-1] == 1 and len(bps) == len(pairs) + 1
        assert all(a < b for a, b in zip(bps, bps[1:]))
        assert all(any(x == bp for bp in bps[1:]) for x, _w in pairs)
        expected = [sum(w for x, w in pairs if x >= rep) for rep in bps[1:]]
        assert len(d.values) == len(expected)
        assert all(v == e for v, e in zip(d.values, expected))


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
            assert (density_at(beta, x) - value_at(d, x)).is_zero()
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


@pytest.mark.parametrize("spec", ["dec:2.5", "pisot2:p=1,q=1"])
def test_density_at_runs_the_orbit_once(spec, count_calls):
    """An orbit of 1 that does not resolve within the term count (dec:2.5)
    gives the partial sum from the same record: one orbit, as for the
    golden ratio, whose orbit resolves."""
    from negabeta import measure

    calls = count_calls(measure, "orbit_of_one")
    density_at(make_beta(spec), Fraction(1, 3))
    assert calls["orbit_of_one"] == 1


@pytest.mark.parametrize("spec", ["pisot2:p=1,q=1", "dec:1.5", "dec:2.5", "dec:1.005",
                                  "multinacci:q=1,m=3", "poly:[1,0,-1,-1]@(1.2,1.4)"])
def test_density_at_counts_its_terms_exactly(spec, monkeypatch):
    """The term count is the least m with lo^m >= 1 / (tol (1 - 1/lo)),
    plus 2, for lo the left end of the base's cell narrower than 1/16: the
    float formula's count wherever floats hold the bound, and a count, not
    a division by zero, at tol = 10^-400, where the golden ratio and
    dec:1.5 (whose orbit does not resolve) return a point.  A count past
    the term cap raises PrecisionExhausted, which names the cap."""
    import math
    from negabeta import measure

    class Budget(Exception):
        pass

    def budget_of(beta, tol):
        def stop(_beta, n):
            raise Budget(n)

        with monkeypatch.context() as m:
            m.setattr(measure, "orbit_of_one", stop)
            try:
                density_at(beta, Fraction(1, 2), tol)
            except Budget as exc:
                return exc.args[0]
            except PrecisionExhausted as exc:
                assert "term cap MAX_DENSITY_TERMS" in str(exc) and "65536" in str(exc)
                return None
        raise AssertionError("density_at ran no orbit")

    beta = make_beta(spec)
    lo = beta.refine(Fraction(1, 16))[0]
    tols = [Fraction(c, 10**e) for e in range(1, 41) for c in (1, 3, 7)] + \
        [Fraction(1, 2**e) for e in range(1, 140)] + [Fraction(1, 10**e) for e in range(41, 301, 10)]
    capped = 0
    for tol in tols:
        bound = float(tol * (1 - 1 / lo))
        expected = max(2, math.ceil(math.log(1 / bound) / math.log(float(lo))) + 2)
        got = budget_of(beta, tol)
        assert got == (expected if expected <= measure.MAX_DENSITY_TERMS else None)
        capped += got is None
    assert capped == (16 if spec == "dec:1.005" else 0)
    tiny = Fraction(1, 10**400)
    n = budget_of(beta, tiny)
    if spec == "dec:1.005":
        assert n is None
        return
    assert lo ** (n - 2) * tiny * (1 - 1 / lo) >= 1 > lo ** (n - 3) * tiny * (1 - 1 / lo)
    if spec in ("pisot2:p=1,q=1", "dec:1.5"):
        point = density_at(make_beta(spec), Fraction(1, 2), tiny)
        assert isinstance(point, (Fraction, FieldPoint))


@pytest.mark.parametrize("spec", ["pisot2:p=1,q=1", "dec:1.5", "dec:2.5", "dec:1.005",
                                  "multinacci:q=1,m=3", "poly:[1,0,-1,-1]@(1.2,1.4)",
                                  "poly:[1,0,0,-5]@(1.7,1.72)", "poly:[1,0,0,0,-3]@(1.3,1.4)"])
def test_density_at_horner_sum_equals_the_term_sum(spec, count_calls, monkeypatch):
    """The value is the sum of the selected orbit weights term by term: a
    truncated orbit (the decimal bases, and the cube root of 5 and fourth
    root of 3, whose orbits of 1 do not resolve) sums them by Horner in
    -1/beta without building the weights; a resolved one keeps its folded
    weights."""
    from negabeta import measure
    from negabeta.expansion import orbit_of_one
    from negabeta.measure import _weights

    beta = make_beta(spec)
    tols = [Fraction(1, 10**3)] if spec == "dec:1.005" else \
        [Fraction(1, 2), Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**40)]
    calls = count_calls(measure, "orbit_of_one", "_weights")
    budgets = []
    counted = measure.orbit_of_one
    monkeypatch.setattr(measure, "orbit_of_one", lambda beta, n: budgets.append(n) or counted(beta, n))
    for x in (Fraction(1, 2), Fraction(3, 7), Fraction(1)):
        for tol in tols:
            calls.clear()
            budgets.clear()
            got = density_at(beta, x, tol)
            rec = orbit_of_one(beta, budgets[0])
            assert calls["orbit_of_one"] == 1 and calls["_weights"] == rec.resolved
            assert got == sum(w for pt, w in _weights(beta, rec) if pt >= x)
    assert rec.resolved == (spec in ("pisot2:p=1,q=1", "multinacci:q=1,m=3",
                                     "poly:[1,0,-1,-1]@(1.2,1.4)"))


def test_density_at_meets_its_tolerance_next_to_one():
    """dec:1.005 lies below 1.01, so its term count needs its own lower
    bound: at tol 10^-3 the value is within tol of a 4,000-term sum whose
    tail is below 10^-6, built on integers (points P / 200^k, weights
    (-200)^k / 201^k).  A count from 1.01 misses by three times tol."""
    tol, terms = Fraction(1, 1000), 4000
    assert Fraction(200, 201) ** terms * 201 < Fraction(1, 10**6)
    P, s, num = 1, 1, 0
    for k in range(terms):
        num = num * 201 + ((-200) ** k if 2 * P >= s else 0)
        y, s = 201 * P, 200 * s
        P = (y // s + 1) * s - y
    reference = Fraction(num, 201 ** (terms - 1))
    value = density_at(make_beta("dec:1.005"), Fraction(1, 2), tol)
    assert reference - tol < value < reference + tol


def test_density_at_term_cap_ends_promptly():
    """Bases next to 1 need more terms than the cap: the count ends in
    PrecisionExhausted naming the cap, without forming beta^cap."""
    import time

    for spec, tol in (("dec:1.0000001", Fraction(1, 10**12)), ("dec:1.00004", Fraction(1, 2)),
                      ("dec:1.00000000000000000001", Fraction(1, 10**400))):
        t0 = time.perf_counter()
        with pytest.raises(PrecisionExhausted, match="term cap MAX_DENSITY_TERMS"):
            density_at(make_beta(spec), Fraction(1, 2), tol)
        assert time.perf_counter() - t0 < 0.5


def _old_weights(beta, rec):
    """The weight chain as products: -1/beta from inverse(), its p-th power
    from __pow__, and one general product per weight."""
    neg_inv = -1 / beta.beta_point()
    k = rec.pre_len if rec.resolved else rec.budget
    scale = 1 / (1 - neg_inv ** rec.period_len) if rec.resolved else None
    pairs, w = [], beta.one()
    for n, x in enumerate(rec.points[:rec.budget]):
        pairs.append((x, w if n < k else w * scale))
        w = w * neg_inv
    return pairs


def test_weights_equal_the_product_chain(bench_workloads):
    """Weights by companion division equal, pair for pair and coordinate for
    coordinate, the chain of general products, on resolved orbits of the
    benchmark bases and their beta + 1, orbits truncated after 40 points,
    a non-monic, a reducible and an f(0) = 0 base, and decimal bases."""
    from negabeta.expansion import orbit_of_one
    from negabeta.measure import _weights

    def exact(w):
        return (w.num, w.den) if isinstance(w, FieldPoint) else (w.numerator, w.denominator)

    specs = list(bench_workloads.CLI_BASES) + ["poly:[2,-3,-1]@(1.5,2)", "poly:[1,-4,2,3]@(1.5,2.0)",
                                               "poly:[1,-3,0]@(2.5,3.5)", "dec:1.5", "dec:2", "dec:2.5"]
    bases = [make_beta(s) for s in specs]
    bases += [b.plus_one() for b in bases]
    kinds = set()
    for beta in bases:
        for budget in (40, 300):
            rec = orbit_of_one(beta, budget)
            kinds.add(rec.kind)
            got, want = _weights(beta, rec), _old_weights(beta, rec)
            assert len(got) == len(want) == rec.budget
            assert [(x, exact(w)) for x, w in got] == [(x, exact(w)) for x, w in want]
    assert kinds == {"periodic", "eventually-periodic", "truncated"}


def test_weights_take_one_inverse_and_one_product(bench_workloads, count_calls):
    """On a resolved orbit, the weights cost one inverse and one general
    product, the geometric factor times the first periodic weight."""
    from negabeta.expansion import orbit_of_one
    from negabeta.measure import _weights

    resolved = 0
    for spec in bench_workloads.CLI_BASES:
        beta = make_beta(spec)
        for base in (beta, beta.plus_one()):
            rec = orbit_of_one(base, 300)
            if rec.resolved:
                resolved += 1
                calls = count_calls(FieldPoint, "inverse", "__mul__")
                _weights(base, rec)
                assert calls["inverse"] == 1 and calls["__mul__"] <= 1, spec
    assert resolved >= 20


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
    assert m == m2
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


def test_quadratic_pair_prediction_takes_one_floor(count_calls):
    """"z = beta^2 - q beta is an integer p with 1 <= p <= q" is one floor and
    one equality, not an equality per candidate p: at most 3 == per
    prediction (with the two integer-base checks) whatever q is."""
    from negabeta.measure import _quadratic_pair_prediction
    from negabeta.numerics import FieldPoint

    calls = count_calls(FieldPoint, "__eq__")
    for spec, predicted in (("pisot2:p=50,q=50", True), ("pisot2:p=1000,q=1000", True),
                            ("pisot2:p=7,q=1000", True), ("poly:[1,-3,1]@(2.5,3)", False),
                            ("multinacci:q=1,m=3", False)):
        beta = make_beta(spec)
        calls.clear()
        assert _quadratic_pair_prediction(beta, beta.plus_one()) is predicted
        assert calls["__eq__"] <= 3
    assert _quadratic_pair_prediction(make_beta("dec:2.5"), make_beta("dec:3.5")) is False


def test_non_pairs_differ(phi, tribonacci):
    report = densities_coincide(phi, tribonacci)
    assert report.verdict == "Differ"
    assert report.predicted is False
    report = densities_coincide(phi, make_beta("dec:2.5"), budget=300)
    assert report.verdict == "Unresolved"


def _full_order_report(beta1, beta2, budget):
    """densities_coincide in its old order: both densities first, then the
    breakpoint counts, the breakpoints and the normalized values."""
    from negabeta.measure import CoincidenceReport, _quadratic_pair_prediction

    if beta1.beta_point() == beta2.beta_point():
        raise AssertionError("bases must differ")
    predicted = _quadratic_pair_prediction(beta1, beta2)
    try:
        d1 = density(beta1, budget)
        d2 = density(beta2, budget)
    except OrbitUnresolved:
        return CoincidenceReport("Unresolved", predicted, "an orbit did not resolve")
    in1, in2 = d1.breakpoints[1:-1], d2.breakpoints[1:-1]
    if len(in1) != len(in2):
        return CoincidenceReport("Differ", predicted,
                                 f"breakpoint counts differ ({len(in1)} vs {len(in2)})")
    for a, b in zip(in1, in2):
        if a != b:
            return CoincidenceReport("Differ", predicted, "breakpoints differ")
    for a, b in zip(d1.normalized_values(), d2.normalized_values()):
        if a != b:
            return CoincidenceReport("Differ", predicted, "normalized values differ")
    return CoincidenceReport("Coincide", predicted, "breakpoints and values agree")


def test_staged_verdicts_equal_the_full_order(bench_workloads):
    """Reading the evidence in order (orbits, counts, sorted breakpoints,
    then the densities) gives the report of building both densities first:
    on the corpus measure-compare argvs, on x^2 - qx - p (p <= 8, q <= 6)
    and the 20 benchmark bases against beta + 1 at budget 400, and on the
    golden ratio against tribonacci and dec:2.5 at budget 300."""
    from negabeta.expansion import DEFAULT_BUDGET
    from negabeta.numerics import Beta

    argvs = [a for a in bench_workloads.CLI_HEAVY if a[0] == "measure-compare"]
    assert len(argvs) == 11
    cases = [(make_beta(a[2]), make_beta(a[4]) if len(a) > 3 else make_beta(a[2]).plus_one(),
              DEFAULT_BUDGET) for a in argvs]
    bases = [Beta.root_above_one((-p, -q, 1), q, q + p) for q in range(1, 7) for p in range(1, 9)]
    bases += [make_beta(spec) for spec in bench_workloads.CLI_BASES]
    cases += [(b, b.plus_one(), 400) for b in bases]
    phi = make_beta("pisot2:p=1,q=1")
    cases += [(phi, make_beta("multinacci:q=1,m=3"), 300), (phi, make_beta("dec:2.5"), 300)]
    details = set()
    for beta1, beta2, budget in cases:
        staged = densities_coincide(beta1, beta2, budget)
        assert staged == _full_order_report(beta1, beta2, budget)
        details.add(staged.detail.split(" (")[0])
    assert details == {"an orbit did not resolve", "breakpoint counts differ",
                       "breakpoints differ", "breakpoints and values agree"}


@pytest.mark.parametrize("spec1,spec2,detail,weights", [
    ("multinacci:q=1,m=3", None, "breakpoint counts differ (2 vs 4)", 0),
    ("pisot2:p=1,q=2", "pisot2:p=2,q=2", "breakpoints differ", 0),
    ("pisot2:p=1,q=1", None, "breakpoints and values agree", 2),
])
def test_staged_verdict_builds_only_the_evidence_it_reads(spec1, spec2, detail, weights,
                                                          count_calls):
    """A verdict settled by the breakpoint counts runs one orbit per base and
    no weights and no inverse; one settled by the breakpoints runs no
    weights; a coincidence still runs exactly the two orbits."""
    from negabeta import measure

    beta1 = make_beta(spec1)
    beta2 = make_beta(spec2) if spec2 else beta1.plus_one()
    calls = count_calls(measure, "orbit_of_one", "_weights")
    inverses = count_calls(FieldPoint, "inverse")
    report = densities_coincide(beta1, beta2)
    assert report.detail == detail
    assert calls["orbit_of_one"] == 2 and calls["_weights"] == weights
    if detail.startswith("breakpoint counts"):
        assert inverses["inverse"] == 0


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
    assert golden.point_from_rational(third) == tribonacci.point_from_rational(third)
    assert golden.point_from_rational(third) != tribonacci.point_from_rational(Fraction(1, 2))
    other = make_beta("poly:[1,-1,-1]@(1.6,1.7)")
    assert golden.beta_point() == other.beta_point()
    monkeypatch.setattr(numerics, "MAX_REFINE_LEVEL", 2)
    # one root under two specs shares the shift 0: one field equality, no refinement
    assert make_beta("pisot2:p=1,q=1").beta_point() == \
        make_beta("poly:[1,-1,-1]@(1.6,1.7)").beta_point()
    # sqrt(5) = 2 phi - 1 in a field that shares no integer shift with phi's
    with pytest.raises(PrecisionExhausted, match="level cap"):
        2 * make_beta("pisot2:p=1,q=1").beta_point() - 1 == \
            make_beta("poly:[1,0,-5]@(2,3)").beta_point()


def test_algebraic_equal_cross_field(phi, phi2):
    b, b2 = phi.beta_point(), phi2.beta_point()
    assert b + 1 == b2
    assert b != b2
    assert phi.point_from_rational(Fraction(1, 2)) == phi2.point_from_rational(Fraction(1, 2))
    assert 2 - b == 3 - b2


def test_algebraic_equal_rejects_by_enclosure_first(bench_workloads, count_calls):
    """Across fields, equal points are equal and distinct ones are not: on
    the measure-compare pairs, on each benchmark base beta against
    beta + 1, and on sqrt(5) = 2 phi - 1.  beta and beta + 1 meet in one
    field and never reach the characteristic polynomial; of fields that
    share no integer shift, points whose enclosures are apart at 2^-40
    never reach it either, nor does a rational within 2^-70 of the golden
    ratio, in another field, while equal points and an irrational point
    that close still do."""
    from negabeta import numerics

    calls = count_calls(numerics, "_charpoly")
    for a, b in bench_workloads.CLI_MC_PAIRS:
        x, y = make_beta(a).beta_point(), make_beta(b).beta_point()
        assert x != y and y + 1 != x + 1
    assert not calls
    for spec in bench_workloads.CLI_BASES:
        beta = make_beta(spec)
        b, b1 = beta.beta_point(), beta.plus_one().beta_point()
        assert b != b1 and b1 / 2 != b + 1
        assert b + 1 == b1 and b1 - 1 == b
        assert not calls
    golden, tribonacci = make_beta("pisot2:p=1,q=1"), make_beta("multinacci:q=1,m=3")
    phi, root5 = golden.beta_point(), make_beta("poly:[1,0,-5]@(2,3)").beta_point()
    assert 2 * phi - 1 == root5 and root5 + 1 == 2 * phi
    assert calls == {"_charpoly": 2}
    near = tribonacci.point_from_rational(golden.refine(Fraction(1, 2**70))[0])
    calls.clear()
    assert golden.beta_point() != near  # a rational: one position test
    assert not calls
    assert golden.beta_point() != near + tribonacci.beta_point() / 2**80
    assert calls == {"_charpoly": 1}


def test_shift_path_agrees_with_the_general_path(bench_workloads, monkeypatch, count_calls):
    """Every verdict, prediction and detail of measure-compare is the same
    when beta and beta + 1 meet in one field by their integer shift and
    when, with ``shift_to`` answering None, they take the characteristic
    polynomial: on the corpus measure-compare argvs, and on x^2 - qx - p
    (p <= 8, q <= 6) against its beta + 1 at budget 400."""
    from negabeta import cli, numerics
    from negabeta.numerics import Beta

    argvs = [a for a in bench_workloads.CLI_HEAVY if a[0] == "measure-compare"]
    assert len(argvs) == 11

    def run_all():
        outs = [bench_workloads.run_cli(cli, argv) for argv in argvs]
        bases = [Beta.root_above_one((-p, -q, 1), q, q + p)
                 for q in range(1, 7) for p in range(1, 9)]
        return outs, [densities_coincide(b, b.plus_one(), 400) for b in bases]

    calls = count_calls(numerics, "_charpoly")
    shifted = run_all()
    verdicts = [r.verdict for r in shifted[1]]
    assert verdicts.count("Coincide") == 29 and verdicts.count("Unresolved") == 19
    assert all(code == 0 for code, _out in shifted[0])
    # beta + 1 keeps a root at zero (x(x - 3), ...), so every pair is a shift
    assert calls["_charpoly"] == 0
    monkeypatch.setattr(Beta, "shift_to", lambda self, other: None)
    assert run_all() == shifted
    # the rational pairs (the points 1 of both orbits) compare without it
    assert calls["_charpoly"] == 130
