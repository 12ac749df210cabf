"""Invariant densities of the negative beta map and their comparison.

The density of the unique absolutely continuous invariant measure is a
piecewise constant function whose interior breakpoints are the orbit of 1
(excluding 1 itself).  When the orbit resolves to a finite set the density
and its normalization constant are computed in closed form, exactly: the
orbit points are certified distinct, so one sort orders the breakpoints
and the values are suffix sums of the orbit weights.  Comparison of two
densities is also exact.  Bases that differ by an integer, as beta and
beta + 1 do, generate one field, so their points meet in it through a
Taylor shift and one field equality decides; only points of fields that
share no such shift take a characteristic polynomial, after enclosures
have failed to tell them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import OrbitUnresolved, PrecisionExhausted, SpecError
from .expansion import orbit_of_one, DEFAULT_BUDGET
from .numerics import Beta, FieldPoint, as_point, same_field
from . import numerics, polys


@dataclass(frozen=True)
class PiecewiseDensity:
    """Unnormalized invariant density: constant values on (x_i, x_{i+1}].

    breakpoints run from 0 to 1 inclusive; values[i] is the density on
    (breakpoints[i], breakpoints[i+1]]; K is the exact total integral.
    Values are nonnegative; bases below the golden ratio genuinely have
    intervals the dynamics never revisits, where the density is exactly 0.
    """

    beta: Beta
    breakpoints: tuple
    values: tuple
    K: object

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) - 1:
            raise SpecError("need one value per interval")
        if any(v < 0 for v in self.values):
            raise SpecError("density values must be nonnegative")
        if _integral(self.breakpoints, self.values) != self.K:
            raise SpecError("normalization constant does not match the integral")

    @property
    def interior_breakpoints(self) -> tuple:
        return self.breakpoints[1:-1]

    def value_at(self, x):
        """Density on the interval containing x, for 0 < x <= 1."""
        x = as_point(self.beta, x)
        if not 0 < x <= 1:
            raise SpecError("density is defined on (0, 1]")
        for i in range(len(self.values)):
            if x <= self.breakpoints[i + 1]:
                return self.values[i]
        return self.values[-1]

    def integral_raw(self, a, b):
        """Exact unnormalized integral of the density over (a, b)."""
        a, b = as_point(self.beta, a), as_point(self.beta, b)
        total = 0 * self.K
        for i, v in enumerate(self.values):
            lo = max(a, self.breakpoints[i])
            hi = min(b, self.breakpoints[i + 1])
            if hi > lo:
                total = total + v * (hi - lo)
        return total

    def normalized_values(self) -> tuple:
        kinv = 1 / self.K
        return tuple(v * kinv for v in self.values)


def _orbit_weights(beta: Beta, budget: int):
    """The pairs of ``_weights`` for the orbit of 1, which must resolve."""
    rec = orbit_of_one(beta, budget)
    if not rec.resolved:
        raise OrbitUnresolved(
            f"orbit of 1 did not resolve within budget {budget}"
        )
    return _weights(beta, rec)


def _weights(beta: Beta, rec):
    """Orbit points of 1 paired with their total series weight.

    The n-th point has weight (-1/beta)^n.  In a resolved orbit, summing
    over all iterates with a fixed eventually periodic index class
    collapses to one geometric factor per class; a truncated orbit gives
    the partial sum over its first ``budget`` points.
    """
    neg_inv = -1 / beta.beta_point()
    if rec.resolved:
        k = rec.pre_len
        cycle_scale = 1 / (1 - neg_inv**rec.period_len)
    else:
        k = rec.budget
    pairs, w = [], as_point(beta, 1)
    for n, x in enumerate(rec.points[:rec.budget]):
        pairs.append((x, w if n < k else w * cycle_scale))
        w = w * neg_inv
    return pairs


def density(beta: Beta, budget: int = DEFAULT_BUDGET) -> PiecewiseDensity:
    """Exact piecewise constant invariant density (unnormalized).

    Requires the orbit of 1 to resolve within the budget; the indicator
    convention is "orbit point >= x", so each value is attached to the
    half open interval ending at its right breakpoint.  The orbit record
    certifies its points pairwise distinct, with points[0] = 1 the
    largest: one sort puts them in breakpoint order, and the value at a
    breakpoint is the sum of the weights from it to the right.
    """
    pairs = _orbit_weights(beta, budget)
    ordered = sorted(pairs[1:], key=lambda pair: pair[0]) + pairs[:1]
    bps = [as_point(beta, 0)] + [x for x, _w in ordered]
    values = list(accumulate(w for _x, w in reversed(ordered)))[::-1]
    # adjacent intervals never share a value: the density jumps at orbit points
    for a, b in zip(values, values[1:]):
        if a == b:
            raise SpecError("density failed to jump at an orbit breakpoint")
    return PiecewiseDensity(beta, tuple(bps), tuple(values), _normalization_series(pairs))


def _integral(breakpoints, values):
    """The integral of the step function with these values on the intervals
    between consecutive breakpoints."""
    return sum(v * (hi - lo) for v, lo, hi in zip(values, breakpoints, breakpoints[1:]))


def _normalization_series(pairs):
    return sum(x * w for x, w in pairs)


def normalization(beta: Beta, budget: int = DEFAULT_BUDGET):
    """K = sum of orbit-point / (-beta)^n in exact closed form."""
    return _normalization_series(_orbit_weights(beta, budget))


def density_at(beta: Beta, x, tol=Fraction(1, 10**12)):
    """Density value at x: exact when the orbit of 1 resolves quickly,
    otherwise a partial sum whose tail is below tol.

    Term comparisons are exact, so a point next to an orbit point, where
    the indicator is discontinuous, gets the side it lies on.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise SpecError("tolerance must be positive")
    x = as_point(beta, x)
    if not 0 < x <= 1:
        raise SpecError("density is defined on (0, 1]")
    lo, _hi = beta.refine(Fraction(1, 16))
    lo = max(lo, Fraction(101, 100))
    # past m terms the weights' tail is below lo^-m / (1 - 1/lo) <= tol
    n_terms = _least_power_at_least(lo, 1 / (tol * (1 - 1 / lo))) + 2

    pairs = _weights(beta, orbit_of_one(beta, n_terms))
    # the orbit point 1 is counted for every x in (0, 1], so the sum is a point
    return sum(w for pt, w in pairs if pt >= x)


def _least_power_at_least(base: Fraction, r: Fraction) -> int:
    """The least m >= 0 with base^m >= r, for base = a/b > 1 and r = p/q,
    on integers: square a and b until (a/b)^(2^i) reaches r, then take the
    largest m with a^m q < b^m p one bit at a time from the top."""
    a, b, p, q = base.numerator, base.denominator, r.numerator, r.denominator
    powers = [(a, b)]
    while powers[-1][0] * q < powers[-1][1] * p:
        x, y = powers[-1]
        powers.append((x * x, y * y))
    m, x, y = 0, 1, 1
    for i in reversed(range(len(powers))):
        u, v = x * powers[i][0], y * powers[i][1]
        if u * q < v * p:
            m, x, y = m + (1 << i), u, v
    return m + (x * q < y * p)


def measure_interval(d: PiecewiseDensity, a, b):
    """Normalized invariant measure of the interval (a, b)."""
    return d.integral_raw(a, b) / d.K


@dataclass(frozen=True)
class Limits:
    at_zero: object
    at_one: object | None   # None when the orbit did not resolve


def limits(beta: Beta, budget: int = DEFAULT_BUDGET) -> Limits:
    """One-sided limits of the density at 0+ and 1-.

    at_zero is beta/(beta+1) always; at_one depends on whether the orbit
    of 1 returns to 1 (periodic case) or stays below it.
    """
    b = beta.beta_point()
    at_zero = b / (b + 1)
    rec = orbit_of_one(beta, budget)
    if not rec.resolved:
        return Limits(at_zero, None)
    if rec.kind == "periodic":
        m = rec.period_len
        bm = b**m
        at_one = bm / (bm - (-1) ** m)
    else:
        at_one = as_point(beta, 1)
    return Limits(at_zero, at_one)


# ---------------------------------------------------------------------------
# exact equality of algebraic numbers across different fields


def _mult_matrix(x: FieldPoint) -> tuple[list[list[int]], int]:
    """(N, den): the matrix of multiplication by x in the basis
    1, beta, ..., beta^(d-1) is N / den, with N an integer matrix."""
    cols = [x]
    for _ in range(x.beta.degree - 1):
        cols.append(cols[-1].times_beta())
    den = math.lcm(*(c.den for c in cols))
    # rows indexed by basis coordinate, columns by basis power
    return [[c.num[i] * (den // c.den) for c in cols] for i in range(len(cols))], den


def _charpoly(m: list[list[int]], den: int) -> polys.IntPoly:
    """A primitive integer multiple of the characteristic polynomial of
    m / den, for an integer matrix m.  Faddeev-LeVerrier on m gives its
    characteristic polynomial t^n + c_1 t^(n-1) + ... + c_n with integer
    c_k, every trace division exact; the one of m / den has
    x^(n-k) coefficient c_k / den^k, so den^n times it is integral."""
    n = len(m)
    work = [[int(i == j) for j in range(n)] for i in range(n)]
    cs = [1]
    for k in range(1, n + 1):
        work = [[sum(m[i][l] * work[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]
        c = -sum(work[i][i] for i in range(n)) // k
        cs.append(c)
        for i in range(n):
            work[i][i] += c
    return polys.primitive([cs[n - j] * den**j for j in range(n + 1)])  # x^j: c_(n-j) den^j


def algebraic_equal(x, y) -> bool:
    """Exact equality of two real algebraic numbers, fields may differ.

    Points of one base, or of two bases that differ by an integer, meet in
    one field (``same_field``) and one field equality decides.  Otherwise
    disjoint enclosures say no; x's characteristic polynomial must vanish
    at y, and a hull of both enclosures must isolate one of its roots."""
    if same_field(x, y):
        return x == y

    def hull(bits):
        """The hull of both enclosures narrower than 2^-bits, or None when
        they are disjoint."""
        width = Fraction(1, 1 << bits)
        (ax, bx), (ay, by) = x.interval(width), y.interval(width)
        return None if bx < ay or by < ax else (min(ax, ay), max(bx, by))

    # distinct values are told apart before the exact characteristic polynomial
    if hull(40) is None:
        return False
    p = _charpoly(*_mult_matrix(x))
    # y must satisfy x's characteristic polynomial...
    acc = y.beta.point_from_rational(0)
    for c in reversed(p):
        acc = acc * y + c
    if not acc.is_zero():
        return False
    # ... and be the same real root of it
    chain = polys.sturm_chain(p)
    for bits in range(40, numerics.MAX_REFINE_LEVEL + 1, 8):
        box = hull(bits)
        if box is None:
            return False
        lo, hi = box
        if lo == hi:
            return True  # both are exactly the rational lo
        if polys.isolates(chain, lo, hi):
            return True
    raise PrecisionExhausted("algebraic equality not settled by width "
                             f"2^-{numerics.MAX_REFINE_LEVEL} (the level cap MAX_REFINE_LEVEL)")


@dataclass(frozen=True)
class CoincidenceReport:
    verdict: str                 # "Coincide" | "Differ" | "Unresolved"
    predicted: bool | None       # the quadratic-pair criterion
    detail: str

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "predicted": self.predicted, "detail": self.detail}


def _quadratic_pair_prediction(b1: Beta, b2: Beta) -> bool | None:
    """Is {b1, b2} = {root of x^2 - qx - p with p <= q, that root + 1}?
    None when either base is an integer: the criterion covers non-integers only."""
    if any(b.beta_point() == b.floor_value() for b in (b1, b2)):
        return None
    # b2 = b1 + t: t = 1 or -1 names the smaller base
    t = b1.shift_to(b2)
    if t is None:
        x1, x2 = b1.beta_point(), b2.beta_point()
        t = 1 if algebraic_equal(x1 + 1, x2) else -1 if algebraic_equal(x2 + 1, x1) else None
    if t not in (1, -1):
        return False
    small_b = b1 if t == 1 else b2
    small, q = small_b.beta_point(), small_b.floor_value()
    z = small * small - q * small
    p = math.floor(z)
    return 1 <= p <= q and z == p


def densities_coincide(
    beta1: Beta, beta2: Beta, budget: int = DEFAULT_BUDGET
) -> CoincidenceReport:
    """Exact comparison of the two normalized invariant densities.

    The verdict compares breakpoints and normalized values; the report
    also carries the quadratic-pair prediction for when they should
    coincide.
    """
    if algebraic_equal(beta1.beta_point(), beta2.beta_point()):
        raise SpecError("bases must differ")
    predicted = _quadratic_pair_prediction(beta1, beta2)
    try:
        d1 = density(beta1, budget)
        d2 = density(beta2, budget)
    except OrbitUnresolved:
        return CoincidenceReport("Unresolved", predicted, "an orbit did not resolve")
    in1, in2 = d1.interior_breakpoints, d2.interior_breakpoints
    if len(in1) != len(in2):
        return CoincidenceReport(
            "Differ", predicted,
            f"breakpoint counts differ ({len(in1)} vs {len(in2)})",
        )
    for a, b in zip(in1, in2):
        if not algebraic_equal(a, b):
            return CoincidenceReport("Differ", predicted, "breakpoints differ")
    for a, b in zip(d1.normalized_values(), d2.normalized_values()):
        if not algebraic_equal(a, b):
            return CoincidenceReport("Differ", predicted, "normalized values differ")
    return CoincidenceReport("Coincide", predicted, "breakpoints and values agree")


def check_invariance(d: PiecewiseDensity) -> bool:
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
