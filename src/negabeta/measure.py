"""Invariant densities of the negative beta map and their comparison.

The density of the unique absolutely continuous invariant measure is a
piecewise constant function whose interior breakpoints are the orbit of 1
(excluding 1 itself).  When the orbit resolves to a finite set the density
and its normalization constant are computed in closed form, exactly: the
orbit points are certified distinct, so one sort orders the breakpoints
and the values are suffix sums of the orbit weights.  Comparison of two
densities is also exact, and reads its evidence in order: breakpoint
counts, then sorted breakpoints, then normalized values, so a verdict
settled by the counts builds no density.  Points of the two bases are
compared with ``==``, which ``numerics`` decides for points of any two
bases, whether or not their fields meet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .errors import OrbitUnresolved, PrecisionExhausted, SpecError
from .expansion import orbit_of_one, DEFAULT_BUDGET
from .numerics import Beta, as_point


# density_at sums at most this many orbit terms: a base this close to 1,
# or a tolerance this fine, raises PrecisionExhausted instead
MAX_DENSITY_TERMS = 1 << 16


class PiecewiseDensity:
    """Unnormalized invariant density: constant values on (x_i, x_{i+1}].

    breakpoints run from 0 to 1 inclusive; values[i] is the density on
    (breakpoints[i], breakpoints[i+1]]; K is the exact total integral.
    Values are nonnegative; bases below the golden ratio genuinely have
    intervals the dynamics never revisits, where the density is exactly 0.
    The fields are read-only.
    """

    __slots__ = ("beta", "breakpoints", "values", "K")

    def __init__(self, beta: Beta, breakpoints: tuple, values: tuple, K):
        if len(values) != len(breakpoints) - 1:
            raise SpecError("need one value per interval")
        if any(v < 0 for v in values):
            raise SpecError("density values must be nonnegative")
        if _integral(breakpoints, values) != K:
            raise SpecError("normalization constant does not match the integral")
        for name, value in zip(self.__slots__, (beta, breakpoints, values, K)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuilt (and checked again) through __init__: the slots refuse assignment
        return PiecewiseDensity, (self.beta, self.breakpoints, self.values, self.K)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    __hash__ = None  # the points it holds are unhashable

    def __repr__(self):
        return (f"PiecewiseDensity(beta={self.beta!r}, breakpoints={self.breakpoints!r}, "
                f"values={self.values!r}, K={self.K!r})")

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


def _resolved_orbit(beta: Beta, budget: int):
    """The orbit record of 1, which must resolve."""
    rec = orbit_of_one(beta, budget)
    if not rec.resolved:
        raise OrbitUnresolved(
            f"orbit of 1 did not resolve within budget {budget}"
        )
    return rec


def _orbit_weights(beta: Beta, budget: int):
    """The pairs of ``_weights`` for the orbit of 1, which must resolve."""
    return _weights(beta, _resolved_orbit(beta, budget))


def _weights(beta: Beta, rec):
    """Orbit points of 1 paired with their total series weight.

    The n-th point has weight w_n = (-1/beta)^n, each one companion
    division (``over_beta``) from the last.  In a resolved orbit, summing
    over all iterates with a fixed eventually periodic index class
    collapses to one geometric factor 1 / (1 - w_p) per class, p the
    period: it is multiplied into the first periodic weight, and the
    periodic weights after it are stepped from that one.  A truncated
    orbit gives the partial sum over its first ``budget`` points.
    """
    ws = [as_point(beta, 1)]
    if rec.resolved:
        k, p = rec.pre_len, rec.period_len
        while len(ws) <= max(k, p):
            ws.append(ws[-1].over_beta(-1))
        ws[k:] = [ws[k] / (1 - ws[p])]
    w = ws[-1]
    for _ in range(rec.budget - len(ws)):
        w = w.over_beta(-1)
        ws.append(w)
    return list(zip(rec.points[:rec.budget], ws))


def density(beta: Beta, budget: int = DEFAULT_BUDGET) -> PiecewiseDensity:
    """Exact piecewise constant invariant density (unnormalized).

    Requires the orbit of 1 to resolve within the budget; the indicator
    convention is "orbit point >= x", so each value is attached to the
    half open interval ending at its right breakpoint.  The orbit record
    certifies its points pairwise distinct, with points[0] = 1 the
    largest: one sort puts them in breakpoint order, and the value at a
    breakpoint is the sum of the weights from it to the right.
    """
    rec = _resolved_orbit(beta, budget)
    return _density_of(beta, rec, _breakpoint_order(rec))


def _breakpoint_order(rec) -> list[int]:
    """The indices of the orbit points other than 1, in increasing order of
    the point: the interior breakpoints of the density."""
    return sorted(range(1, len(rec.points)), key=rec.points.__getitem__)


def _density_of(beta: Beta, rec, order: list[int]) -> PiecewiseDensity:
    """``density`` from a resolved orbit record and its ``_breakpoint_order``."""
    pairs = _weights(beta, rec)
    ordered = [pairs[i] for i in order] + pairs[:1]
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
    the indicator is discontinuous, gets the side it lies on.  The term
    count comes from the left end of a cell of beta; PrecisionExhausted
    when it passes MAX_DENSITY_TERMS.  A resolved orbit sums its folded
    weights; a truncated one sums (-1/beta)^n over the selected points n
    by Horner in -1/beta.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise SpecError("tolerance must be positive")
    x = as_point(beta, x)
    if not 0 < x <= 1:
        raise SpecError("density is defined on (0, 1]")
    lo, _hi = beta.refine(Fraction(1, 16))
    # past m terms the weights' tail is below lo^-m / (1 - 1/lo) <= tol
    m = _least_power_at_least(lo, 1 / (tol * (1 - 1 / lo)), MAX_DENSITY_TERMS - 2)
    if m is None:
        raise PrecisionExhausted(f"density_at needs more than {MAX_DENSITY_TERMS} terms "
                                 "for this base and tolerance (the term cap MAX_DENSITY_TERMS)")
    n_terms = m + 2

    rec = orbit_of_one(beta, n_terms)
    if rec.resolved:
        # the orbit point 1 is counted for every x in (0, 1], so the sum is a point
        return sum(w for pt, w in _weights(beta, rec) if pt >= x)
    # sum of (-1/beta)^n over the selected points, by Horner in -1/beta:
    # one companion division and one integer added per term
    acc = as_point(beta, 0)
    for pt in reversed(rec.points[:rec.budget]):
        acc = acc.over_beta(-1)
        if pt >= x:
            acc = acc + 1
    return acc


def _least_power_at_least(base: Fraction, r: Fraction, cap: int) -> int | None:
    """The least m >= 0 with base^m >= r, for base = a/b > 1 and r = p/q > 0,
    or None when it exceeds ``cap``; on integers.  base^cap <= e^(cap h)
    for h = base - 1, and ln r exceeds both 1 - 1/r and (2/3) L when
    r > 2^L >= 1, so a cap that h cannot reach is found without forming
    base^cap.  Otherwise square a and b until (a/b)^(2^i) reaches r, or
    2^i reaches the cap, then take the largest m with a^m q < b^m p one
    bit at a time from the top."""
    a, b, p, q = base.numerator, base.denominator, r.numerator, r.denominator
    ell = p.bit_length() - q.bit_length() - 1
    if cap * (a - b) * p < (p - q) * b or 3 * cap * (a - b) < 2 * ell * b:
        return None
    powers = [(a, b)]
    while powers[-1][0] * q < powers[-1][1] * p:
        if 1 << (len(powers) - 1) >= cap:
            return None
        x, y = powers[-1]
        powers.append((x * x, y * y))
    m, x, y = 0, 1, 1
    for i in reversed(range(len(powers))):
        u, v = x * powers[i][0], y * powers[i][1]
        if u * q < v * p:
            m, x, y = m + (1 << i), u, v
    m += x * q < y * p
    return m if m <= cap else None


def measure_interval(d: PiecewiseDensity, a, b):
    """Normalized invariant measure of the interval (a, b)."""
    return d.integral_raw(a, b) / d.K


class Limits(NamedTuple):
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


class CoincidenceReport(NamedTuple):
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
        t = 1 if x1 + 1 == x2 else -1 if x2 + 1 == x1 else None
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

    The evidence is read in order, each stage paying only for what its
    verdict reads: the two orbits of 1 (Unresolved when one does not
    resolve), their breakpoint counts, the sorted breakpoints, and only
    when those agree the two densities, built from the same orbit records,
    and their normalized values.  The report also carries the
    quadratic-pair prediction for when they should coincide.
    """
    if beta1.beta_point() == beta2.beta_point():
        raise SpecError("bases must differ")
    predicted = _quadratic_pair_prediction(beta1, beta2)
    recs = []
    for beta in (beta1, beta2):
        rec = orbit_of_one(beta, budget)
        if not rec.resolved:
            return CoincidenceReport("Unresolved", predicted, "an orbit did not resolve")
        recs.append(rec)
    rec1, rec2 = recs
    n1, n2 = len(rec1.points) - 1, len(rec2.points) - 1
    if n1 != n2:
        return CoincidenceReport(
            "Differ", predicted, f"breakpoint counts differ ({n1} vs {n2})",
        )
    order1, order2 = _breakpoint_order(rec1), _breakpoint_order(rec2)
    for i, j in zip(order1, order2):
        if rec1.points[i] != rec2.points[j]:
            return CoincidenceReport("Differ", predicted, "breakpoints differ")
    d1, d2 = _density_of(beta1, rec1, order1), _density_of(beta2, rec2, order2)
    for a, b in zip(d1.normalized_values(), d2.normalized_values()):
        if a != b:
            return CoincidenceReport("Differ", predicted, "normalized values differ")
    return CoincidenceReport("Coincide", predicted, "breakpoints and values agree")
