"""Digit expansions under the negative beta map x -> -beta*x + floor(beta*x) + 1.

The map acts on (0, 1].  Iterating from a point yields its digit string;
iterating from 1 yields the expansion of 1 whose (pre)periodicity is
certified by exact cycle detection.  Evaluation goes the other way, from a
digit sequence back to the real number it represents.  Digit words and
eventually periodic sequences live in ``order``, which needs no arithmetic;
they are re-exported here.

Every orbit, of 1 or of any point, runs through one driver (``_orbit``).
It certifies each digit by the cheapest exact means the base's degree
has: an integer floor division on degree 1, the surd floor on degree 2,
and on higher degrees a ball that decides a digit only when it lies
wholly between two integers, with the exact floor as the fallback; off
degree 1 each step is ``FieldPoint.map_step``, given the ball's digit.
"""

from __future__ import annotations

import math
from itertools import count, islice
from typing import NamedTuple

from . import numerics, polys
from .errors import SpecError
from .numerics import Beta, FieldPoint, as_point
from .order import DEFAULT_BUDGET, DigitWord, EvPeriodic

# the ball starts once beta's cells are this many levels deep: a request
# that never refines that far pays for no refinement it did not need
_BALL_LEVEL = 72
# the ball's precision P passes its cell's by this many bits
_BALL_GUARD = 8
# a ball of x at least 2^-_BALL_WORN wide (2^-_BUCKET_BITS when it gives
# orbit_of_one its buckets) has worn out: beta is refined to twice the level
# and the ball is seeded again, while the level is at most a quarter of the
# level cap, so the ball never takes a base past half of it
_BALL_WORN = 16
# orbit_of_one's buckets are 2^-_BUCKET_BITS wide; P >= _BALL_LEVEL +
# _BALL_GUARD >= _BUCKET_BITS, so a ball's bucket is a right shift of it
_BUCKET_BITS = 80
# an orbit that gives orbit_of_one its buckets seeds its first ball only
# after this many exact steps: a shorter one runs as it would without a
# ball, and refines beta no deeper than its buckets' own enclosures do
_BUCKET_AFTER = 8


class OrbitRecord(NamedTuple):
    """Orbit of 1 with exact cycle classification.

    kind is "periodic" (T^m(1) = 1, m = period_len minimal),
    "eventually-periodic" (minimal pre_len >= 1), or "truncated".
    points[0] is always 1; points are pairwise distinct.
    """

    points: tuple
    digits: DigitWord
    kind: str
    pre_len: int = 0
    period_len: int = 0
    budget: int = 0

    @property
    def resolved(self) -> bool:
        return self.kind != "truncated"


def _orbit(x: FieldPoint, ball: list | None = None):
    """Yield (d, next point) forever along the orbit of the point x under
    the map of its base beta, with d = floor(beta x) + 1 and the next point
    d - beta x, each certified by the cheapest exact means its degree has.

    - Degree 1, beta = a/t: the point n/q steps to (n a)/(q t), reduced by
      one gcd, and one floor division gives the digit.
    - Degree 2: ``FieldPoint.map_step``, whose floor is the surd floor.
    - Degree 3 and up: once beta's cells are _BALL_LEVEL levels deep, a
      ball: beta's current cell and x as integers over 2^P, rounded
      outward (``_seed``).  A digit is taken from the ball only when the
      hull of beta x lies in [n, n+1) (``_ball_step``), and ``map_step``
      takes it for the exact next point.  Otherwise ``map_step`` decides
      the digit exactly, and the ball is seeded again from the exact point.
      It is also seeded again whenever beta was refined past the cell it
      came from, and a worn-out ball (_BALL_WORN) first refines beta to
      twice the level.

    When ``ball`` is a list, it holds (lo, hi, P) with the yielded point in
    [lo, hi] / 2^P while a ball is live, and is empty otherwise; the first
    ball then comes after _BUCKET_AFTER exact steps."""
    beta = x.beta
    if beta.degree == 1:
        yield from _rational_orbit(beta, x)
    elif beta.degree == 2:
        while True:
            d, x = x.map_step()
            yield d, x
    else:
        yield from _ball_orbit(beta, x, ball)


def _rational_orbit(beta: Beta, x: FieldPoint):
    """``_orbit`` on a degree-1 base.  With beta = a/t in lowest terms and
    x = n/q reduced, gcd(n a, q t) divides r = |f_0 f_1| (a prime of q
    divides neither n nor t, one of t neither n nor a), so the one gcd of
    gcd(r, q t) and n a is the full one.  The next point d q - n over q
    stays reduced."""
    ((a,),), t = beta._power_table
    r, n, q = beta._step_modulus, x.num[0], x.den
    while True:
        n, q = n * a, q * t
        g = math.gcd(math.gcd(r, q), n)
        if g != 1:
            n, q = n // g, q // g
        d = n // q + 1
        n = d * q - n
        yield d, FieldPoint._new(beta, (n,), q)


def _seed(beta: Beta, x: FieldPoint) -> tuple[int, int, int, int, int]:
    """(bl, bh, lo, hi, P): beta in [bl, bh] / 2^P and x in [lo, hi] / 2^P,
    from beta's current cell and x's enclosure over it, rounded outward;
    P is the cell's precision (at least _BALL_LEVEL) plus _BALL_GUARD bits.
    bl >= 2^P: the cells lie right of 1 (``Beta.from_poly``)."""
    cells = beta._cells
    cl, ch, cd = cells.cell(cells.level)
    P = max(cells.level + cells.D.bit_length() - cells.C.bit_length(), _BALL_LEVEL) + _BALL_GUARD
    a, b, s = cells.enclosure(polys.trimmed(x.num), x.den, cells.level)
    return (cl << P) // cd, -((-ch << P) // cd), (a << P) // s, -((-b << P) // s), P


def _ball_step(bl: int, bh: int, lo: int, hi: int, P: int) -> tuple[int, int, int] | None:
    """(d, lo', hi') when the ball [lo, hi] / 2^P of x decides the digit d
    under beta in [bl, bh] / 2^P, bl > 0: the hull [pl, ph] / 2^(2P) of
    beta x lies in [n, n+1), its upper end strictly below n + 1, and
    d = n + 1; then d - beta x lies in [lo', hi'] / 2^P, rounded outward.
    None when the hull meets an integer other than its lower end's floor."""
    P2 = 2 * P
    pl = lo * (bl if lo >= 0 else bh)  # beta > 0: each end of x takes its end of beta
    ph = hi * (bh if hi >= 0 else bl)
    d = (pl >> P2) + 1
    if ph >= d << P2:
        return None
    return d, ((d << P2) - ph) >> P, -((pl - (d << P2)) >> P)


def _ball_orbit(beta: Beta, x: FieldPoint, ball: list | None):
    """``_orbit`` on a base of degree 3 or more."""
    cells, live, seeded = beta._cells, False, -1  # seeded: the level of the ball's cell
    # the ball must stay narrower than 2^-wear, and is seeded from the start-th step on
    wear, start = (_BALL_WORN, 0) if ball is None else (_BUCKET_BITS, _BUCKET_AFTER)
    for i in count(1):
        got = live and _ball_step(bl, bh, lo, hi, P)
        if got:
            d, lo, hi = got
        if live and (hi - lo) >> (P - wear) and 4 * cells.level <= numerics.MAX_REFINE_LEVEL:
            cells.level *= 2  # worn out: the next ball comes from a cell twice as deep
        d, x = x.map_step(d if got else None)  # the ball's digit, else the exact floor
        live = bool(got)
        if (not live or cells.level > seeded) and cells.level >= _BALL_LEVEL and i >= start:
            bl, bh, lo, hi, P = _seed(beta, x)
            seeded, live = cells.level, True
        if ball is not None:
            ball[:] = (lo, hi, P) if live else ()
        yield d, x


def step(beta: Beta, x):
    """One application of the map: returns (digit, next point), the digit
    d = floor(beta x) + 1 and the point d - beta x: the first step of
    ``_orbit``, which off degree 1 is ``map_step`` (no ball is live yet)."""
    x = as_point(beta, x)
    return next(_rational_orbit(beta, x)) if beta.degree == 1 else x.map_step()


def expand(beta: Beta, x, n: int) -> DigitWord:
    """First n digits of the expansion of x in base -beta, for x in (0, 1]."""
    if n < 0:
        raise SpecError("digit count must be nonnegative")
    x = as_point(beta, x)
    if not 0 < x <= 1:
        raise SpecError("expansion is defined on (0, 1]")
    return tuple(d for d, _ in islice(_orbit(x), n))


def _bucket(x: FieldPoint, ball: list) -> int:
    """floor(lo 2^_BUCKET_BITS) for the lower end lo of an enclosure of x
    narrower than 2^-_BUCKET_BITS: the driver's ball [lo, hi] / 2^P when it
    is that narrow, else an enclosure refined for it.  Equal points fall at
    most one bucket apart."""
    if ball:
        lo, hi, P = ball
        if hi - lo < 1 << (P - _BUCKET_BITS):
            return lo >> (P - _BUCKET_BITS)
    a, _, s = x._narrower(1, 1 << _BUCKET_BITS)
    return (a << _BUCKET_BITS) // s


def _apart(a: tuple, b: tuple) -> bool:
    """Are two balls (lo, hi, P) of ``_orbit`` disjoint, so that their
    points differ?  False when either is empty (no ball)."""
    if not a or not b:
        return False
    (al, ah, p), (bl, bh, q) = a, b
    return ah << q < bl << p or bh << p < al << q


def orbit_of_one(beta: Beta, budget: int = DEFAULT_BUDGET) -> OrbitRecord:
    """Iterate from 1 (``_orbit``), certifying the first exact repeat if one
    occurs.

    On a base with ``field_proved`` (every ``dec:`` base among them) a
    point's key is its reduced (num, den), which names the one earlier
    equal point.  Otherwise it is the 2^-80 bucket of an enclosure
    (``_bucket``), which only names candidates; a candidate whose ball is
    disjoint from the point's differs from it, and a repeat is declared
    after an exact equality test.  Either way the classification is
    certified, since the arithmetic is exact.
    """
    if budget < 1:
        raise SpecError("budget must be at least 1")
    x = beta.one()
    points = [x]
    digits: list[int] = []
    exact = beta.field_proved
    ball, balls = (None, None) if exact else ([], [()])
    buckets: dict[tuple | int, list[int]] = {(x.num, x.den) if exact else _bucket(x, ()): [0]}

    for i, (d, nxt) in enumerate(islice(_orbit(x, ball), budget)):
        digits.append(d)
        if exact:  # only an equal point has this key
            key = nxt.num, nxt.den
            hit = buckets.get(key, (None,))[0]
        else:  # a 2^-80 bucket: an equal point lies in this one or a neighbour
            key, near = _bucket(nxt, ball), tuple(ball)
            hit = next((j for k in (key - 1, key, key + 1) for j in buckets.get(k, ())
                        if not _apart(near, balls[j]) and points[j] == nxt), None)
            balls.append(near)
        if hit is not None:
            pre, per = hit, i + 1 - hit
            kind = "periodic" if hit == 0 else "eventually-periodic"
            return OrbitRecord(
                points=tuple(points),
                digits=tuple(digits),
                kind=kind,
                pre_len=0 if hit == 0 else pre,
                period_len=per,
                budget=i + 1,
            )
        buckets.setdefault(key, []).append(len(points))
        points.append(nxt)

    return OrbitRecord(
        points=tuple(points), digits=tuple(digits), kind="truncated", budget=budget
    )


class PiOfOne(NamedTuple):
    """Expansion of 1: resolved to an eventually periodic word, or a prefix."""

    resolved: bool
    sequence: EvPeriodic | None
    prefix: DigitWord
    is_simple: bool | None
    orbit: OrbitRecord

    def __str__(self):
        return str(self.sequence) if self.resolved else "".join(map(str, self.prefix)) + "..."


def pi_of_one(beta: Beta, budget: int = DEFAULT_BUDGET) -> PiOfOne:
    """The expansion of 1, with pure periodicity decided when the orbit resolves."""
    rec = orbit_of_one(beta, budget)
    if not rec.resolved:
        return PiOfOne(False, None, rec.digits, None, rec)
    if rec.kind == "periodic":
        ev = EvPeriodic((), rec.digits, beta.alphabet_max)
    else:
        k, m = rec.pre_len, rec.period_len
        ev = EvPeriodic(rec.digits[:k], rec.digits[k:k + m], beta.alphabet_max)
    return PiOfOne(True, ev, rec.digits, ev.is_purely_periodic, rec)


def _word_sum(word, t):
    """Sum over i of -w_i * t^i, with t = 1/(-beta)."""
    acc = 0 * t
    for digit in reversed(word):
        acc = t * (acc - digit)
    return acc


def evaluate(seq, beta: Beta):
    """Exact value represented by a digit sequence in base -beta.

    For an ``EvPeriodic`` the value is the closed geometric form; for a
    finite word it is the exact partial sum (see ``truncation_bound`` for
    the tail estimate).
    """
    t = -1 / beta.beta_point()
    if isinstance(seq, EvPeriodic):
        a, p = len(seq.preperiod), len(seq.period)
        head = _word_sum(seq.preperiod, t)
        body = _word_sum(seq.period, t)
        return head + t**a * body / (1 - t**p)
    return _word_sum(tuple(seq), t)


def truncation_bound(beta: Beta, n: int):
    """Exact bound on |x - evaluate(prefix_n(x))| for any x in (0, 1]."""
    b = beta.beta_point()
    return beta.alphabet_max * (1 / b) ** n / (b - 1)
