"""Digit expansions under the negative beta map x -> -beta*x + floor(beta*x) + 1.

The map acts on (0, 1].  Iterating from a point yields its digit string;
iterating from 1 yields the expansion of 1 whose (pre)periodicity is
certified by exact cycle detection.  Evaluation goes the other way, from a
digit sequence back to the real number it represents.  Digit words and
eventually periodic sequences live in ``order``, which needs no arithmetic;
they are re-exported here.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SpecError
from .numerics import Beta, as_point, point_key
from .order import DEFAULT_BUDGET, DigitWord, EvPeriodic


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


def step(beta: Beta, x):
    """One application of the map: returns (digit, next point), the digit
    d = floor(beta x) + 1 and the point d - beta x, by ``FieldPoint.map_step``
    in one pass over the point's integers."""
    return as_point(beta, x).map_step()


def expand(beta: Beta, x, n: int) -> DigitWord:
    """First n digits of the expansion of x in base -beta, for x in (0, 1]."""
    if n < 0:
        raise SpecError("digit count must be nonnegative")
    x = as_point(beta, x)
    if not 0 < x <= 1:
        raise SpecError("expansion is defined on (0, 1]")
    out = []
    for _ in range(n):
        d, x = step(beta, x)
        out.append(d)
    return tuple(out)


def orbit_of_one(beta: Beta, budget: int = DEFAULT_BUDGET) -> OrbitRecord:
    """Iterate from 1, certifying the first exact repeat if one occurs.

    Points are looked up by ``point_key``: an exact key (a rational, or a
    point of a base whose field is proved) names the one earlier equal
    point; a bucket of a refined rational enclosure only names candidates,
    and a repeat is declared after an exact equality test.  Either way the
    classification is certified, since the arithmetic is exact.
    """
    if budget < 1:
        raise SpecError("budget must be at least 1")
    x = beta.one()
    points = [x]
    digits: list[int] = []
    buckets: dict[tuple | int, list[int]] = {point_key(x): [0]}

    for i in range(budget):
        d, nxt = points[-1].map_step()
        digits.append(d)
        key = point_key(nxt)
        if isinstance(key, tuple):  # exact: only an equal point has this key
            hit = buckets.get(key, (None,))[0]
        else:  # a 2^-80 bucket: an equal point lies in this one or a neighbour
            hit = next((j for k in (key - 1, key, key + 1) for j in buckets.get(k, ())
                        if points[j] == nxt), None)
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
