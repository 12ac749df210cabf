"""Digit expansions under the negative beta map x -> -beta*x + floor(beta*x) + 1.

The map acts on (0, 1].  Iterating from a point yields its digit string;
iterating from 1 yields the expansion of 1 whose (pre)periodicity is
certified by exact cycle detection.  Evaluation goes the other way, from a
digit sequence back to the real number it represents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SpecError
from .numerics import Beta, as_point, point_scaled_floor, times_beta

DigitWord = tuple[int, ...]

DEFAULT_BUDGET = 10_000


def _canonical(pre: DigitWord, per: DigitWord) -> tuple[DigitWord, DigitWord]:
    # primitive period
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per[:d] * (n // d) == per:
            per = per[:d]
            break
    # shortest preperiod: absorb matching tail symbols into the cycle
    pre = tuple(pre)
    while pre and pre[-1] == per[-1]:
        per = (per[-1],) + per[:-1]
        pre = pre[:-1]
    return pre, per


@dataclass(frozen=True)
class EvPeriodic:
    """An eventually periodic digit sequence pre + period^infinity.

    Stored canonically: the period is primitive and the preperiod is as
    short as possible, so structural equality is sequence equality.
    """

    preperiod: DigitWord
    period: DigitWord
    alphabet_max: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.period:
            raise SpecError("period must be nonempty")
        pre, per = _canonical(tuple(self.preperiod), tuple(self.period))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)
        amax = self.alphabet_max or max(pre + per)
        if min(pre + per) < 1:
            raise SpecError("digits must be positive")
        object.__setattr__(self, "alphabet_max", amax)

    @property
    def is_purely_periodic(self) -> bool:
        return not self.preperiod

    def digit(self, i: int) -> int:
        """1-indexed digit."""
        if i < 1:
            raise IndexError("digit positions start at 1")
        k = i - 1
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> DigitWord:
        """The first n digits, unrolled by repetition of the period."""
        pre, per = self.preperiod, self.period
        return (pre + per * -(-max(n - len(pre), 0) // len(per)))[:max(n, 0)]

    def shift(self, k: int = 1) -> "EvPeriodic":
        """Drop the first k digits."""
        if k == 0:
            return self
        pre, per = self.preperiod, self.period
        if k < len(pre):
            return EvPeriodic(pre[k:], per, self.alphabet_max)
        k -= len(pre)
        k %= len(per)
        return EvPeriodic((), per[k:] + per[:k], self.alphabet_max)

    def tail_count(self) -> int:
        """Number of distinct shifted sequences (including the unshifted one)."""
        return len(self.preperiod) + len(self.period)

    def __str__(self) -> str:
        if self.alphabet_max > 9:
            pre = ",".join(map(str, self.preperiod))
            per = ",".join(map(str, self.period))
        else:
            pre = "".join(map(str, self.preperiod))
            per = "".join(map(str, self.period))
        return f"{pre}|{per}"

    @classmethod
    def parse(cls, text: str) -> "EvPeriodic":
        if "|" not in text:
            raise SpecError("sequence must look like 'pre|period', e.g. '2|1'")
        pre_s, per_s = text.split("|", 1)

        def digits(s: str) -> DigitWord:
            if not s:
                return ()
            if "," in s:
                return tuple(int(t) for t in s.split(","))
            return tuple(int(ch) for ch in s)

        try:
            return cls(digits(pre_s), digits(per_s))
        except ValueError as exc:
            raise SpecError(f"bad digit sequence {text!r}") from exc


@dataclass(frozen=True)
class OrbitRecord:
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
    """One application of the map: returns (digit, next point)."""
    y = times_beta(beta, x)
    d = math.floor(y) + 1
    return d, d - y


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


def _point_key(x) -> int:
    # enclosures narrower than 2^-80 put equal points at most one key apart
    return point_scaled_floor(x, 80)


def orbit_of_one(beta: Beta, budget: int = DEFAULT_BUDGET) -> OrbitRecord:
    """Iterate from 1, certifying the first exact repeat if one occurs.

    Points are bucketed by a refined rational enclosure, but a repeat is
    only declared after an exact equality test, so the classification is
    certified whenever the arithmetic is exact (all bases here are).
    """
    if budget < 1:
        raise SpecError("budget must be at least 1")
    x = beta.one()
    points = [x]
    digits: list[int] = []
    buckets: dict[int, list[int]] = {_point_key(x): [0]}

    for i in range(budget):
        d, nxt = step(beta, points[-1])
        digits.append(d)
        key = _point_key(nxt)
        hit = None
        for k in (key - 1, key, key + 1):
            for j in buckets.get(k, ()):
                if points[j] == nxt:
                    hit = j
                    break
            if hit is not None:
                break
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


@dataclass(frozen=True)
class PiOfOne:
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
