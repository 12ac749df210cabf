"""Alternating lexicographic order and admissibility of digit sequences.

Sequences are compared digit by digit; at the first difference the usual
order applies at odd positions and the reversed order at even positions.
On top of the comparator sit the self-admissibility test, the lower
boundary word of the shift, and the full validity test deciding whether a
sequence is the expansion of 1 for some base.

Every kernel works on flat digit tuples: a sequence is unrolled once
(``EvPeriodic.prefix``) far enough that its comparisons are decided, its
tail k is the slice ``u[k:k+b]`` and a block match is a slice equality.

The digit words themselves, ``DigitWord`` and the canonical ``EvPeriodic``,
are defined here rather than in ``expansion``, so the word half of the
package (``order`` and ``shiftspace``) loads no arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import SpecError

DigitWord = tuple[int, ...]

DEFAULT_BUDGET = 10_000  # steps of the orbit of 1 wherever a budget is taken


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


class EvPeriodic:
    """An eventually periodic digit sequence pre + period^infinity.

    Stored canonically: the period is primitive and the preperiod is as
    short as possible, so structural equality is sequence equality.
    ``alphabet_max`` (the largest digit unless given) takes no part in
    equality or hashing.  The fields are read-only.
    """

    __slots__ = ("preperiod", "period", "alphabet_max")

    def __init__(self, preperiod: DigitWord, period: DigitWord, alphabet_max: int = 0):
        if not period:
            raise SpecError("period must be nonempty")
        pre, per = _canonical(tuple(preperiod), tuple(period))
        if min(pre + per) < 1:
            raise SpecError("digits must be positive")
        _set = object.__setattr__
        _set(self, "preperiod", pre)
        _set(self, "period", per)
        _set(self, "alphabet_max", alphabet_max or max(pre + per))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # rebuilt through __init__: the slots refuse assignment
        return EvPeriodic, (self.preperiod, self.period, self.alphabet_max)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return (f"EvPeriodic(preperiod={self.preperiod!r}, period={self.period!r}, "
                f"alphabet_max={self.alphabet_max!r})")

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



class AltOrdering(NamedTuple):
    """Comparison outcome: result in {-1, 0, 1}, witness = first differing index."""

    result: int
    witness: int | None


def _diff_sign(a: int, b: int, position: int) -> int:
    """Order contribution of a single digit difference at a 1-based position."""
    s = (a > b) - (a < b)
    return s if position % 2 == 1 else -s


def _alt_order(u: DigitWord, v: DigitWord) -> AltOrdering:
    """Alternating comparison of two words of equal length."""
    if u != v:
        for i, (a, b) in enumerate(zip(u, v), 1):
            if a != b:
                return AltOrdering(_diff_sign(a, b, i), i)
    return AltOrdering(0, None)


def _decided_length(x: EvPeriodic, y: EvPeriodic) -> int:
    """A prefix length past which x and y agree forever if they agree up to it."""
    return len(x.preperiod) + len(y.preperiod) + math.lcm(len(x.period), len(y.period))


def alt_compare(x: EvPeriodic, y: EvPeriodic) -> AltOrdering:
    """Exact alternating comparison of two eventually periodic sequences."""
    n = _decided_length(x, y)
    return _alt_order(x.prefix(n), y.prefix(n))


def rho_distance(x: EvPeriodic, y: EvPeriodic, alphabet_max: int | None = None) -> Fraction:
    """Metric (alphabet size)^-k with k the first differing index; 0 if equal."""
    from fractions import Fraction  # loaded here only: it imports decimal

    if alphabet_max is None:
        alphabet_max = max(x.alphabet_max, y.alphabet_max)
    cmp = alt_compare(x, y)
    if cmp.witness is None:
        return Fraction(0)
    return Fraction(1, alphabet_max**cmp.witness)


# ---------------------------------------------------------------------------
# the substitution word: smallest admissible expansion-of-1 boundary

_W_CACHE: list[int] = [2]


def limit_word_prefix(n: int) -> DigitWord:
    """First n symbols of the fixed word of 2 -> 211, 1 -> 2.

    The image of 2 starts with 2, so successive images extend each other
    and the prefix stabilizes.
    """
    if n < 0:
        raise SpecError("prefix length must be nonnegative")
    global _W_CACHE
    while len(_W_CACHE) < n:
        _W_CACHE = [s for c in _W_CACHE for s in ((2, 1, 1) if c == 2 else (2,))]
    return tuple(_W_CACHE[:n])


def _against_limit_word(unroll) -> AltOrdering:
    """Compare the sequence whose first n digits are unroll(n) against the
    substitution word, doubling the compared length until they differ."""
    chunk = 64
    while chunk <= 1 << 22:
        cmp = _alt_order(unroll(chunk), limit_word_prefix(chunk))
        if cmp.witness is not None:
            return cmp
        chunk *= 2
    raise RuntimeError("no difference against the substitution word found")


def _repeat(block: DigitWord):
    """n -> the first n digits of block^infinity."""
    return lambda n: (block * (n // len(block) + 1))[:n]


def compare_with_limit_word(seq: EvPeriodic) -> AltOrdering:
    """Compare an eventually periodic sequence against the substitution word.

    The word is aperiodic, so a first difference always exists.
    """
    return _against_limit_word(seq.prefix)


# ---------------------------------------------------------------------------
# admissibility


class SelfAdmissibility(NamedTuple):
    result: bool
    violating_shift: int | None


def is_self_admissible(seq: EvPeriodic) -> SelfAdmissibility:
    """True iff every shifted tail is <= the sequence in alternating order.

    Every tail is periodic past the preperiod with the same period, so
    preperiod + period digits decide each comparison.
    """
    b = seq.tail_count()
    u = seq.prefix(2 * b)
    head = u[:b]
    for k in range(1, b + 1):
        tail = u[k:k + b]
        if tail != head:
            i = next(i for i in range(b) if tail[i] != head[i])
            # above the head: larger at an odd (1-based) position i + 1, smaller at an even one
            if (tail[i] > head[i]) == (i % 2 == 0):
                return SelfAdmissibility(False, k)
    return SelfAdmissibility(True, None)


def star_zero(pi1: EvPeriodic) -> EvPeriodic:
    """The strict lower boundary word of the shift with expansion-of-1 pi1.

    Purely periodic pi1 with odd primitive period b_1..b_p yields the
    periodic word (1 b_1 .. b_{p-1} (b_p - 1)); otherwise the word is 1
    followed by pi1 itself.
    """
    if pi1.is_purely_periodic and len(pi1.period) % 2 == 1:
        b = pi1.period
        if b[-1] == 1:
            raise SpecError(
                "boundary word underflows (odd period ending in digit 1); "
                "no valid expansion of 1 has this shape"
            )
        block = (1,) + b[:-1] + (b[-1] - 1,)
        return EvPeriodic((), block, pi1.alphabet_max)
    return EvPeriodic((1,) + pi1.preperiod, pi1.period, pi1.alphabet_max)


def is_admissible(pi1: EvPeriodic, seq: EvPeriodic) -> bool:
    """True iff every tail of seq lies strictly above the lower boundary
    word and weakly below pi1."""
    lower = star_zero(pi1)
    b = max(_decided_length(seq, lower), _decided_length(seq, pi1))
    u, low, up = seq.prefix(seq.tail_count() + b), lower.prefix(b), pi1.prefix(b)
    for k in range(seq.tail_count()):
        t = u[k:k + b]
        if _alt_order(low, t).result >= 0 or _alt_order(t, up).result > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# validity of an expansion of 1


def _in_block_closure(u: DigitWord, pre: int, per: int, blocks: tuple[DigitWord, ...]) -> bool:
    """Is the sequence unrolled as u an infinite concatenation of the blocks?

    Parse positions beyond the preperiod pre are identified modulo the
    period per, giving a finite position graph of at most pre + per nodes;
    an infinite parse exists iff some parse of pre + per blocks does, as a
    path that long repeats a node.  u must reach position pre + per plus
    the longest block.
    """
    blocks = [(b, len(b)) for b in blocks if min(b) >= 1]
    succ: dict[int, list[int]] = {}
    cur = {0}
    for _ in range(pre + per):
        nxt = set()
        for p in cur:
            if p not in succ:
                succ[p] = [q if q < pre else pre + (q - pre) % per
                           for b, n in blocks if u[p:(q := p + n)] == b]
            nxt.update(succ[p])
        if not nxt:
            return False
        cur = nxt
    return True


class ValidityReport(NamedTuple):
    valid: bool
    failed_condition: int | None = None
    witness: int | None = None

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "failed_condition": self.failed_condition,
            "witness_k": self.witness,
        }


def is_valid_expansion_of_one(seq: EvPeriodic) -> ValidityReport:
    """Decide whether seq is the expansion of 1 for some base > 1.

    Four conditions: (1) self-admissibility, (2) strictly above the
    substitution word, and two families of excluded block concatenations.
    Condition (3) excludes {d_1..d_{k-1}(d_k - 1) 1, d_1..d_k} mixtures
    (other than the pure power of the prefix itself) whenever the prefix
    power beats the substitution word; condition (4) excludes
    {d_1..d_k 1, d_1..d_{k-1}(d_k + 1)} mixtures under the analogous gate.
    The scan over k is finite: past preperiod + twice the period both the
    gates and the parses repeat.

    Every parse starts at 0, where only the prefix (condition 3) or only
    prefix + 1 (condition 4) matches, so the block parse runs only when
    the next block can follow: for (3), the word at the mapped position
    of k starts with the prefix or the lowered block; for (4), u[k] = 1.
    """
    ok, k = is_self_admissible(seq)
    if not ok:
        return ValidityReport(False, 1, k)

    cmp_w = compare_with_limit_word(seq)
    if cmp_w.result <= 0:
        return ValidityReport(False, 2, cmp_w.witness)

    pre, per = len(seq.preperiod), len(seq.period)
    kmax = pre + 2 * per
    u = seq.prefix(pre + per + kmax + 1)
    for k in range(1, kmax + 1):
        prefix = u[:k]
        # seq is prefix^infinity itself iff it is purely periodic and k is
        # a multiple of its period; the gates run last, as the parses
        # almost always fail first
        lowered = prefix[:-1] + (prefix[-1] - 1, 1)
        m = k if k < pre else pre + (k - pre) % per  # where the second block starts
        if ((pre or k % per) and (u[m:m + k] == prefix or u[m:m + k + 1] == lowered)
                and _in_block_closure(u, pre, per, (lowered, prefix))
                and _against_limit_word(_repeat(prefix)).result > 0):
            return ValidityReport(False, 3, k)

        bumped = prefix[:-1] + (prefix[-1] + 1,)
        if (u[k] == 1 and _in_block_closure(u, pre, per, (prefix + (1,), bumped))
                and _against_limit_word(_repeat(bumped)).result > 0):
            return ValidityReport(False, 4, k)

    return ValidityReport(True)
