"""Exact representation of bases beta > 1 and of points in their number field.

A base is either *exact* (an integer polynomial together with a rational
isolating interval containing exactly one of its real roots) or *decimal*
(the exact rational value it names).  All sign, floor and comparison
decisions on exact bases are certified by interval refinement plus
polynomial gcd zero tests.  Refinement bisects the isolating interval into
dyadic cells held as integers (the level-k cell is lo + [j, j+1]
(hi - lo)/2^k), one sign of the squarefree part per step, and enclosures
are the integer interval Horner of ``polys`` over a cell.  A decision
stops at the first level where a test holds (enclosure narrow enough,
free of 0, or spanning at most one integer).  Cells are nested and
interval arithmetic is inclusion-isotone, so each test is monotone in the
level: a search that jumps ahead by the predicted number of halvings and
then bisects over levels stops at the level, and with the rationals, of
refining one step at a time.  A point of an exact base is an integer
vector over one denominator, so field arithmetic and enclosures run on
integers.  A point of a decimal base is a ``Fraction``, whose floor and
comparisons are exact.

Only this module tells the two point types apart (``FieldPoint`` for
exact bases, ``Fraction`` for decimal ones).  Both take Python's numeric
operators (``+ - * / **``, comparisons, ``==`` and ``math.floor``), which
is how other modules build and compare points; the point functions at the
end of the file remain only for what the operators do not give: embedding
a rational, enclosures, and renderings.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PrecisionExhausted, SpecError
from . import polys

# the deepest refinement level a search may reach before PrecisionExhausted
MAX_REFINE_LEVEL = 100_000

_LOG2_5 = math.log2(5)


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"bad rational {text!r}") from exc


def _cleared(rationals) -> tuple[list[int], int]:
    """Integers a_i and one denominator d > 0 with r_i = a_i / d, d the lcm
    of the reduced denominators."""
    d = 1
    for c in rationals:
        if d % c.denominator:
            d = d * c.denominator // math.gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in rationals], d


def _int_str(n: int) -> str:
    """str(n), or SpecError past Python's int-to-str limit."""
    try:
        return str(n)
    except ValueError as exc:
        raise SpecError("output holds an integer beyond Python's "
                        f"{sys.get_int_max_str_digits()}-digit int-to-str limit") from exc


def format_rational(r: Fraction) -> str:
    """Serialize as num/den, or as the float repr when that is exactly r."""
    num, den = r.numerator, r.denominator
    if den == 1:
        return _int_str(num)
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    # with den = 2^a 5^b, r is the decimal N / 10^m for m = max(a, b) and
    # N = num 2^(m-a) 5^(m-b), which ends in a nonzero digit; a float repr
    # has at most 17 significant digits, so N >= 10^17 rules it out
    fives = math.ceil((odd.bit_length() - 1) / _LOG2_5)  # 5^b has floor(b log2 5) + 1 bits
    if odd == 5**fives:
        m = max(twos, fives)
        if (abs(num) << (m - twos)) * 5 ** (m - fives) < 10**17:
            text = repr(float(r))
            if Fraction(text) == r:
                return text
    return f"{_int_str(num)}/{_int_str(den)}"


class _Cells:
    """Dyadic cells of an isolating interval (lo, hi) = (A/D, (A + C)/D):
    the level-k cell lo + [j, j+1] (hi - lo)/2^k is the integers A 2^k + j C
    and A 2^k + (j+1) C over D 2^k.  Only the index j of the deepest cell
    computed is kept (level k has index j >> (deep - k)).  A root met as a
    midpoint, or found by ``Beta.floor_value``, is kept with its level:
    from there on every cell is the point (root, root)."""

    __slots__ = ("A", "C", "D", "sf", "sign_lo", "deep", "j", "level", "root", "root_level")

    def __init__(self, lo: Fraction, hi: Fraction, sf: tuple[int, ...]):
        self.D = lo.denominator * hi.denominator // math.gcd(lo.denominator, hi.denominator)
        self.A = lo.numerator * (self.D // lo.denominator)
        self.C = hi.numerator * (self.D // hi.denominator) - self.A
        self.sf, self.sign_lo = sf, polys.sign_at(sf, self.A, self.D)
        self.deep = self.j = self.level = 0
        self.root, self.root_level = None, math.inf

    def cell(self, k: int) -> tuple[int, int, int]:
        """Integers (lo, hi, den) with the level-k cell [lo/den, hi/den]."""
        A, C, D, deep, j = self.A, self.C, self.D, self.deep, self.j
        while deep < k < self.root_level:
            num, den = (A << deep + 1) + (2 * j + 1) * C, D << deep + 1  # the midpoint
            v = polys.sign_at(self.sf, num, den)
            if v == 0:
                self.root, self.root_level = Fraction(num, den), deep + 1
            else:
                deep, j = deep + 1, 2 * j + 1 if v == self.sign_lo else 2 * j
        self.deep, self.j = deep, j
        if k >= self.root_level:
            return self.root.numerator, self.root.numerator, self.root.denominator
        lo = (A << k) + (j >> (deep - k)) * C
        return lo, lo + C, D << k

    def search(self, holds, jump: int, what: str) -> int:
        """Move to, and return, the first level >= the current one where
        ``holds`` is true, starting ``jump`` levels ahead.  ``holds`` is
        monotone in the level, as any test on nested cells (or enclosures
        over them) is, so this is where a loop of single steps stops."""
        lo, cap = self.level, MAX_REFINE_LEVEL
        if holds(lo):
            return lo
        hi, step = min(lo + max(jump, 1), cap), 1
        while not holds(hi):  # gallop up; holds(lo) is false
            if hi >= cap:
                raise PrecisionExhausted(f"{what} not reached by refinement level {cap} "
                                         "(the level cap MAX_REFINE_LEVEL)")
            lo, hi, step = hi, min(hi + step, cap), 2 * step
        step = 1
        while hi - lo > 1:  # bisect, probing next to hi first
            probe = max(hi - step, (lo + hi) // 2)
            if holds(probe):
                hi, step = probe, 2 * step
            else:
                lo = probe
        self.level = hi
        return hi


@dataclass(frozen=True)
class Beta:
    """A base beta > 1, exact (polynomial + isolating interval) or decimal."""

    kind: str
    coeffs: tuple[int, ...] | None = None          # highest degree first
    iso: tuple[Fraction, Fraction] | None = None
    value: Fraction | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_poly(cls, coeffs, lo, hi) -> "Beta":
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        if len(coeffs) < 2:
            raise SpecError("polynomial must have positive degree")
        # roots at zero never describe a base > 1
        while coeffs[-1] == 0:
            coeffs = coeffs[:-1]
            if len(coeffs) < 2:
                raise SpecError("polynomial must have a root > 1")
        lo, hi = Fraction(lo), Fraction(hi)
        if not 1 < lo < hi:
            raise SpecError("isolating interval endpoints must be rationals > 1")
        beta = cls(kind="exact", coeffs=coeffs, iso=(lo, hi))
        sf = beta.sf_poly
        if polys.sign_at(sf, lo) == 0 or polys.sign_at(sf, hi) == 0:
            raise SpecError("isolating interval endpoints must not be roots")
        if polys.count_roots(sf, lo, hi, beta.sturm) != 1:
            raise SpecError("isolating interval must contain exactly one real root")
        return beta

    @classmethod
    def from_decimal(cls, value) -> "Beta":
        value = Fraction(value)
        if value <= 1:
            raise SpecError("base must exceed 1")
        return cls(kind="decimal", value=value)

    @classmethod
    def root_above_one(cls, poly: polys.IntPoly, lo, hi) -> "Beta":
        """The root above 1 of ``poly`` (lowest degree first) that (lo, hi)
        isolates, or the rational root lo when lo == hi.

        A left end at or below 1 is pushed above 1 by bisection, keeping the
        sign change; a rational root is widened to an open interval above 1
        that still isolates it.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if lo != hi and lo <= 1:
            sf = polys.squarefree_part(poly)
            s_lo = polys.sign_at(sf, lo)
            while lo <= 1:
                mid = (lo + hi) / 2
                v = polys.sign_at(sf, mid)
                if v == 0:
                    lo = hi = mid
                    break
                if s_lo * v < 0:
                    hi = mid
                else:
                    lo, s_lo = mid, v
        coeffs_high = tuple(reversed(poly))
        if lo == hi:
            chain = polys.sturm_chain(poly)
            eps = Fraction(1, 4)
            while not (lo - eps > 1 and polys.isolates(chain, lo - eps, lo + eps)):
                eps /= 2
            return cls.from_poly(coeffs_high, lo - eps, lo + eps)
        return cls.from_poly(coeffs_high, lo, hi)

    @classmethod
    def pisot2(cls, p: int, q: int) -> "Beta":
        """Root in (q, q+1) of x^2 - q x - p, requiring 1 <= p <= q."""
        p, q = int(p), int(q)
        if p < 1 or q < 1:
            raise SpecError("pisot2 needs p >= 1 and q >= 1")
        if p > q:
            raise SpecError("pisot2 requires p <= q")
        return cls.root_above_one((-p, -q, 1), q, q + 1)

    @classmethod
    def multinacci(cls, q: int, m: int) -> "Beta":
        """Root in (q, q+1) of x^m - q x^(m-1) - ... - q."""
        q, m = int(q), int(m)
        if q < 1 or m < 2:
            raise SpecError("multinacci needs q >= 1 and m >= 2")
        return cls.root_above_one((-q,) * m + (1,), q, q + 1)

    # -- internals ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def poly(self) -> polys.IntPoly:
        if "poly" not in self._cache:
            self._cache["poly"] = tuple(reversed(self.coeffs))
        return self._cache["poly"]

    @property
    def sturm(self) -> list[polys.IntPoly]:
        """Sturm chain of the squarefree part of the defining polynomial."""
        if "sturm" not in self._cache:
            self._cache["sturm"] = polys.sturm_chain(self.poly)
        return self._cache["sturm"]

    @property
    def sf_poly(self) -> polys.IntPoly:
        return self.sturm[0]

    @property
    def _power_table(self) -> tuple[list[tuple[int, ...]], int]:
        """x^d, ..., x^(2d-1) mod f as integer d-tuples over one denominator;
        ``times_beta`` reduces with the first row, products with the first d - 1."""
        if "powers" not in self._cache:
            f, d = self.poly, self.degree
            row = first = [Fraction(-c, f[-1]) for c in f[:-1]]  # x^d mod f
            rows = [row]
            for _ in range(d - 1):  # a companion step: shift, add top * (x^d mod f)
                row = [row[-1] * first[0]] + [c + row[-1] * r for c, r in zip(row, first[1:])]
                rows.append(row)
            ints, den = _cleared([c for row in rows for c in row])
            self._cache["powers"] = [tuple(ints[i:i + d]) for i in range(0, len(ints), d)], den
        return self._cache["powers"]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.is_exact else 1

    @property
    def _cells(self) -> _Cells:
        if "cells" not in self._cache:
            self._cache["cells"] = _Cells(*self.iso, self.sf_poly)
        return self._cache["cells"]

    def interval(self) -> tuple[Fraction, Fraction]:
        """Current refined isolating interval (a point for rational bases)."""
        if not self.is_exact:
            return (self.value, self.value)
        lo, hi, den = self._cells.cell(self._cells.level)
        return Fraction(lo, den), Fraction(hi, den)

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Shrink the isolating interval until it is narrower than ``width``."""
        if not self.is_exact:
            return (self.value, self.value)
        cells, width = self._cells, Fraction(width)
        # the cell width C / (D 2^k) first drops below the width at level k
        k = (cells.C * width.denominator // (width.numerator * cells.D)).bit_length() \
            if width > 0 else math.inf
        cells.search(lambda j: j >= k or cells.cell(j)[0] == cells.cell(j)[1],
                     k - cells.level, "isolating interval narrower than the width")
        return self.interval()

    def floor_value(self) -> int:
        """Exact floor of beta."""
        if "floor" in self._cache:
            return self._cache["floor"]
        if not self.is_exact:
            f = self.value.numerator // self.value.denominator
        else:
            cells = self._cells

            def decided(k):
                # the floors agree, or the integer between them is a root: beta
                lo, hi, den = cells.cell(k)
                return lo // den == hi // den or polys.sign_at(cells.sf, lo // den + 1, 1) == 0

            k = cells.search(decided, 1, "floor of beta")
            lo, hi, den = cells.cell(k)
            f = lo // den
            if hi // den != f:
                f += 1
                cells.root, cells.root_level = Fraction(f), k
        self._cache["floor"] = f
        return f

    @property
    def alphabet_max(self) -> int:
        return self.floor_value() + 1

    def decimal_str(self, digits: int = 15) -> str:
        lo, hi = self.refine(Fraction(1, 10 ** (digits + 2)))
        return point_decimal_str((lo + hi) / 2, digits)

    def spec_string(self) -> str:
        if self.is_exact:
            lo, hi = self.iso
            body = ",".join(str(c) for c in self.coeffs)
            return f"poly:[{body}]@({format_rational(lo)},{format_rational(hi)})"
        return f"dec:{format_rational(self.value)}"

    def plus_one(self) -> "Beta":
        """The base beta + 1, exact when this base is exact."""
        if not self.is_exact:
            return Beta.from_decimal(self.value + 1)
        ints = polys.primitive(polys.taylor_shift(self.poly, -1))
        lo, hi = self.iso
        return Beta.from_poly(tuple(reversed(ints)), lo + 1, hi + 1)

    # -- field points ------------------------------------------------------

    def one(self):
        return self.point_from_rational(Fraction(1))

    def point_from_rational(self, r):
        r = Fraction(r)
        if not self.is_exact:
            return r
        return FieldPoint._of(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

    def beta_point(self):
        """beta itself in the base's point type."""
        if not self.is_exact:
            return self.value
        # x itself, reduced mod f when f is linear (the root is rational)
        return FieldPoint(self, (0, 1))


class FieldPoint:
    """An element of Q[x]/(f) evaluated at the isolated root of ``f``.

    Stored as integers: ``num``, a d-tuple, over one denominator ``den`` > 0
    with no factor common to den and every entry of num, so the coordinates
    are num_i / den and den is the lcm of their reduced denominators.
    The defining polynomial need not be minimal; equality and sign are
    decided through gcd zero tests and interval refinement, which stay
    correct in the non-minimal case.
    """

    __slots__ = ("beta", "num", "den")

    def __init__(self, beta: Beta, coeffs):
        """The point with rational coordinates ``coeffs``, reduced mod f
        when there are more than d of them."""
        num, den = _cleared(coeffs)
        d = beta.degree
        if len(num) > d:  # m num = q f + r, so num = r / m mod f
            m, _, num = polys.pseudo_divmod(polys.trimmed(num), beta.poly)
            den *= m
        g = math.gcd(den, *num)
        self.beta, self.den = beta, den // g
        self.num = tuple(c // g for c in num) + (0,) * (d - len(num))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in the basis 1, beta, ..., beta^(d-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # arithmetic -----------------------------------------------------------

    @classmethod
    def _of(cls, beta: Beta, num: tuple[int, ...], den: int) -> "FieldPoint":
        """The point num / den (a d-tuple of integers, den > 0), reduced."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num, den = tuple(c // g for c in num), den // g
        x = object.__new__(cls)
        x.beta, x.num, x.den = beta, num, den
        return x

    def _plus(self, o: "FieldPoint", e: int) -> "FieldPoint":
        """self + e * o for e = 1 or -1."""
        a, s, b, t = self.num, self.den, o.num, o.den
        if s == t:
            return FieldPoint._of(self.beta, tuple(x + e * y for x, y in zip(a, b)), s)
        g = math.gcd(s, t)
        s, t = s // g, t // g
        return FieldPoint._of(self.beta, tuple(x * t + e * y * s for x, y in zip(a, b)), s * t * g)

    def __add__(self, other):
        return self._plus(self._coerce(other), 1)

    def __radd__(self, other):
        # sum() starts from the int 0
        return self if other == 0 else self + other

    def __neg__(self):
        return FieldPoint._of(self.beta, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other)._plus(self, -1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldPoint._of(self.beta, tuple(a * other.numerator for a in self.num),
                                  self.den * other.denominator)
        o, d = self._coerce(other), self.beta.degree
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(o.num):
                    prod[i + j] += a * b
        rows, t = self.beta._power_table
        out = prod[:d] if t == 1 else [c * t for c in prod[:d]]
        for p, row in zip(prod[d:], rows):  # x^k mod f from the table for each k >= d
            if p:
                out = [c + p * r for c, r in zip(out, row)]
        return FieldPoint._of(self.beta, tuple(out), self.den * o.den * t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def _coerce(self, other) -> "FieldPoint":
        if isinstance(other, FieldPoint):
            if other.beta is not self.beta and other.beta != self.beta:
                raise SpecError("field points belong to different bases")
            return other
        if isinstance(other, (int, Fraction)):
            return self.beta.point_from_rational(Fraction(other))
        raise TypeError(f"cannot combine FieldPoint with {type(other)!r}")

    def times_beta(self) -> "FieldPoint":
        """beta * self as one companion step: shift the coordinates and
        add top * (x^d mod f), the unique reduced representative."""
        top, shifted = self.num[-1], (0,) + self.num[:-1]
        if not top:
            return FieldPoint._of(self.beta, shifted, self.den)
        rows, t = self.beta._power_table
        return FieldPoint._of(self.beta, tuple(c * t + top * r for c, r in zip(shifted, rows[0])),
                              self.den * t)

    def inverse(self) -> "FieldPoint":
        """Multiplicative inverse; raises ZeroDivisionError on zero.  One integer
        extended remainder sequence gives u c = g (mod f) for the numerator c;
        the zero test runs only when g is not constant."""
        c = polys.trimmed(self.num)
        if not c:
            raise ZeroDivisionError("field point is zero")
        f = self.beta.poly
        g, u = polys.cofactor_gcd(c, f)
        if len(g) > 1 and self.is_zero():
            raise ZeroDivisionError("field point is zero")
        while len(g) > 1:
            # non-minimal modulus: g divides c and c(beta) != 0, so beta is
            # a root of the cofactor f / g, where c is invertible
            f = polys.exact_quotient(f, polys.primitive(g))
            g, u = polys.cofactor_gcd(c, f)
        u = u + (0,) * (self.beta.degree - len(u))
        return FieldPoint._of(self.beta, u, 1) * Fraction(self.den, g[0])  # den u / g

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.beta.point_from_rational(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # decisions ------------------------------------------------------------

    def is_zero(self) -> bool:
        if not any(self.num):
            return True
        if not any(self.num[1:]):
            return False
        g = polys.poly_gcd(self.num, self.beta.poly)
        if len(g) == 1:
            return False
        chain = polys.sturm_chain(g)
        g = chain[0]
        # cell endpoints are never roots of the squarefree part of f, nor
        # of g, which divides f: only a cell shrunk to the root is a point
        lo, hi = self.beta.interval()
        if lo == hi:
            return polys.sign_at(g, lo) == 0
        return polys.count_roots(g, lo, hi, chain) > 0

    def _search(self, holds, width: Fraction | None, what: str) -> tuple[int, int, int]:
        """The enclosure [a/s, b/s] of this point, as (a, b, s), at the first
        level >= the current one where holds(a, b, s); the search starts
        where halving the current enclosure each level passes ``width``."""
        ints, d, cells, memo = polys.trimmed(self.num), self.den, self.beta._cells, {}

        def enclosure(k):
            if k not in memo:
                a, b, s = polys.int_eval_interval(ints, *cells.cell(k))
                memo[k] = a, b, d * s
            return memo[k]

        jump = 1
        if width is not None:
            a, b, s = enclosure(cells.level)
            jump = ((b - a) * width.denominator).bit_length() - (s * width.numerator).bit_length()
        return enclosure(cells.search(lambda k: holds(*enclosure(k)), jump, what))

    def sign(self) -> int:
        """-1, 0 or 1; the gcd zero test runs only once an enclosure
        contains 0, and refinement resumes after it."""
        a, b, _ = self._search(lambda *_: True, None, "")
        if a <= 0 <= b:
            if self.is_zero():
                return 0
            a, b, _ = self._search(lambda a, b, s: a > 0 or b < 0, None, "sign of a field point")
        return 1 if a > 0 else -1

    def _narrower(self, w: Fraction) -> tuple[int, int, int]:
        """The enclosure (a, b, s) of ``_search`` narrower than w."""
        return self._search(lambda a, b, s: (b - a) * w.denominator < w.numerator * s, w,
                            "enclosure of a field point narrower than the width")

    def interval(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A rational enclosure of this value narrower than ``width``."""
        a, b, s = self._narrower(Fraction(width))
        return Fraction(a, s), Fraction(b, s)

    def compare(self, other) -> int:
        """-1, 0, or 1 against another point or a rational."""
        return (self - other).sign()

    def __eq__(self, other):
        """Decided by the enclosure at the current level when it excludes 0,
        else by the gcd zero test; never refines."""
        if isinstance(other, (FieldPoint, int, Fraction)):
            d = self - other
            a, b, _ = d._search(lambda *_: True, None, "")
            return a <= 0 <= b and d.is_zero()
        return NotImplemented

    __hash__ = None  # exact equality is semantic, not structural

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __floor__(self) -> int:
        """Exact floor: refine until at most one integer is left in the
        enclosure, then settle it by a sign test."""
        a, b, s = self._search(lambda a, b, s: b // s - a // s <= 1, Fraction(1),
                               "floor of a field point")
        if a // s == b // s:
            return a // s
        return b // s if (self - b // s).sign() >= 0 else a // s

    def decimal_str(self, digits: int = 15) -> str:
        a, b, s = self._narrower(Fraction(1, 10 ** (digits + 2)))
        return _ratio_decimal_str(a + b, 2 * s, digits)

    def __float__(self) -> float:
        lo, hi = self.interval(Fraction(1, 10**20))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"FieldPoint({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# public operations


_SPEC_POLY = re.compile(r"^poly:\[(?P<coeffs>[^\]]+)\]@\((?P<lo>[^,]+),(?P<hi>[^)]+)\)$")
_SPEC_PISOT2 = re.compile(r"^pisot2:p=(?P<p>-?\d+),q=(?P<q>-?\d+)$")
_SPEC_MULTINACCI = re.compile(r"^multinacci:q=(?P<q>-?\d+),m=(?P<m>-?\d+)$")


def make_beta(spec: str, _ignored=None) -> Beta:
    """Parse a base specification string.

    Grammar: ``dec:<decimal>``, ``poly:[c_k,...,c_0]@(lo,hi)``,
    ``pisot2:p=<p>,q=<q>``, ``multinacci:q=<q>,m=<m>``.  A ``dec:`` base is
    the exact rational it names.

    ``_ignored`` was the working precision in bits of a decimal base and
    has no effect; it stays because the setup timing of ``bench/run.py``
    still calls ``make_beta(spec, 256)``.
    """
    spec = spec.strip()
    if spec.startswith("dec:"):
        return Beta.from_decimal(_parse_rational(spec[4:]))
    m = _SPEC_POLY.match(spec)
    if m:
        try:
            coeffs = [int(c) for c in m.group("coeffs").split(",")]
        except ValueError as exc:
            raise SpecError(f"bad coefficient list in {spec!r}") from exc
        return Beta.from_poly(coeffs, _parse_rational(m.group("lo")), _parse_rational(m.group("hi")))
    m = _SPEC_PISOT2.match(spec)
    if m:
        return Beta.pisot2(int(m.group("p")), int(m.group("q")))
    m = _SPEC_MULTINACCI.match(spec)
    if m:
        return Beta.multinacci(int(m.group("q")), int(m.group("m")))
    raise SpecError(f"unrecognized base specification {spec!r}")


def times_beta(beta: Beta, x):
    """beta * x in the base's point type."""
    if beta.is_exact:
        return as_point(beta, x).times_beta()
    return beta.value * x


def as_point(beta: Beta, r):
    """Embed a rational into the base's point type."""
    if isinstance(r, FieldPoint):
        return r
    return beta.point_from_rational(Fraction(r))


def floor_beta_times(beta: Beta, x) -> int:
    """Exact floor of beta*x for x in (0, 1]."""
    return math.floor(times_beta(beta, x))


def same_field(x, y) -> bool:
    """Can x and y meet in one arithmetic (not field points of two bases)?"""
    if isinstance(x, FieldPoint) and isinstance(y, FieldPoint):
        return x.beta == y.beta
    return True


def point_interval(x, width: Fraction) -> tuple[Fraction, Fraction]:
    """A rational enclosure of x narrower than ``width`` (a point if rational)."""
    if isinstance(x, FieldPoint):
        return x.interval(width)
    x = Fraction(x)
    return (x, x)


def point_scaled_floor(x, bits: int) -> int:
    """floor(lo * 2^bits) for the lower end lo of an enclosure of x narrower
    than 2^-bits (lo is x itself if x is rational)."""
    if isinstance(x, FieldPoint):
        a, _, s = x._narrower(Fraction(1, 1 << bits))
        return (a << bits) // s
    return (x.numerator << bits) // x.denominator


def point_decimal_str(x, digits: int = 15) -> str:
    if isinstance(x, FieldPoint):
        return x.decimal_str(digits)
    return _ratio_decimal_str(x.numerator, x.denominator, digits)


def _ratio_decimal_str(num: int, den: int, digits: int) -> str:
    """num/den (den > 0, not necessarily reduced) truncated toward zero."""
    s = _int_str(abs(num) * 10**digits // den).rjust(digits + 1, "0")
    ip, fp = s[:len(s) - digits], s[len(s) - digits:].rstrip("0")
    return ("-" if num < 0 else "") + ip + ("." + fp if fp else "")


def point_json(x, digits: int) -> dict:
    """JSON form: the decimal rendering plus the exact coordinates."""
    out = {"decimal": point_decimal_str(x, digits)}
    if isinstance(x, FieldPoint):
        out["coeffs"] = [format_rational(c) for c in x.coeffs]
    else:
        out["exact"] = format_rational(Fraction(x))
    return out
