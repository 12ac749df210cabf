"""Exact representation of bases beta > 1 and of points in their number field.

A base is either *exact* (an integer polynomial together with a rational
isolating interval containing exactly one of its real roots) or *decimal*
(the exact rational value it names).  On a quadratic base, beta is
(-B + s sqrt(D)) / (2A), so every point is (u + t sqrt(D)) / v with
integers u, t, v, and every sign, floor, comparison and equality is
decided on integers by square roots, with no refinement.  On any other
exact base each is one position test, the sign of x - n/d read off x's
enclosures, certified by refinement plus one zero test through the gcd
inverses use.  Refinement narrows the isolating interval to dyadic cells
held as integers (the level-k cell is lo + [j, j+1] (hi - lo)/2^k):
Newton's method, in integer fixed point from the deepest cell's midpoint,
proposes the level-k cell, two exact signs of the squarefree part at its
ends certify it, and short gaps are bisected one sign per level; no
decision uses a float.  Enclosures are the integer interval Horner of
``polys`` over a cell.  A decision stops at the first level where a test
holds (enclosure narrow enough, free of 0, or spanning at most one
integer).  Cells are nested and interval arithmetic is inclusion-isotone,
so each test is monotone in the level: a search that jumps ahead by the
predicted number of halvings and then bisects over levels stops at the
level, and with the rationals, of refining one step at a time.  A point
of an exact base is an integer vector over one denominator, so field
arithmetic (its power table x^d, ..., x^(2d-1) mod f included),
``int``/``Fraction`` operands, floors, search widths and coordinate
renderings run on integers and build no ``Fraction``.  A point of a
decimal base is a ``Fraction``, whose floor and comparisons are exact.

Only this module tells the two point types apart (``FieldPoint`` for
exact bases, ``Fraction`` for decimal ones).  Both take Python's numeric
operators (``+ - * / **``, comparisons, ``==`` and ``math.floor``), which
is how other modules build and compare points; the point functions at the
end of the file remain only for what the operators do not give: embedding
a rational, enclosures, and renderings.  A decimal rendering is the exact
truncation of the value, decided by an exact floor, so it does not depend
on how far the base was refined before.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PrecisionExhausted, SpecError
from . import polys

# the deepest refinement level a search may reach before PrecisionExhausted
MAX_REFINE_LEVEL = 100_000

# _Cells bisects gaps of at most this many levels instead of jumping.  A
# jump seeds Newton with at least, and spends per Newton doubling on the
# polynomial's curvature, this many bits; it allows this many one-cell
# moves before its proposal fails, then this many more Newton steps at the
# final precision.
_BISECT_GAP = 8
_NEWTON_GUARD = 8
_CERTIFY_MOVES = 4
_NEWTON_EXTRA = 8

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


def _int_str(n: int) -> str:
    """str(n), or SpecError past Python's int-to-str limit."""
    try:
        return str(n)
    except ValueError as exc:
        raise _str_limit_error() from exc


def _str_limit_error() -> SpecError:
    return SpecError("output holds an integer beyond Python's "
                     f"{sys.get_int_max_str_digits()}-digit int-to-str limit")


def format_rational(r: Fraction) -> str:
    """Serialize as num/den, or as the float repr when that is exactly r."""
    return _format_ratio(r.numerator, r.denominator)


def _format_ratio(num: int, den: int) -> str:
    """``format_rational`` of num / den, given in lowest terms with den > 0."""
    if den == 1:
        return _int_str(num)
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    # with den = 2^a 5^b, r is the decimal N / 10^m for m = max(a, b) and
    # N = num 2^(m-a) 5^(m-b), which ends in a nonzero digit; a float repr
    # has at most 17 significant digits, so N >= 10^17 > 2^56 rules it out.
    # N >= 2^(bits(num) - 1 + m - a + 2 (m - b)) decides most cases before 5^b.
    fives = math.ceil((odd.bit_length() - 1) / _LOG2_5)  # 5^b has floor(b log2 5) + 1 bits
    m = max(twos, fives)
    if abs(num).bit_length() - 1 + (m - twos) + 2 * (m - fives) <= 56 and odd == 5**fives \
            and (abs(num) << (m - twos)) * 5 ** (m - fives) < 10**17:
        text = repr(num / den)
        t = Fraction(text)
        if t.numerator == num and t.denominator == den:
            return text
    return f"{_int_str(num)}/{_int_str(den)}"


class _Cells:
    """Dyadic cells of an isolating interval (lo, hi) = (A/D, (A + C)/D):
    the level-k cell lo + [j, j+1] (hi - lo)/2^k is the integers A 2^k + j C
    and A 2^k + (j+1) C over D 2^k.  Only the index j of the deepest cell
    computed is kept (level k has index j >> (deep - k)).  A root met as a
    midpoint, or found by ``Beta.floor_value``, is kept with its level:
    from there on every cell is the point (root, root).

    A deeper cell is reached by a jump: Newton's method on the squarefree
    part, in integer fixed point from the deepest cell's midpoint,
    proposes the index at the target level, and two exact signs at
    the ends of the proposed cell certify it (the proposal moves by one
    cell until they do).  Bisection, one sign per level, covers short gaps;
    after a proposal that fails, even with more Newton steps, it covers a
    chunk of the gap, twice as long as the last, before the next jump.
    Either way the cell, the root and its level are those of bisecting one
    level at a time: the level-k cell holding the root is unique, and a
    root on the level-k grid is the midpoint of a cell at the level its
    index's factors of 2 give."""

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
        chunk = _BISECT_GAP
        while self.deep + _BISECT_GAP < k < self.root_level and not self._jump(k):
            chunk *= 2
            self._bisect(min(k, self.deep + chunk))
        self._bisect(k)
        if k >= self.root_level:
            return self.root.numerator, self.root.numerator, self.root.denominator
        lo = (self.A << k) + (self.j >> (self.deep - k)) * self.C
        return lo, lo + self.C, self.D << k

    def _bisect(self, k: int) -> None:
        """Bisect one level per sign until level k (or the root) is reached."""
        A, C, D, deep, j = self.A, self.C, self.D, self.deep, self.j
        while deep < k < self.root_level:
            num, den = (A << deep + 1) + (2 * j + 1) * C, D << deep + 1  # the midpoint
            v = polys.sign_at(self.sf, num, den)
            if v == 0:
                self.root, self.root_level = Fraction(num, den), deep + 1
            else:
                deep, j = deep + 1, 2 * j + 1 if v == self.sign_lo else 2 * j
        self.deep, self.j = deep, j

    def _jump(self, k: int) -> bool:
        """Move to level k, or to the root if it lies on the level-k grid,
        by a certified Newton proposal started from the deepest cell's
        midpoint; False, with nothing moved, when the proposal fails to
        certify.  Next to a second root, or from a cell too wide for its
        midpoint to be near the root, Newton gains fewer bits per step than
        the schedule budgets, so a failed proposal takes up to _NEWTON_EXTRA
        more steps at the final precision, until a correction is below a
        level-k cell, and is certified once more."""
        sf, scale = self.sf, self.D.bit_length() - self.C.bit_length()
        # the level-k cell is ~2^-(k + scale) wide
        x, q = self._seed(scale)
        # Newton doubles the correct bits per step, up to a 2^-p error: an
        # eighth of the level-k cell
        p, steps = max(k + scale + 4, q), []
        while p > q:
            steps.append(p)
            p = max(p // 2 + _NEWTON_GUARD, q) if p > 4 * _NEWTON_GUARD else q
        for p in reversed(steps):
            x <<= p - q
            v, dv = _fixed_point_newton_terms(sf, x, p)
            if not dv:
                return False
            x, q = x - v // dv, p
        if self._certify(k, x, q):
            return True
        for _ in range(_NEWTON_EXTRA):
            v, dv = _fixed_point_newton_terms(sf, x, q)
            if not dv:
                return False
            step = v // dv
            x -= step
            if abs(step) < 1 << (q - k - scale):
                break
        return self._certify(k, x, q)

    def _certify(self, k: int, x: int, q: int) -> bool:
        """Certify the level-k cell holding x / 2^q, moving it by one cell at
        most _CERTIFY_MOVES times, and move there (or to a grid root)."""
        A, C, D, sf = self.A, self.C, self.D, self.sf
        first = self.j << (k - self.deep)  # the level-k cells inside the deepest one
        j = min(max(((D * x - (A << q)) << k) // (C << q), first),
                first + (1 << (k - self.deep)) - 1)
        den = D << k
        s_lo, s_hi = (polys.sign_at(sf, (A << k) + i * C, den) for i in (j, j + 1))
        for _ in range(_CERTIFY_MOVES + 1):  # certify after each of 0 .. _CERTIFY_MOVES moves
            if s_lo == 0 or s_hi == 0:  # a grid point: the midpoint of a cell at a lower level
                i = j if s_lo == 0 else j + 1
                level = k - ((i & -i).bit_length() - 1)
                self.root, self.root_level = Fraction((A << k) + i * C, den), level
                self.deep, self.j = level - 1, i >> (k - level + 1)
                return True
            if s_lo == self.sign_lo != s_hi:
                self.deep, self.j = k, j
                return True
            if s_lo != self.sign_lo:  # the root is left of the cell
                j, s_hi = j - 1, s_lo
                s_lo = polys.sign_at(sf, (A << k) + j * C, den)
            else:
                j, s_lo = j + 1, s_hi
                s_hi = polys.sign_at(sf, (A << k) + (j + 1) * C, den)
        return False

    def _seed(self, scale: int) -> tuple[int, int]:
        """(x, q) with x / 2^q the deepest cell's midpoint rounded down to a
        multiple of 2^-q, for q = max(deep + scale + 1, _NEWTON_GUARD) bits:
        about the cell's own precision, and never negative when the
        isolating interval is wider than 1."""
        A, C, D, deep, j = self.A, self.C, self.D, self.deep, self.j
        q = max(deep + scale + 1, _NEWTON_GUARD)
        return (((A << deep + 1) + (2 * j + 1) * C) << q) // (D << deep + 1), q

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


def _fixed_point_newton_terms(f: tuple[int, ...], x: int, p: int) -> tuple[int, int]:
    """(2^(pn) f(x / 2^p), 2^(p(n-1)) f'(x / 2^p)) for f of degree n, by
    one Horner pass on integers; their quotient is 2^p f/f' at x / 2^p."""
    v, dv = f[-1], 0
    for i, c in enumerate(reversed(f[:-1]), 1):
        dv, v = dv * x + v, v * x + (c << p * i)
    return v, dv


@dataclass(frozen=True)
class Beta:
    """A base beta > 1, exact (polynomial + isolating interval) or decimal."""

    kind: str
    coeffs: tuple[int, ...] | None = None          # highest degree first
    iso: tuple[Fraction, Fraction] | None = None
    value: Fraction | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_poly(cls, coeffs, lo, hi, chain: list[polys.IntPoly] | None = None) -> "Beta":
        """The root of ``coeffs`` (highest degree first) that (lo, hi)
        isolates.  ``chain``, when given, is the Sturm chain of the
        polynomial as ``sturm_chain`` builds it, kept as ``sturm``."""
        coeffs = tuple(int(c) for c in coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
        if len(coeffs) < 2:
            raise SpecError("polynomial must have positive degree")
        lo, hi = Fraction(lo), Fraction(hi)
        if not 1 < lo < hi:
            raise SpecError("isolating interval endpoints must be rationals > 1")
        beta = cls(kind="exact", coeffs=coeffs, iso=(lo, hi))
        if chain is not None:
            beta.__dict__["sturm"] = chain
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
    def root_above_one(cls, poly: polys.IntPoly, lo, hi,
                       chain: list[polys.IntPoly] | None = None) -> "Beta":
        """The root above 1 of ``poly`` (lowest degree first) that (lo, hi)
        isolates, or the rational root lo when lo == hi.

        A left end at or below 1 is pushed above 1 by bisection, keeping the
        sign change; a rational root is widened to an open interval above 1
        that still isolates it.  ``chain``, when given, is
        ``sturm_chain(poly)``; it is built here otherwise.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if chain is None:
            chain = polys.sturm_chain(poly)
        if lo != hi and lo <= 1:
            sf = chain[0]
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
            eps = Fraction(1, 4)
            while not (lo - eps > 1 and polys.isolates(chain, lo - eps, lo + eps)):
                eps /= 2
            lo, hi = lo - eps, lo + eps
        return cls.from_poly(coeffs_high, lo, hi, chain)

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

    @cached_property
    def poly(self) -> polys.IntPoly:
        return tuple(reversed(self.coeffs))

    @cached_property
    def sturm(self) -> list[polys.IntPoly]:
        """Sturm chain of the squarefree part of the defining polynomial."""
        return polys.sturm_chain(self.poly)

    @property
    def sf_poly(self) -> polys.IntPoly:
        return self.sturm[0]

    @cached_property
    def _power_table(self) -> tuple[list[tuple[int, ...]], int]:
        """x^d, ..., x^(2d-1) mod f as integer d-tuples over one denominator,
        the lcm of the reduced denominators of their coordinates;
        ``times_beta`` reduces with the first row, products with the first d - 1."""
        f, d = self.poly, self.degree
        lc, first = (f[-1], [-c for c in f[:-1]]) if f[-1] > 0 else (-f[-1], list(f[:-1]))
        # x^(d+k) mod f is rows[k] / lc^(k+1); a companion step shifts and
        # adds top * (x^d mod f), over one more factor lc
        rows = [first]
        for _ in range(d - 1):
            row = rows[-1]
            top = row[-1]
            rows.append([top * first[0]] + [lc * c + top * r for c, r in zip(row, first[1:])])
        # over the common denominator lc^d, then reduced once
        scale = [lc ** (d - 1 - k) for k in range(d)]
        ints = [c * s for row, s in zip(rows, scale) for c in row]
        den = lc ** d
        g = math.gcd(den, *ints)
        ints = [c // g for c in ints]
        return [tuple(ints[i:i + d]) for i in range(0, len(ints), d)], den // g

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.is_exact else 1

    @cached_property
    def _cells(self) -> _Cells:
        return _Cells(*self.iso, self.sf_poly)

    def _is_root_of(self, g: polys.IntPoly) -> bool:
        """Is beta a root of g, a divisor of f?  A Sturm count in the current
        cell, or a sign when the cell is a point: no cell endpoint is a root
        of the squarefree part of f, nor of g."""
        if len(g) < 2:
            return False
        lo, hi = self.interval()
        if lo == hi:
            return polys.sign_at(g, lo) == 0
        return polys.count_roots(g, lo, hi) > 0

    def interval(self) -> tuple[Fraction, Fraction]:
        """Current refined isolating interval (a point for rational bases)."""
        if not self.is_exact:
            return (self.value, self.value)
        lo, hi, den = self._cells.cell(self._cells.level)
        return Fraction(lo, den), Fraction(hi, den)

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Shrink the isolating interval until it is narrower than ``width``:
        the search goes straight to the first level whose cells are that
        narrow, which a Newton jump reaches in a few certified steps."""
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
        return self._floor

    @cached_property
    def _floor(self) -> int:
        if not self.is_exact:
            return self.value.numerator // self.value.denominator
        if self._surd is not None:
            b = self.beta_point()
            f = math.floor(b)
            if not self.field_proved and b == f and self._cells.root is None:
                # beta is the integer f: from here on every cell is that point
                self._cells.root, self._cells.root_level = Fraction(f), self._cells.level
            return f
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
        return f

    @property
    def alphabet_max(self) -> int:
        return self.floor_value() + 1

    def decimal_str(self, digits: int = 15) -> str:
        return point_decimal_str(self.beta_point(), digits)

    def spec_string(self) -> str:
        if self.is_exact:
            lo, hi = self.iso
            body = ",".join(str(c) for c in self.coeffs)
            return f"poly:[{body}]@({format_rational(lo)},{format_rational(hi)})"
        return f"dec:{format_rational(self.value)}"

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.coeffs, self.iso, self.value))

    def __hash__(self):
        """The dataclass's hash of the fields, computed once: ``shift_to``
        and ``_coerce`` look bases up on every mixed operation, and the
        fields hold ``Fraction``s, whose hash takes a modular inverse."""
        return self._hash

    @cached_property
    def field_proved(self) -> bool:
        """Is the defining polynomial f proved irreducible
        (``polys.proved_irreducible``: degree 1, degree 2 with a discriminant
        that is not a square, or degree 3 with no root modulo some small
        prime)?  Then Q[x]/(f) is a field, so the reduced coordinates of a
        point are unique: two points of this base are equal exactly when
        their (num, den) are, and a point is zero exactly when its num is.
        False for a decimal base and whenever the test proves nothing; such
        points take the position and gcd tests."""
        return self.is_exact and polys.proved_irreducible(self.poly)

    @cached_property
    def _surd(self) -> tuple[int, int, int, int] | None:
        """(2A, B, s, D) with beta = (-B + s sqrt(D)) / (2A) when f = A x^2
        + B x + C, scaled so that A > 0, and D = B^2 - 4AC: s = 1 when beta
        is the larger root, which is when f < 0 at the isolating interval's
        left end.  Then every point of the base is (u + t sqrt(D)) / v for
        integers u, t, v (``FieldPoint._surd``).  None unless f has degree 2."""
        if self.degree != 2:
            return None
        a, b, c = self.coeffs if self.coeffs[0] > 0 else (-k for k in self.coeffs)
        return 2 * a, b, -polys.sign_at((c, b, a), self.iso[0]), b * b - 4 * a * c

    @cached_property
    def _shifts(self) -> dict:
        """``shift_to``'s answers, by the other base."""
        return {}

    def shift_to(self, other: "Beta") -> int | None:
        """The integer t with other = self + t, or None.

        The candidate t is read off the two polynomials (f(x - t) has
        x^(d-1) coefficient f_(d-1) - d t f_d), so x -> x - t must carry f
        onto other's polynomial up to a scalar, which makes self + t a root
        of it; it is other's root when other's interval and self's shifted
        by t hold exactly one root between them.  An interval that is a
        point, or a hull holding more roots, is decided by the position of
        self + t against other's isolating interval.  None for a decimal
        base, and when the polynomials are not shifts of each other even if
        the values are (a non-minimal f can give this)."""
        t = self._shifts.get(other, False)
        if t is False:  # not asked yet (t is an int or None)
            t = self._shifts[other] = self._find_shift(other)
        return t

    def _find_shift(self, other: "Beta") -> int | None:
        if not (self.is_exact and other.is_exact) or self.degree != other.degree:
            return None
        f, g, d = self.poly, other.poly, self.degree
        t, r = divmod(f[d - 1] * g[d] - g[d - 1] * f[d], d * f[d] * g[d])
        if r or polys.primitive(polys.taylor_shift(f, -t)) != polys.primitive(g):
            return None
        # no cell endpoint is a root, so neither is a shifted one of self's
        (a, b), (c, e) = self.interval(), other.interval()
        if a < b and c < e and polys.count_roots(
                other.sf_poly, min(a + t, c), max(b + t, e), other.sturm) == 1:
            return t
        lo, hi = other.iso
        return t if lo < self.beta_point() + t < hi else None

    def plus_one(self) -> "Beta":
        """The base beta + 1, exact when this base is exact."""
        if not self.is_exact:
            return Beta.from_decimal(self.value + 1)
        # x -> x - 1 commutes with pseudo-division, derivative and content
        chain = [polys.taylor_shift(g, -1) for g in self.sturm]
        ints = polys.primitive(polys.taylor_shift(self.poly, -1))
        lo, hi = self.iso
        return Beta.from_poly(tuple(reversed(ints)), lo + 1, hi + 1, chain)

    # -- field points ------------------------------------------------------

    def one(self):
        return self.point_from_rational(1)

    def point_from_rational(self, r):
        if not self.is_exact:
            return Fraction(r)
        return FieldPoint._rational(self, r if isinstance(r, (int, Fraction)) else Fraction(r))

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
    Every construction reduces, so the form is canonical once Q[x]/(f) is
    a field: on a base with ``Beta.field_proved``, equality and the zero
    test compare (num, den).  Otherwise the defining polynomial need not
    be minimal, and equality and sign are decided through gcd zero tests
    and interval refinement, which stay correct in the non-minimal case;
    on a quadratic base, signs and floors are exact on the surd form
    (``_surd``) instead.
    """

    __slots__ = ("beta", "num", "den")

    def __init__(self, beta: Beta, coeffs):
        """The point with rational coordinates ``coeffs``, reduced mod f
        when there are more than d of them."""
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
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
    def _new(cls, beta: Beta, num: tuple[int, ...], den: int) -> "FieldPoint":
        """The point num / den, given reduced (a d-tuple of integers, den > 0)."""
        x = object.__new__(cls)
        x.beta, x.num, x.den = beta, num, den
        return x

    @classmethod
    def _of(cls, beta: Beta, num: tuple[int, ...], den: int) -> "FieldPoint":
        """The point num / den (a d-tuple of integers, den > 0), reduced."""
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num, den = tuple(c // g for c in num), den // g
        return cls._new(beta, num, den)

    @classmethod
    def _rational(cls, beta: Beta, r) -> "FieldPoint":
        """The int or ``Fraction`` r as a point."""
        return cls._new(beta, (r.numerator,) + (0,) * (beta.degree - 1), r.denominator)

    def _add_int(self, n: int, e: int) -> "FieldPoint":
        """e * self + n for e = 1 or -1, reduced as it stands: num_0 + n den
        and num_1, ... have no factor common with den that num has not."""
        num = self.num if e == 1 else tuple(-a for a in self.num)
        return FieldPoint._new(self.beta, (num[0] + n * self.den,) + num[1:], self.den)

    def _plus(self, o: "FieldPoint", e: int) -> "FieldPoint":
        """self + e * o for e = 1 or -1."""
        a, s, b, t = self.num, self.den, o.num, o.den
        if s == t:
            return FieldPoint._of(self.beta, tuple(x + e * y for x, y in zip(a, b)), s)
        g = math.gcd(s, t)
        s, t = s // g, t // g
        return FieldPoint._of(self.beta, tuple(x * t + e * y * s for x, y in zip(a, b)), s * t * g)

    def __add__(self, other):
        if isinstance(other, int):
            return self._add_int(other, 1)
        return self._plus(self._coerce(other), 1)

    def __radd__(self, other):
        # sum() starts from the int 0
        return self if other == 0 else self + other

    def __neg__(self):
        return FieldPoint._new(self.beta, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, int):
            return self._add_int(-other, 1)
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other):
        if isinstance(other, int):
            return self._add_int(other, -1)
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
            n, d = other.numerator, other.denominator
            if not n:
                raise ZeroDivisionError("division by zero")
            if n < 0:
                n, d = -n, -d
            return FieldPoint._of(self.beta, tuple(a * d for a in self.num), self.den * n)
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def _coerce(self, other) -> "FieldPoint":
        """``other`` as a point of this base: a point of this base, or of the
        base beta + t for an integer t (``Beta.shift_to``), whose value
        y(beta + t) is (y o (x + t))(beta), so its coordinates are Taylor
        shifted by t and keep degree below d; or a rational."""
        if isinstance(other, FieldPoint):
            if other.beta is self.beta or other.beta == self.beta:
                return other
            t = self.beta.shift_to(other.beta)
            if t is None:
                raise SpecError("field points belong to different bases")
            return FieldPoint._of(self.beta, polys.taylor_shift(other.num, t), other.den)
        if isinstance(other, (int, Fraction)):
            return FieldPoint._rational(self.beta, other)
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
        extended remainder sequence gives u c = g (mod f) for the numerator c,
        and the zero test asks whether beta is a root of that g."""
        c = polys.trimmed(self.num)
        if not c:
            raise ZeroDivisionError("field point is zero")
        f = self.beta.poly
        g, u = polys.cofactor_gcd(c, f)
        if self.beta._is_root_of(g):
            raise ZeroDivisionError("field point is zero")
        while len(g) > 1:
            # non-minimal modulus: g divides c and c(beta) != 0, so beta is
            # a root of the cofactor f / g, where c is invertible
            f = polys.exact_quotient(f, polys.primitive(g))
            g, u = polys.cofactor_gcd(c, f)
        s = self.den if g[0] > 0 else -self.den  # den u / g over |g|
        u = tuple(c * s for c in u) + (0,) * (self.beta.degree - len(u))
        return FieldPoint._of(self.beta, u, abs(g[0]))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = FieldPoint._rational(self.beta, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # decisions ------------------------------------------------------------

    def is_zero(self) -> bool:
        """Is this point 0?  On a base with ``field_proved``, exactly when
        its coordinates are; otherwise exactly when beta is a root of
        gcd(c, f) for the numerator c, which one extended remainder
        sequence gives."""
        if self.beta.field_proved:
            return not any(self.num)
        c = polys.trimmed(self.num)
        g = polys.cofactor_gcd(c, self.beta.poly)[0] if len(c) > 1 else c
        return not c or self.beta._is_root_of(g)

    def _search(self, holds, width: tuple[int, int] | None, what: str) -> tuple[int, int, int]:
        """The enclosure [a/s, b/s] of this point, as (a, b, s), at the first
        level >= the current one where holds(a, b, s); the search starts
        where halving the current enclosure each level passes the width
        wn / wd given as ``width`` = (wn, wd)."""
        ints, d, cells, memo = polys.trimmed(self.num), self.den, self.beta._cells, {}

        def enclosure(k):
            if k not in memo:
                a, b, s = polys.int_eval_interval(ints, *cells.cell(k))
                memo[k] = a, b, d * s
            return memo[k]

        jump = 1
        if width is not None:
            a, b, s = enclosure(cells.level)
            jump = ((b - a) * width[1]).bit_length() - (s * width[0]).bit_length()
        return enclosure(cells.search(lambda k: holds(*enclosure(k)), jump, what))

    def _surd(self) -> tuple[int, int, int, int] | None:
        """(u, t, v, D) with this point (u + t sqrt(D)) / v and v > 0 on a
        base of degree 2 (``Beta._surd``); None on other bases."""
        if self.beta._surd is None:
            return None
        a2, b, s, D = self.beta._surd
        n0, n1 = self.num
        return a2 * n0 - b * n1, s * n1, a2 * self.den, D

    def _side(self, n: int, d: int, refine: bool = True) -> int | None:
        """The sign of self - n/d (d > 0).  On a quadratic base it is the
        sign of d u - n v + d t sqrt(D) (``_surd``), exact by comparing
        squares.  Otherwise it is read off this point's enclosures: scaled
        and shifted, they are those of the folded point d den (self - n/d),
        so the test stops at that point's level.  An enclosure holding n/d
        costs one gcd zero test of the folded point, then refinement until
        one excludes n/d (or None, with ``refine`` false)."""
        surd = self._surd()
        if surd is not None:
            u, t, v, D = surd
            return _surd_sign(d * u - n * v, d * t, D)

        def apart(a, b, s):
            return d * a > n * s or d * b < n * s

        a, b, s = self._search(lambda *_: True, None, "")
        if not apart(a, b, s):
            num = self.num if d == 1 else tuple(c * d for c in self.num)
            if FieldPoint._new(self.beta, (num[0] - n * self.den,) + num[1:], 1).is_zero():
                return 0
            if not refine:
                return None
            a, b, s = self._search(apart, None, "sign of a field point")
        return 1 if d * a > n * s else -1

    def sign(self) -> int:
        """-1, 0 or 1: the position test against 0."""
        return self._side(0, 1)

    def _narrower(self, wn: int, wd: int) -> tuple[int, int, int]:
        """The enclosure (a, b, s) of ``_search`` narrower than wn / wd."""
        return self._search(lambda a, b, s: (b - a) * wd < wn * s, (wn, wd),
                            "enclosure of a field point narrower than the width")

    def interval(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A rational enclosure of this value narrower than ``width``."""
        width = Fraction(width)
        a, b, s = self._narrower(width.numerator, width.denominator)
        return Fraction(a, s), Fraction(b, s)

    def compare(self, other) -> int:
        """-1, 0, or 1 against another point or a rational."""
        if isinstance(other, (int, Fraction)):
            return self._side(other.numerator, other.denominator)
        return (self - other)._side(0, 1)

    def __eq__(self, other):
        """Equal reduced coordinates mean equal points on any base, and on a
        base with ``field_proved`` different ones mean unequal points.
        Otherwise the position test at the current level, never refining:
        the enclosure decides when it excludes the other value, else the
        zero test."""
        if not isinstance(other, (FieldPoint, int, Fraction)):
            return NotImplemented
        o = self._coerce(other)
        if self.num == o.num and self.den == o.den:
            return True
        if self.beta.field_proved:
            return False
        if isinstance(other, FieldPoint):
            return self._plus(o, -1)._side(0, 1, refine=False) == 0
        return self._side(other.numerator, other.denominator, refine=False) == 0

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
        """Exact floor: on a quadratic base by integer square roots
        (``_surd_floor``); otherwise refine until at most one integer m is
        left in the enclosure, then settle it by the position test against m."""
        surd = self._surd()
        if surd is not None:
            return _surd_floor(*surd)
        a, b, s = self._search(lambda a, b, s: b // s - a // s <= 1, (1, 1),
                               "floor of a field point")
        m = b // s
        return m if m != a // s and self._side(m, 1) >= 0 else a // s

    def __repr__(self):
        return f"FieldPoint({list(self.coeffs)})"


def _surd_sign(p: int, q: int, D: int) -> int:
    """The sign of p + q sqrt(D), D >= 0: when p and q differ in sign, the
    sign of the term with the larger square."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if not sq or not D:
        return sp
    if sp != -sq:  # p is 0 or has q's sign
        return sq
    c = p * p - q * q * D
    return sp if c > 0 else sq if c < 0 else 0


def _surd_floor(u: int, t: int, v: int, D: int) -> int:
    """floor((u + t sqrt(D)) / v) for v > 0: floor((u + floor(t sqrt(D))) / v)
    when t >= 0 and floor((u - ceil(|t| sqrt(D))) / v) when t < 0.  With a
    large v, the top bits of t first bracket |t| sqrt(D) in
    (isqrt((|t| >> e)^2 D) + [0, isqrt(D) + 2]) 2^e, about 2^-32 v wide,
    which pins the floor unless the point is that close to an integer; the
    square root then has about 2 (bits(t) - e) bits instead of 2 bits(t)."""
    e = v.bit_length() - D.bit_length() // 2 - 34
    if e > 0:
        r = math.isqrt((abs(t) >> e) ** 2 * D)
        lo, hi = r << e, (r + math.isqrt(D) + 2) << e
        if t < 0:
            lo, hi = -hi, -lo
        f = (u + lo) // v
        if f == (u + hi) // v:
            return f
    m = t * t * D
    r = math.isqrt(m)
    return (u + r) // v if t >= 0 else (u - r - (r * r != m)) // v


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
    return beta.point_from_rational(r)


def floor_beta_times(beta: Beta, x) -> int:
    """Exact floor of beta*x for x in (0, 1]."""
    return math.floor(times_beta(beta, x))


def same_field(x, y) -> bool:
    """Can x and y meet in one arithmetic?  Not when they are field points
    of two bases, unless the bases differ by an integer, whose points meet
    in x's field through a Taylor shift (``FieldPoint._coerce``)."""
    if isinstance(x, FieldPoint) and isinstance(y, FieldPoint):
        return x.beta == y.beta or x.beta.shift_to(y.beta) is not None
    return True


def point_key(x) -> tuple | int:
    """A dict key for x in a search for repeated points.  A tuple is exact,
    equal points and only they having equal keys: (numerator, denominator)
    of a rational, or (num, den) of a field point of a base with
    ``field_proved``.  Otherwise an int, the 2^-80 bucket
    ``point_scaled_floor(x, 80)``, which puts equal points at most one
    bucket apart."""
    if not isinstance(x, FieldPoint):
        return x.numerator, x.denominator
    if x.beta.field_proved:
        return x.num, x.den
    return point_scaled_floor(x, 80)


def point_scaled_floor(x: FieldPoint, bits: int) -> int:
    """floor(lo * 2^bits) for the lower end lo of an enclosure of the field
    point x narrower than 2^-bits."""
    a, _, s = x._narrower(1, 1 << bits)
    return (a << bits) // s


def point_decimal_str(x, digits: int = 15) -> str:
    """x truncated toward zero to ``digits`` decimals, trailing zeros dropped
    ("-0" for -10^-digits < x < 0): the exact floor of |x| 10^digits, so the
    digits depend on the value alone, never on how far its base was refined.
    A rational x = p/q (a ``Fraction``, or a field point whose coordinates
    past the first are 0) takes |p| 10^digits // q: "0" when p is 0, and
    ``_int_str``'s SpecError before 10^digits is formed when bit lengths
    show that the floor passes Python's int-to-str limit L: as
    |p| / q > 2^(bits(p) - 1 - bits(q)), (digits - L) log2(10) >=
    bits(q) - bits(p) + 1 puts |x| 10^digits above 10^L, so its floor has
    more than L digits."""
    if isinstance(x, FieldPoint) and any(x.num[1:]):
        _check_level_cap(x, digits)
        y = x * 10**digits
        n = math.floor(y)
        negative = n < 0
        if negative:
            n = math.floor(-y)
    else:
        p, q = (x.num[0], x.den) if isinstance(x, FieldPoint) else (x.numerator, x.denominator)
        if not p:
            return "0"
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (none) before Python 3.10.7
        if limit and digits > limit and (digits - limit) * 3321928 // 10**6 >= \
                q.bit_length() - abs(p).bit_length() + 1:  # log2(10) > 3.321928
            raise _str_limit_error()
        negative = p < 0
        n = abs(p) * 10**digits // q
    s = _int_str(n).rjust(digits + 1, "0")
    ip, fp = s[:len(s) - digits], s[len(s) - digits:].rstrip("0")
    return ("-" if negative else "") + ip + ("." + fp if fp else "")


def _check_level_cap(x: FieldPoint, digits: int) -> None:
    """Raise PrecisionExhausted, before 10^digits is formed, when refinement
    to MAX_REFINE_LEVEL certainly leaves the floor of x 10^digits undecided.
    Checked only when 10^digits alone passes 2^MAX_REFINE_LEVEL, for a point
    that is not rational (the caller's condition) on a base proved
    irreducible of degree >= 2 (so no cell shrinks to beta).  A level-k
    cell is C / (D 2^k) wide and lies in the current cell, where
    |x'| >= m / (s den) when the enclosure [a/s, b/s] of den x' excludes 0;
    the enclosure of x 10^digits then spans at least
    10^digits m C / (s den D 2^k), and at width 2 it holds two integers.
    The bound is compared by bit lengths, so no huge integer is built."""
    cap = MAX_REFINE_LEVEL
    bits = digits * 3321928 // 10**6  # 10^digits >= 2^bits, as log2(10) > 3.321928
    beta = x.beta
    if bits <= cap or not beta.field_proved:
        return
    cells = beta._cells
    a, b, s = polys.int_eval_interval(polys.derivative(x.num), *cells.cell(cells.level))
    m = a if a > 0 else -b if b < 0 else 0
    if m and bits + m.bit_length() + cells.C.bit_length() - 3 >= \
            cap + cells.D.bit_length() + (s * x.den).bit_length():
        raise PrecisionExhausted(f"floor of a field point not reached by refinement level {cap} "
                                 "(the level cap MAX_REFINE_LEVEL)")


def point_json(x, digits: int) -> dict:
    """JSON form: the decimal rendering plus the exact coordinates."""
    out = {"decimal": point_decimal_str(x, digits)}
    if isinstance(x, FieldPoint):
        gs = [math.gcd(c, x.den) for c in x.num]
        out["coeffs"] = [_format_ratio(c // g, x.den // g) for c, g in zip(x.num, gs)]
    else:
        out["exact"] = format_rational(x)
    return out
