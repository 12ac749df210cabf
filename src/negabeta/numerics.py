"""Exact representation of bases beta > 1 and of points in their number field.

A base is either *exact* (an integer polynomial together with a rational
isolating interval containing exactly one of its real roots) or *decimal*
(an exact rational value carrying a working precision in bits).  All sign,
floor and comparison decisions on exact bases are certified by interval
refinement plus polynomial gcd zero tests.  The kernels behind them run on
Python integers: refinement bisects with the primitive integer
coefficients of the squarefree part, and enclosures come from the integer
interval Horner of ``polys``, so every isolating interval and enclosure is
the same rational a ``Fraction`` computation gives.  A decimal base is the exact
rational it names; its precision only sets a tie guard, which refuses a
floor decision within 2^-precision of an integer.

Only this module tells the two point types apart (``FieldPoint`` for
exact bases, ``Fraction`` for decimal ones); other modules go through the
point functions at the end of the file.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PrecisionExhausted, SpecError
from . import polys
from .polys import Poly

DEFAULT_DECIMAL_PRECISION = 256

_ORDER_LT, _ORDER_EQ, _ORDER_GT = -1, 0, 1
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


def format_rational(r: Fraction) -> str:
    """Serialize as num/den, or as the float repr when that is exactly r."""
    num, den = r.numerator, r.denominator
    if den == 1:
        return str(num)
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
    return f"{num}/{den}"


def _raise_endpoint(coeffs_high, q: int) -> Fraction:
    """A rational lower endpoint strictly above max(1, q) but below the root.

    The families passed here are negative at q and have their single root
    above it, so halving the offset eventually lands below the root.
    """
    p = polys.make_poly(tuple(reversed(coeffs_high)))
    if q >= 2:
        return Fraction(q)
    step = Fraction(1, 2)
    while True:
        lo = q + step
        v = polys.poly_eval(p, lo)
        if v < 0:
            return lo
        if v == 0:
            raise SpecError("rational root hit while isolating; give poly: directly")
        step /= 2
        if step < Fraction(1, 2**64):
            raise SpecError("no root above the expected endpoint")


@dataclass(frozen=True, eq=False)
class Beta:
    """A base beta > 1, exact (polynomial + isolating interval) or decimal."""

    kind: str
    coeffs: tuple[int, ...] | None = None          # highest degree first
    iso: tuple[Fraction, Fraction] | None = None
    value: Fraction | None = None
    precision: int | None = None
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
        if polys.poly_eval(sf, lo) == 0 or polys.poly_eval(sf, hi) == 0:
            raise SpecError("isolating interval endpoints must not be roots")
        if polys.count_roots(sf, lo, hi, beta.sturm) != 1:
            raise SpecError("isolating interval must contain exactly one real root")
        return beta

    @classmethod
    def from_decimal(cls, value, precision: int | None = None) -> "Beta":
        value = Fraction(value)
        if value <= 1:
            raise SpecError("base must exceed 1")
        if precision is None:
            env = os.environ.get("NEGABETA_PRECISION", str(DEFAULT_DECIMAL_PRECISION))
            try:
                precision = int(env)
            except ValueError as exc:
                raise SpecError(f"NEGABETA_PRECISION must be an integer, got {env!r}") from exc
        if precision < 8:
            raise SpecError("precision must be at least 8 bits")
        return cls(kind="decimal", value=value, precision=precision)

    @classmethod
    def pisot2(cls, p: int, q: int) -> "Beta":
        """Root in (q, q+1) of x^2 - q x - p, requiring 1 <= p <= q."""
        p, q = int(p), int(q)
        if p < 1 or q < 1:
            raise SpecError("pisot2 needs p >= 1 and q >= 1")
        if p > q:
            raise SpecError("pisot2 requires p <= q")
        lo = _raise_endpoint((1, -q, -p), q)
        return cls.from_poly((1, -q, -p), lo, Fraction(q + 1))

    @classmethod
    def multinacci(cls, q: int, m: int) -> "Beta":
        """Root in (q, q+1) of x^m - q x^(m-1) - ... - q."""
        q, m = int(q), int(m)
        if q < 1 or m < 2:
            raise SpecError("multinacci needs q >= 1 and m >= 2")
        coeffs = (1,) + (-q,) * m
        lo = _raise_endpoint(coeffs, q)
        return cls.from_poly(coeffs, lo, Fraction(q + 1))

    # -- internals ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def poly(self) -> Poly:
        if "poly" not in self._cache:
            self._cache["poly"] = polys.make_poly(tuple(reversed(self.coeffs)))
        return self._cache["poly"]

    @property
    def sturm(self) -> list[Poly]:
        """Sturm chain of the squarefree part of the defining polynomial."""
        if "sturm" not in self._cache:
            self._cache["sturm"] = polys.sturm_chain(self.poly)
        return self._cache["sturm"]

    @property
    def sf_poly(self) -> Poly:
        return self.sturm[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.is_exact else 1

    def interval(self) -> tuple[Fraction, Fraction]:
        """Current refined isolating interval (a point for rational bases)."""
        if not self.is_exact:
            return (self.value, self.value)
        st = self._cache.get("iv")
        if st is None:
            # [lo, hi, exact root or None, integer squarefree part, its sign
            # at lo]; bisection keeps that sign at lo, so each step
            # evaluates at the midpoint only
            lo, hi = self.iso
            ints = polys.primitive_int_coeffs(self.sf_poly)
            st = [lo, hi, None, ints, polys.sign_at(ints, lo)]
            self._cache["iv"] = st
        return (st[0], st[1]) if st[2] is None else (st[2], st[2])

    def _refine_step(self) -> None:
        st = self._cache["iv"]
        if st[2] is not None:
            return
        lo, hi, _, ints, sign_lo = st
        mid = (lo + hi) / 2
        v = polys.sign_at(ints, mid)
        if v == 0:
            st[2] = mid
        elif v == sign_lo:
            st[0] = mid
        else:
            st[1] = mid

    def refine(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Shrink the isolating interval until it is narrower than ``width``."""
        if not self.is_exact:
            return (self.value, self.value)
        lo, hi = self.interval()
        while hi - lo >= width:
            self._refine_step()
            lo, hi = self.interval()
        return lo, hi

    def floor_value(self) -> int:
        """Exact floor of beta."""
        if "floor" in self._cache:
            return self._cache["floor"]
        if not self.is_exact:
            f = self.value.numerator // self.value.denominator
            self._cache["floor"] = f
            return f
        lo, hi = self.interval()
        while True:
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo == fhi:
                self._cache["floor"] = flo
                return flo
            # some integer k sits inside; either beta == k or we can exclude it
            k = Fraction(flo + 1)
            if polys.poly_eval(self.sf_poly, k) == 0 and lo < k < hi:
                self._cache["iv"][2] = k
                self._cache["floor"] = flo + 1
                return flo + 1
            self._refine_step()
            lo, hi = self.interval()

    @property
    def alphabet_max(self) -> int:
        return self.floor_value() + 1

    def decimal_str(self, digits: int = 15) -> str:
        width = Fraction(1, 10 ** (digits + 2))
        lo, hi = self.refine(width)
        mid = (lo + hi) / 2
        scaled = mid * 10**digits
        n = scaled.numerator // scaled.denominator
        s = str(n)
        ip, fp = s[:-digits] or "0", s[-digits:].rstrip("0")
        return ip + ("." + fp if fp else "")

    def spec_string(self) -> str:
        if self.is_exact:
            lo, hi = self.iso
            body = ",".join(str(c) for c in self.coeffs)
            return f"poly:[{body}]@({format_rational(lo)},{format_rational(hi)})"
        return f"dec:{format_rational(self.value)}"

    def plus_one(self) -> "Beta":
        """The base beta + 1, exact when this base is exact."""
        if not self.is_exact:
            return Beta.from_decimal(self.value + 1, self.precision)
        shifted = polys.shift_poly(self.poly, Fraction(-1))
        ints = polys.primitive_int_coeffs(shifted)
        lo, hi = self.iso
        return Beta.from_poly(tuple(reversed(ints)), lo + 1, hi + 1)

    # -- field points ------------------------------------------------------

    def one(self):
        return self.point_from_rational(Fraction(1))

    def point_from_rational(self, r):
        r = Fraction(r)
        if not self.is_exact:
            return r
        vec = (r,) + (Fraction(0),) * (self.degree - 1)
        return FieldPoint(self, vec)

    def beta_point(self):
        """beta itself in the base's point type."""
        if not self.is_exact:
            return self.value
        if self.degree == 1:
            # linear defining polynomial: the root is rational
            a1, a0 = self.poly[1], self.poly[0]
            return FieldPoint(self, (-a0 / a1,))
        vec = (Fraction(0), Fraction(1)) + (Fraction(0),) * (self.degree - 2)
        return FieldPoint(self, vec)

    def __eq__(self, other):
        if not isinstance(other, Beta):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.is_exact:
            return self.coeffs == other.coeffs and self.iso == other.iso
        return self.value == other.value and self.precision == other.precision

    def __hash__(self):
        if self.is_exact:
            return hash(("exact", self.coeffs, self.iso))
        return hash(("decimal", self.value, self.precision))


class FieldPoint:
    """An element of Q[x]/(f) evaluated at the isolated root of ``f``.

    The defining polynomial need not be minimal; equality and sign are
    decided through gcd zero tests and interval refinement, which stay
    correct in the non-minimal case.
    """

    __slots__ = ("beta", "coeffs")

    def __init__(self, beta: Beta, coeffs):
        self.beta = beta
        vec = polys.make_poly(coeffs)
        d = beta.degree
        if len(vec) > d:
            vec = polys.poly_mod(vec, beta.poly)
        self.coeffs = vec + (polys.ZERO,) * (d - len(vec))

    # arithmetic -----------------------------------------------------------

    def _wrap(self, vec):
        return FieldPoint(self.beta, vec)

    def __add__(self, other):
        o = self._coerce(other)
        return self._wrap(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._wrap(tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        return self._wrap(polys.poly_mul(polys.make_poly(self.coeffs), polys.make_poly(o.coeffs)))

    __rmul__ = __mul__

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
        subtract (top / lead) * f, the unique reduced representative."""
        f = self.beta.poly
        top = self.coeffs[-1]
        shifted = (polys.ZERO,) + self.coeffs[:-1]
        if top:
            t = top / f[-1]
            shifted = tuple(c - t * fc for c, fc in zip(shifted, f))
        return self._wrap(shifted)

    def inverse(self) -> "FieldPoint":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero():
            raise ZeroDivisionError("field point is zero")
        c = polys.make_poly(self.coeffs)
        f = self.beta.poly
        g, u = polys.half_ext_gcd(c, f)
        while polys.degree(g) > 0:
            # non-minimal modulus: g divides c and c(beta) != 0, so beta is
            # a root of the cofactor f / g, where c is invertible
            f = polys.poly_divmod(f, g)[0]
            g, u = polys.half_ext_gcd(c, f)
        return self._wrap(polys.poly_scale(u, 1 / g[0]))

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
        if all(c == 0 for c in self.coeffs):
            return True
        if all(c == 0 for c in self.coeffs[1:]):
            return False
        g = polys.poly_gcd(polys.make_poly(self.coeffs), self.beta.poly)
        if polys.degree(g) == 0:
            return False
        chain = polys.sturm_chain(g)
        g = chain[0]
        lo, hi = self.beta.interval()
        if lo == hi:
            return polys.poly_eval(g, lo) == 0
        while polys.poly_eval(g, lo) == 0 or polys.poly_eval(g, hi) == 0:
            self.beta._refine_step()
            lo, hi = self.beta.interval()
            if lo == hi:
                return polys.poly_eval(g, lo) == 0
        return polys.count_roots(g, lo, hi, chain) > 0

    def sign(self) -> int:
        """-1, 0 or 1; the gcd zero test runs only once an enclosure
        contains 0, and refinement resumes after it."""
        p = polys.make_poly(self.coeffs)
        zero_tested = False
        for _ in range(100_000):
            a, b = polys.poly_eval_interval(p, self.beta.interval())
            if a > 0:
                return 1
            if b < 0:
                return -1
            if zero_tested:
                self.beta._refine_step()
            elif self.is_zero():
                return 0
            else:
                zero_tested = True
        raise RuntimeError("sign refinement did not converge")

    def interval(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """A rational enclosure of this value narrower than ``width``."""
        p = polys.make_poly(self.coeffs)
        for _ in range(100_000):
            a, b = polys.poly_eval_interval(p, self.beta.interval())
            if b - a < width:
                return (a, b)
            self.beta._refine_step()
        raise RuntimeError("interval refinement did not converge")

    def compare(self, other) -> int:
        """-1, 0, or 1 against another point or a rational."""
        return (self - other).sign()

    def __eq__(self, other):
        if isinstance(other, (FieldPoint, int, Fraction)):
            return (self - other).is_zero()
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

    def decimal_str(self, digits: int = 15) -> str:
        lo, hi = self.interval(Fraction(1, 10 ** (digits + 2)))
        return point_decimal_str((lo + hi) / 2, digits)

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


def make_beta(spec: str, precision: int | None = None) -> Beta:
    """Parse a base specification string.

    Grammar: ``dec:<decimal>``, ``poly:[c_k,...,c_0]@(lo,hi)``,
    ``pisot2:p=<p>,q=<q>``, ``multinacci:q=<q>,m=<m>``.
    """
    spec = spec.strip()
    if spec.startswith("dec:"):
        return Beta.from_decimal(_parse_rational(spec[4:]), precision)
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
    return beta.value * Fraction(x)


def as_point(beta: Beta, r):
    """Embed a rational into the base's point type."""
    if isinstance(r, FieldPoint):
        return r
    return beta.point_from_rational(Fraction(r))


def guard_tie(beta: Beta, x, y, reason: str) -> None:
    """Refuse to order x against y when the base's precision cannot.

    On a decimal base two distinct points closer than 2^-precision raise
    PrecisionExhausted; exact bases decide every comparison.
    """
    if beta.is_exact:
        return
    d = x - y
    if d and abs(d.numerator) << beta.precision < d.denominator:
        raise PrecisionExhausted(reason)


def floor_point(beta: Beta, y) -> int:
    """Certified floor of a point.

    For decimal bases the decision is refused (PrecisionExhausted) whenever
    y lies within 2^-precision of an integer without equaling it.
    """
    if not beta.is_exact:
        k = y.numerator // y.denominator
        reason = "beta*x is closer to an integer than the precision allows"
        guard_tie(beta, y, k, reason)
        guard_tie(beta, y, k + 1, reason)
        return k
    y = as_point(beta, y)
    p = polys.make_poly(y.coeffs)
    while True:
        a, b = polys.poly_eval_interval(p, beta.interval())
        fa = a.numerator // a.denominator
        fb = b.numerator // b.denominator
        if fa == fb:
            return fa
        if fb == fa + 1:
            s = (y - Fraction(fb)).sign()
            return fb if s >= 0 else fa
        beta._refine_step()


def floor_beta_times(beta: Beta, x) -> int:
    """Exact floor of beta*x for x in (0, 1], guarded as in ``floor_point``."""
    return floor_point(beta, times_beta(beta, x))


def compare_to_rational(x, r) -> int:
    """Exact trichotomy (-1, 0, 1) of a point against a rational."""
    return point_compare(x, Fraction(r))


def point_compare(x, y) -> int:
    """Exact trichotomy (-1, 0, 1) of two points of one base, or rationals."""
    if isinstance(x, FieldPoint):
        return x.compare(y)
    if isinstance(y, FieldPoint):
        return -y.compare(x)
    return (x > y) - (x < y)


def same_field(x, y) -> bool:
    """Can x and y meet in one arithmetic (not field points of two bases)?"""
    if isinstance(x, FieldPoint) and isinstance(y, FieldPoint):
        return x.beta == y.beta
    return True


def point_sign(x) -> int:
    if isinstance(x, FieldPoint):
        return x.sign()
    x = Fraction(x)
    return (x > 0) - (x < 0)


def point_inverse(x):
    if isinstance(x, FieldPoint):
        return x.inverse()
    return 1 / Fraction(x)


def point_interval(x, width: Fraction) -> tuple[Fraction, Fraction]:
    """A rational enclosure of x narrower than ``width`` (a point if rational)."""
    if isinstance(x, FieldPoint):
        return x.interval(width)
    x = Fraction(x)
    return (x, x)


def point_decimal_str(x, digits: int = 15) -> str:
    if isinstance(x, FieldPoint):
        return x.decimal_str(digits)
    x = Fraction(x)
    neg = x < 0
    x = abs(x)
    scaled = x * 10**digits
    n = scaled.numerator // scaled.denominator
    s = str(n).rjust(digits + 1, "0")
    ip, fp = s[:-digits], s[-digits:].rstrip("0")
    return ("-" if neg else "") + ip + ("." + fp if fp else "")


def point_json(x, digits: int) -> dict:
    """JSON form: the decimal rendering plus the exact coordinates."""
    out = {"decimal": point_decimal_str(x, digits)}
    if isinstance(x, FieldPoint):
        out["coeffs"] = [format_rational(c) for c in x.coeffs]
    else:
        out["exact"] = format_rational(Fraction(x))
    return out
