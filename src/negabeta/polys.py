"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are stored lowest degree first as tuples of ``Fraction``.
Everything here is exact; these routines back the sign tests, zero tests
and root isolation used by the rest of the package.  Point and interval
evaluation run Horner's rule on Python integers (coefficients over one
common denominator, the point or the interval endpoints over another) and
build one ``Fraction`` at the end, so they return exactly the rationals a
``Fraction`` Horner would (``sign_at`` and ``int_eval_interval`` take the integers).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Sequence

Poly = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def make_poly(coeffs: Sequence) -> Poly:
    """Build a normalized polynomial (no trailing zero coefficients)."""
    p = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def cleared(p: Poly) -> tuple[list[int], int]:
    """Integers a_i and one denominator d > 0 with p_i = a_i / d."""
    d = 1
    for c in p:
        if d % c.denominator:
            d = d * c.denominator // int_gcd(d, c.denominator)
    return [c.numerator * (d // c.denominator) for c in p], d


def _horner(a: Sequence[int], u: int, v: int) -> tuple[int, int]:
    """(N, v^n) with a(u/v) = N / v^n, n = len(a) - 1; requires v > 0."""
    it = reversed(a)
    acc, w = next(it), 1
    for c in it:
        w *= v
        acc = acc * u + c * w
    return acc, w


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    if not p:
        return ZERO
    a, d = cleared(p)
    n, w = _horner(a, x.numerator, x.denominator)
    return Fraction(n, d * w)


def sign_at(a: Sequence[int], u: int, v: int) -> int:
    """Sign (-1, 0, 1) of the integer polynomial ``a`` (lowest degree
    first, nonempty) at the rational u / v, v > 0."""
    n = _horner(a, u, v)[0]
    return (n > 0) - (n < 0)


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return make_poly(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def poly_neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, poly_neg(q))


def poly_scale(p: Poly, s: Fraction) -> Poly:
    if s == 0:
        return ()
    return tuple(c * s for c in p)


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return make_poly(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of ``p`` by ``q`` over the rationals."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [ZERO] * max(len(p) - len(q) + 1, 0)
    dq = degree(q)
    lead = q[-1]
    while len(rem) - 1 >= dq and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        k = len(rem) - 1 - dq
        f = rem[-1] / lead
        quo[k] = f
        for i in range(len(q)):
            rem[k + i] -= f * q[i]
        rem.pop()
    return make_poly(quo), make_poly(rem)


def poly_mod(p: Poly, q: Poly) -> Poly:
    return poly_divmod(p, q)[1]


def monic(p: Poly) -> Poly:
    if not p:
        return p
    return poly_scale(p, 1 / p[-1])


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = p, q
    while b:
        a, b = b, poly_mod(a, b)
    return monic(a)


def half_ext_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Return (g, u) with g = gcd(p, q) monic and u*p = g (mod q)."""
    r0, r1 = p, q
    u0, u1 = (ONE,), ()
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_sub(u0, poly_mul(quo, u1))
    if r0:
        lead = r0[-1]
        r0 = poly_scale(r0, 1 / lead)
        u0 = poly_scale(u0, 1 / lead)
    return r0, u0


def derivative(p: Poly) -> Poly:
    return make_poly([i * p[i] for i in range(1, len(p))])


def squarefree_part(p: Poly) -> Poly:
    if degree(p) <= 0:
        return monic(p)
    g = poly_gcd(p, derivative(p))
    if degree(g) == 0:
        return monic(p)
    return monic(poly_divmod(p, g)[0])


def sturm_chain(p: Poly) -> list[Poly]:
    """Sturm chain of the squarefree part of ``p``."""
    f = squarefree_part(p)
    chain = [f, derivative(f)]
    while chain[-1]:
        chain.append(poly_neg(poly_mod(chain[-2], chain[-1])))
    chain.pop()
    return chain


def _variations(values: list[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction, chain: list[Poly] | None = None) -> int:
    """Distinct real roots of ``p`` in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    if lo >= hi:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    f = chain[0]
    if poly_eval(f, lo) == 0 or poly_eval(f, hi) == 0:
        raise ValueError("Sturm count requires nonzero endpoint values")
    va = _variations([poly_eval(g, lo) for g in chain])
    vb = _variations([poly_eval(g, hi) for g in chain])
    return va - vb


def root_upper_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root has absolute value below this."""
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


def isolate_roots(p: Poly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """Isolating open intervals, one per distinct root of ``p`` in (lo, hi).

    A rational root r is reported as a degenerate pair (r, r).  Endpoint
    roots are excluded; callers pick lo/hi off the root set.
    """
    chain = sturm_chain(p)
    f = chain[0]

    def split(a: Fraction, b: Fraction, n: int, out: list) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if poly_eval(f, mid) == 0:
            out_mid = mid
            # shrink around the exact root until the remainder separates
            eps = (b - a) / 4
            while True:
                l, r = out_mid - eps, out_mid + eps
                if poly_eval(f, l) != 0 and poly_eval(f, r) != 0 and \
                        count_roots(f, l, r, chain) == 1:
                    break
                eps /= 2
            out_pieces = []
            nl = count_roots(f, a, l, chain) if poly_eval(f, a) != 0 else 0
            split(a, l, nl, out_pieces)
            out.extend(out_pieces)
            out.append((out_mid, out_mid))
            out_pieces = []
            nr = count_roots(f, r, b, chain)
            split(r, b, nr, out_pieces)
            out.extend(out_pieces)
            return
        nl = count_roots(f, a, mid, chain)
        split(a, mid, nl, out)
        split(mid, b, n - nl, out)

    lo = Fraction(lo)
    hi = Fraction(hi)
    if poly_eval(f, lo) == 0 or poly_eval(f, hi) == 0:
        raise ValueError("endpoints must not be roots")
    total = count_roots(f, lo, hi, chain)
    out: list[tuple[Fraction, Fraction]] = []
    split(lo, hi, total, out)
    return out


def shift_poly(p: Poly, s: Fraction) -> Poly:
    """Compose: return the polynomial q with q(x) = p(x + s)."""
    out: Poly = ()
    # Horner on the shifted variable
    for c in reversed(p):
        out = poly_add(poly_mul(out, make_poly([s, 1])), make_poly([c]))
    return out


def primitive_int_coeffs(p: Poly) -> tuple[int, ...]:
    """Clear denominators and content; leading coefficient positive.

    Returned lowest degree first, matching the internal convention.
    """
    if not p:
        return ()
    den = 1
    for c in p:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = int_gcd(g, abs(v))
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


# ---------------------------------------------------------------------------
# interval arithmetic over rational endpoints

Interval = tuple[Fraction, Fraction]


def iv_mul(a: Interval, b: Interval) -> Interval:
    prods = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(prods), max(prods))


def int_eval_interval(a: Sequence[int], lo: int, hi: int, w: int) -> tuple[int, int, int]:
    """Interval Horner of the integer polynomial ``a`` (lowest degree first)
    on [lo/w, hi/w], lo <= hi, w > 0: integers (A, B, s), s > 0, with
    [A/s, B/s] the enclosure that iv_mul and endpoint sums give."""
    acc_lo = acc_hi = a[-1] if a else 0
    s = 1
    for c in reversed(a[:-1]):
        s *= w
        if lo >= 0:  # the least and largest of the four products, by sign
            acc_lo, acc_hi = (acc_lo * (lo if acc_lo >= 0 else hi),
                              acc_hi * (hi if acc_hi >= 0 else lo))
        else:
            acc_lo, acc_hi = iv_mul((acc_lo, acc_hi), (lo, hi))
        acc_lo, acc_hi = acc_lo + c * s, acc_hi + c * s
    return acc_lo, acc_hi, s


def poly_eval_interval(p: Poly, x: Interval) -> Interval:
    """Interval Horner: the rationals that iv_mul and endpoint sums on
    ``Fraction``s give, computed by ``int_eval_interval``."""
    a, d = cleared(p)
    lo, hi = x
    w = lo.denominator * hi.denominator // int_gcd(lo.denominator, hi.denominator)
    n_lo, n_hi, s = int_eval_interval(a, lo.numerator * (w // lo.denominator),
                                      hi.numerator * (w // hi.denominator), w)
    return (Fraction(n_lo, d * s), Fraction(n_hi, d * s))
