"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are stored lowest degree first, as tuples of ``Fraction`` or of
``int``.  Everything here is exact; these routines back the sign tests,
zero tests and root isolation used by the rest of the package.  Point and
interval evaluation run Horner's rule on Python integers (coefficients over
one common denominator, the point or the interval endpoints over another)
and build at most one ``Fraction`` at the end, so they return exactly the
rationals a ``Fraction`` Horner would (``sign_at`` and ``int_eval_interval``
take the integers).  Greatest common divisors, squarefree parts, field
inverses and Sturm chains run on primitive integer remainder sequences
(pseudo-division, then division by the content; Gauss's lemma keeps every
quotient integral) and return primitive integer polynomials with the
gcds and Sturm sign counts of the rational Euclid.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from typing import Sequence

Poly = tuple[Fraction, ...]

ZERO = Fraction(0)


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


# ---------------------------------------------------------------------------
# primitive remainder sequences over the integers

IntPoly = tuple[int, ...]


def trimmed(a: Sequence[int]) -> IntPoly:
    """``a`` without its trailing zero coefficients."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def _primitive(a: Sequence[int]) -> IntPoly:
    """``a`` over its content, trailing zeros dropped, leading coefficient
    positive; () for the zero polynomial."""
    a = trimmed(a)
    g = int_gcd(*a)
    return tuple(c // g if a[-1] > 0 else -c // g for c in a)


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, list[int], IntPoly]:
    """(m, q, r) with m a = q b + r, deg r < deg b and m = |lc b|^(deg a - deg b + 1)
    (m = 1, q = 0, r = a when deg a < deg b): pseudo-division of integer
    polynomials, ``b`` nonzero and normalized.  With a multiplied by m
    every quotient coefficient is an exact integer division."""
    db, lead = len(b) - 1, b[-1]
    k = len(a) - 1 - db
    if k < 0:
        return 1, [], tuple(a)
    m = abs(lead) ** (k + 1)
    r = [c * m for c in a]
    q = [0] * (k + 1)
    for i in range(k, -1, -1):
        c = q[i] = r[i + db] // lead
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    return m, q, trimmed(r[:db])


def exact_quotient(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """a / b for integer polynomials where b divides a and is primitive, so
    the quotient has integer coefficients (Gauss's lemma)."""
    m, q, _ = pseudo_divmod(a, b)
    return tuple(c // m for c in q)


def primitive_int_coeffs(p: Poly) -> IntPoly:
    """Clear denominators and content; leading coefficient positive."""
    return _primitive(cleared(p)[0])


def poly_gcd(p: Poly, q: Poly) -> IntPoly:
    """Greatest common divisor as a primitive integer polynomial with
    positive leading coefficient, by a primitive remainder sequence."""
    a, b = primitive_int_coeffs(p), primitive_int_coeffs(q)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(pseudo_divmod(a, b)[2])
    return a


def cofactor_gcd(c: Sequence[int], f: Sequence[int]) -> tuple[IntPoly, list[int]]:
    """(g, u): integer polynomials with u c = g (mod f), g a nonzero multiple
    of gcd(c, f) and deg u < deg f - deg g; c and f nonzero, normalized.
    An extended primitive remainder sequence: each step divides remainder
    and cofactor by their common content."""
    r0, r1, u0, u1 = f, c, [], [1]
    while True:
        m, q, r = pseudo_divmod(r0, r1)
        if not r:
            return r1, u1
        u = [m * x for x in u0] + [0] * (len(q) + len(u1) - 1 - len(u0))
        for i, a in enumerate(q):
            for j, b in enumerate(u1):
                u[i + j] -= a * b
        u = trimmed(u)
        h = int_gcd(*r, *u)
        r0, r1, u0, u1 = r1, [x // h for x in r], u1, [x // h for x in u]


def derivative(p: Sequence[int]) -> list[int]:
    return [i * p[i] for i in range(1, len(p))]


def squarefree_part(p: Poly) -> IntPoly:
    """p / gcd(p, p'), primitive, with positive leading coefficient."""
    a = primitive_int_coeffs(p)
    if len(a) <= 1:
        return a
    g = poly_gcd(a, derivative(a))
    return a if len(g) == 1 else exact_quotient(a, g)


def sturm_chain(p: Poly) -> list[IntPoly]:
    """Sturm chain of the squarefree part of ``p`` (first element with
    positive leading coefficient) as a primitive remainder sequence: each
    negated pseudo-remainder (positive multiplier |lc|^(delta+1)) over its
    positive content, a positive multiple of the rational chain's element."""
    f = squarefree_part(p)
    chain = [f]
    g = _primitive(derivative(f))  # a positive multiple: lc f > 0
    while g:
        chain.append(g)
        r = pseudo_divmod(chain[-2], g)[2]
        h = int_gcd(*r)
        g = tuple(-c // h for c in r)
    return chain


def _variations(chain: list[IntPoly], u: int, v: int) -> int:
    signs = [s for s in (sign_at(g, u, v) for g in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Poly, lo: Fraction, hi: Fraction, chain: list[IntPoly] | None = None) -> int:
    """Distinct real roots of ``p`` in the open interval (lo, hi).

    Requires p(lo) != 0 and p(hi) != 0.
    """
    if lo >= hi:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    u, v, s, t = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    if sign_at(chain[0], u, v) == 0 or sign_at(chain[0], s, t) == 0:
        raise ValueError("Sturm count requires nonzero endpoint values")
    return _variations(chain, u, v) - _variations(chain, s, t)


def root_upper_bound(p: Poly) -> Fraction:
    """Cauchy bound: every real root has absolute value below this."""
    return 1 + Fraction(max(abs(c) for c in p)) / abs(p[-1])


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


def int_eval_interval(a: Sequence[int], lo: int, hi: int, w: int) -> tuple[int, int, int]:
    """Interval Horner of the integer polynomial ``a`` (lowest degree first)
    on [lo/w, hi/w], lo <= hi, w > 0: integers (A, B, s), s > 0, with
    [A/s, B/s] the enclosure that four-product interval multiplication and
    endpoint sums give."""
    acc_lo = acc_hi = a[-1] if a else 0
    s = 1
    for c in reversed(a[:-1]):
        s *= w
        if lo >= 0:  # the least and largest of the four products, by sign
            acc_lo, acc_hi = (acc_lo * (lo if acc_lo >= 0 else hi),
                              acc_hi * (hi if acc_hi >= 0 else lo))
        else:
            prods = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
            acc_lo, acc_hi = min(prods), max(prods)
        acc_lo, acc_hi = acc_lo + c * s, acc_hi + c * s
    return acc_lo, acc_hi, s

