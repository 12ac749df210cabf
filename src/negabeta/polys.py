"""Exact univariate polynomial arithmetic over the integers.

A polynomial is a sequence of ``int`` coefficients, lowest degree first;
every polynomial returned is a tuple of ``int``.  Rational points enter as
``Fraction``s or as integer pairs u / v.  Point and interval evaluation run
Horner's rule on Python integers (the point or the interval endpoints over
one denominator), so a sign is exact without building a rational.
Greatest common divisors and Sturm chains run on integer remainder
sequences (pseudo-division, then division by the content; Gauss's lemma
keeps every quotient integral) with the gcds and Sturm sign counts of the
rational Euclid; one extended sequence, ``cofactor_gcd``, serves gcds and
field inverses.  A Sturm chain is one remainder sequence of (p, p'): it
ends in gcd(p, p'), so the squarefree part it is built on (its first
element) costs a second sequence only when p has a repeated factor.
Root isolation bisects at exact rational midpoints.  A quadratic is
irreducible exactly when its discriminant is not a square; a cubic is
proved irreducible by a small prime modulo which it has no root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt
from typing import Sequence

IntPoly = tuple[int, ...]


def _horner(a: Sequence[int], u: int, v: int) -> tuple[int, int]:
    """(N, v^n) with a(u/v) = N / v^n, n = len(a) - 1; requires v > 0."""
    it = reversed(a)
    acc, w = next(it), 1
    for c in it:
        w *= v
        acc = acc * u + c * w
    return acc, w


def sign_at(a: Sequence[int], u, v: int = 1) -> int:
    """Sign (-1, 0, 1) of the integer polynomial ``a`` (nonempty) at the
    rational u / v, v > 0; ``u`` is an ``int`` or a ``Fraction``."""
    n = _horner(a, u.numerator, u.denominator * v)[0]
    return (n > 0) - (n < 0)


def trimmed(a: Sequence[int]) -> IntPoly:
    """``a`` without its trailing zero coefficients."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def primitive(a: Sequence[int]) -> IntPoly:
    """``a`` over its content, trailing zeros dropped, leading coefficient
    positive; () for the zero polynomial."""
    a = trimmed(a)
    g = int_gcd(*a)
    return tuple(c // g if a[-1] > 0 else -c // g for c in a)


def taylor_shift(a: Sequence[int], s: int) -> IntPoly:
    """The polynomial q with q(x) = a(x + s), by repeated synthetic division."""
    q = list(a)
    for i in range(len(q) - 1):
        for j in range(len(q) - 2, i - 1, -1):
            q[j] += s * q[j + 1]
    return tuple(q)


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[int, IntPoly, IntPoly]:
    """(m, q, r) with m a = q b + r, deg r < deg b and m = |lc b|^(deg a - deg b + 1)
    (m = 1, q = 0, r = a when deg a < deg b): pseudo-division of integer
    polynomials, ``b`` nonzero and normalized.  With a multiplied by m
    every quotient coefficient is an exact integer division."""
    db, lead = len(b) - 1, b[-1]
    k = len(a) - 1 - db
    if k < 0:
        return 1, (), tuple(a)
    m = abs(lead) ** (k + 1)
    r = [c * m for c in a]
    q = [0] * (k + 1)
    for i in range(k, -1, -1):
        c = q[i] = r[i + db] // lead
        if c:
            for j in range(db):
                r[i + j] -= c * b[j]
    return m, tuple(q), trimmed(r[:db])


# the primes below 50: modulo each that does not divide the leading
# coefficient, a reducible cubic has a root
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def proved_irreducible(a: Sequence[int]) -> bool:
    """Is ``a`` (normalized) proved irreducible over Q?  True for degree 1;
    for degree 2 exactly when the discriminant is not a square; for degree
    3 when ``a`` has no root modulo some prime p < 50 that does not divide
    its leading coefficient: by Gauss's lemma a reducible cubic has a
    linear factor u x - v over Z with u dividing the leading coefficient,
    so v / u is a root mod every such p.  False proves nothing for degree
    >= 3: degree >= 4, or a cubic with a root modulo every such prime."""
    if len(a) == 3:
        disc = a[1] * a[1] - 4 * a[0] * a[2]
        return disc < 0 or isqrt(disc) ** 2 != disc
    return len(a) == 2 or len(a) == 4 and any(
        a[-1] % p and all(_horner(a, x, 1)[0] % p for x in range(p)) for p in _SMALL_PRIMES)


def exact_quotient(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """a / b for integer polynomials where b divides a and is primitive, so
    the quotient has integer coefficients (Gauss's lemma)."""
    m, q, _ = pseudo_divmod(a, b)
    return tuple(c // m for c in q)


def cofactor_gcd(c: Sequence[int], f: Sequence[int]) -> tuple[IntPoly, IntPoly]:
    """(g, u): integer polynomials with u c = g (mod f), g a nonzero multiple
    of gcd(c, f) and deg u < deg f - deg g; c and f nonzero, normalized.
    An extended primitive remainder sequence: each step divides remainder
    and cofactor by their common content."""
    r0, r1, u0, u1 = f, c, [], [1]
    while True:
        m, q, r = pseudo_divmod(r0, r1)
        if not r:
            return tuple(r1), tuple(u1)
        u = [m * x for x in u0] + [0] * (len(q) + len(u1) - 1 - len(u0))
        for i, a in enumerate(q):
            for j, b in enumerate(u1):
                u[i + j] -= a * b
        u = trimmed(u)
        h = int_gcd(*r, *u)
        r0, r1, u0, u1 = r1, [x // h for x in r], u1, [x // h for x in u]


def derivative(p: Sequence[int]) -> IntPoly:
    return tuple(i * p[i] for i in range(1, len(p)))


def sturm_chain(p: Sequence[int]) -> list[IntPoly]:
    """Sturm chain of the squarefree part of ``p`` (first element with
    positive leading coefficient) as a primitive remainder sequence: each
    negated pseudo-remainder (positive multiplier |lc|^(delta+1)) over its
    positive content, a positive multiple of the rational chain's element.

    The chain of primitive(p) is a remainder sequence of (p, p'), so its
    last element is a multiple of gcd(p, p'); only when that is not a
    constant, i.e. p is not squarefree, is the chain rebuilt on p / gcd."""
    chain = [primitive(p)]
    g = primitive(derivative(chain[0]))  # a positive multiple: lc > 0
    while g:
        chain.append(g)
        r = pseudo_divmod(chain[-2], g)[2]
        h = int_gcd(*r)
        g = tuple(-c // h for c in r)
    if len(chain[-1]) > 1:
        return sturm_chain(exact_quotient(chain[0], primitive(chain[-1])))
    return chain


def _variations(chain: list[IntPoly], x) -> int:
    """Sign changes of the chain at x, each element evaluated once;
    ValueError when x is a root of the first."""
    signs = [sign_at(g, x) for g in chain]
    if not signs[0]:
        raise ValueError("Sturm count requires nonzero endpoint values")
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: Sequence[int], lo, hi, chain: list[IntPoly] | None = None) -> int:
    """Distinct real roots of ``p`` in the open interval (lo, hi), rationals.

    Requires p(lo) != 0 and p(hi) != 0; ValueError otherwise.
    """
    if lo >= hi:
        return 0
    if chain is None:
        chain = sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def isolates(chain: list[IntPoly], lo, hi) -> bool:
    """Is (lo, hi) an isolating interval of the root set of ``chain[0]``:
    neither endpoint a root, and exactly one root inside?"""
    try:
        return count_roots(chain[0], lo, hi, chain) == 1
    except ValueError:
        return False


def root_upper_bound(p: Sequence[int]) -> Fraction:
    """Cauchy bound: every real root has absolute value below this."""
    return 1 + Fraction(max(abs(c) for c in p)) / abs(p[-1])


def isolate_roots(p: Sequence[int], lo, hi,
                  chain: list[IntPoly] | None = None) -> list[tuple[Fraction, Fraction]]:
    """Isolating open intervals, one per distinct root of ``p`` in (lo, hi).

    A rational root r is reported as a degenerate pair (r, r).  Endpoint
    roots are excluded; callers pick lo/hi off the root set.  ``chain``,
    when given, is ``sturm_chain(p)``.
    """
    if chain is None:
        chain = sturm_chain(p)
    f = chain[0]

    def split(a: Fraction, b: Fraction, n: int, out: list) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        if sign_at(f, mid) == 0:
            # shrink around the exact root until the remainder separates
            eps = (b - a) / 4
            while not isolates(chain, mid - eps, mid + eps):
                eps /= 2
            l, r = mid - eps, mid + eps
            split(a, l, count_roots(f, a, l, chain), out)
            out.append((mid, mid))
            split(r, b, count_roots(f, r, b, chain), out)
            return
        nl = count_roots(f, a, mid, chain)
        split(a, mid, nl, out)
        split(mid, b, n - nl, out)

    lo, hi = Fraction(lo), Fraction(hi)
    if sign_at(f, lo) == 0 or sign_at(f, hi) == 0:
        raise ValueError("endpoints must not be roots")
    out: list[tuple[Fraction, Fraction]] = []
    split(lo, hi, count_roots(f, lo, hi, chain), out)
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
