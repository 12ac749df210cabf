"""Inverse problems: recover a base from its expansion of 1 and use
periodic approximants to exhibit nearby simple bases.

The value equation of an eventually periodic sequence clears to an
integer polynomial in the base; its roots above 1 are isolated by Sturm
counts, and the wanted one is the root whose exact re-expansion of 1 is
the sequence (the expansion of 1 determines the base, so at most one is).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (
    CanonicalizationCycle,
    PrefixTooShort,
    SolveError,
    SpecError,
)
from .expansion import _orbit, expand, pi_of_one
from .numerics import Beta
from .order import (DEFAULT_BUDGET, DigitWord, EvPeriodic, is_self_admissible,
                    is_valid_expansion_of_one)
from . import polys


def value_equation_poly(target: EvPeriodic) -> polys.IntPoly:
    """Primitive integer polynomial in beta whose roots satisfy
    evaluate(target) = 1.

    Writing s = -beta, the cleared equation is
    Q_pre(s) (s^p - 1) + Q_per(s) = s^a (s^p - 1) with
    Q_w(s) = sum of -w_i s^(|w|-i); the substitution s -> -beta flips
    the sign of odd-degree coefficients.
    """
    a, p = len(target.preperiod), len(target.period)
    g = [0] * (a + p + 1)

    def add(k: int, c: int) -> None:  # c s^k = c (-beta)^k
        g[k] += -c if k % 2 else c

    for i, w in enumerate(reversed(target.preperiod)):  # Q_pre(s) (s^p - 1)
        add(i + p, -w)
        add(i, w)
    for i, w in enumerate(reversed(target.period)):  # Q_per(s)
        add(i, -w)
    add(a + p, -1)  # - s^a (s^p - 1)
    add(a, 1)
    return polys.primitive(g)


def _roots_above_one(g: polys.IntPoly) -> tuple[polys.IntPoly, list[polys.IntPoly],
                                                 list[tuple[Fraction, Fraction]]]:
    """Strip factors at 0 and 1, then isolate the roots in (1, infinity).

    Returns the stripped polynomial (used as the defining polynomial; it
    stays primitive), its Sturm chain and one isolating interval per root
    above 1.
    """
    while g and polys.sign_at(g, 1) == 0:
        g = polys.exact_quotient(g, (-1, 1))
    while g and g[0] == 0:
        g = g[1:]
    if len(g) < 2:
        return g, [], []
    bound = polys.root_upper_bound(g)
    if bound <= 1:
        return g, [], []
    chain = polys.sturm_chain(g)
    while polys.sign_at(chain[0], bound) == 0:
        bound += 1
    return g, chain, polys.isolate_roots(g, 1, bound, chain)


def _expands_to(beta: Beta, seq: EvPeriodic) -> bool:
    """Is seq the expansion of 1 in base beta?  Each orbit point of 1 is the
    value of its digit tail, and seq is canonical (primitive period,
    shortest preperiod), so it is exactly when the first a + p digits of 1
    are seq's preperiod and period and the point after them is the one
    after the first a.  Stops at the first wrong digit."""
    x = start = beta.one()
    for i, (want, (d, x)) in enumerate(zip(seq.preperiod + seq.period, _orbit(x)), 1):
        if d != want:
            return False
        if i == len(seq.preperiod):
            start = x
    return x == start


def _root_expanding_to(g: polys.IntPoly, chain, intervals, seq: EvPeriodic) -> Beta | None:
    """The root above 1 of g (with Sturm chain ``chain``) whose expansion
    of 1 is seq, or None.

    The expansion of 1 determines the base, so at most one root
    re-expands to seq; the isolating intervals are tried in order.
    """
    for lo, hi in intervals:
        beta = Beta.root_above_one(g, lo, hi, chain)
        if _expands_to(beta, seq):
            return beta
    return None


def beta_from_expansion(target: EvPeriodic, require_valid: bool = True) -> Beta:
    """The exact base whose expansion of 1 equals the target.

    The defining polynomial comes from clearing the value equation, and
    the result is its root above 1 whose exact re-expansion of 1 is the
    target, so an invalid target is always rejected: by the validity test,
    or with require_valid=False by SolveError when no root re-expands to it.
    """
    if require_valid:
        rep = is_valid_expansion_of_one(target)
        if not rep.valid:
            raise SpecError(
                f"target is not a valid expansion of 1 "
                f"(condition {rep.failed_condition}, k={rep.witness})"
            )
    beta = _root_expanding_to(*_roots_above_one(value_equation_poly(target)), target)
    if beta is None:
        raise SolveError("no root above 1 of the value equation re-expands to the target")
    return beta


# ---------------------------------------------------------------------------
# periodic approximants


class ApproximantPlan(NamedTuple):
    """Self-admissible periodic candidates built from a certified prefix."""

    candidates: tuple[EvPeriodic, ...]
    case_tags: tuple[str, ...]
    sides: tuple[str, ...]


def _side_of(candidate: EvPeriodic) -> str:
    return "below" if len(candidate.period) % 2 == 1 else "above"


def periodic_approximants(
    pi1: EvPeriodic | None,
    count: int,
    prefix: DigitWord | None = None,
) -> ApproximantPlan:
    """Periodic self-admissible sequences sharing growing prefixes with pi1.

    Pass the resolved expansion of 1, or (for bases whose orbit never
    resolves) just a certified digit prefix.  Construction follows the
    maximal-digit structure of the sequence: finitely many maximal digits
    yield plain prefix powers past the last one; infinitely many yield the
    self-overlap construction, with the cut parity deciding whether one or
    two extra digits close the period.
    """
    if count < 1:
        raise SpecError("need count >= 1")
    if pi1 is not None:
        if pi1.is_purely_periodic:
            raise SpecError("the base is already simple")
        digit = pi1.digit
        horizon = None
        amax = pi1.digit(1)
        finitely_many = amax not in pi1.period
    else:
        if not prefix:
            raise SpecError("need either a resolved expansion or a prefix")
        prefix = tuple(prefix)

        def digit(i: int) -> int:
            if i > len(prefix):
                raise PrefixTooShort(f"needed digit {i} beyond certified prefix")
            return prefix[i - 1]

        horizon = len(prefix)
        amax = prefix[0]
        finitely_many = amax not in prefix[2:]

    candidates: list[EvPeriodic] = []
    tags: list[str] = []

    def push(word: DigitWord, tag: str) -> None:
        cand = EvPeriodic((), word, amax)
        if cand in candidates:
            return
        if not is_self_admissible(cand).result:
            return
        candidates.append(cand)
        tags.append(tag)

    if finitely_many:
        last = 1
        scan = horizon if horizon is not None else len(pi1.preperiod) + len(pi1.period)
        for i in range(1, scan + 1):
            if digit(i) == amax:
                last = i
        n_max = 2 * (last - 1) + count
        if horizon is not None and n_max > horizon:
            raise PrefixTooShort("prefix too short for the requested candidates")
        for n in range(1, count + 1):
            length = 2 * (last - 1) + n
            push(tuple(digit(i) for i in range(1, length + 1)), "finitely-many-max")
    else:
        n = 3
        guard = 0
        while len(candidates) < count:
            guard += 1
            if guard > 10_000:
                raise SolveError("candidate scan did not produce enough candidates")
            if horizon is not None and n > horizon:
                raise PrefixTooShort("prefix exhausted before enough candidates")
            if digit(n) != amax:
                n += 1
                continue
            j = None
            for jj in range(1, n):
                if all(digit(jj + i) == digit(i) for i in range(1, n - jj + 1)):
                    j = jj
                    break
            k = n
            cap = (horizon - 2) if horizon is not None else n + 4 * (len(pi1.preperiod) + len(pi1.period)) + 64
            while k <= cap and digit(k + 1) == digit(k + 1 - j):
                k += 1
            if k > cap:
                if horizon is not None:
                    raise PrefixTooShort("self-overlap scan left the certified prefix")
                n += 1
                continue
            length = k + 1 if (k - j) % 2 == 1 else k + 2
            push(tuple(digit(i) for i in range(1, length + 1)),
                 "odd-k-j" if (k - j) % 2 == 1 else "even-k-j")
            n += 1

    order = sorted(range(len(candidates)), key=lambda i: len(candidates[i].period))
    candidates = [candidates[i] for i in order]
    tags = [tags[i] for i in order]
    return ApproximantPlan(
        candidates=tuple(candidates),
        case_tags=tuple(tags),
        sides=tuple(_side_of(c) for c in candidates),
    )


def canonicalize_expansion_candidate(seq: EvPeriodic) -> EvPeriodic:
    """Rewrite a candidate into the valid expansion of 1 at the same base.

    A candidate failing one of the block-closure conditions is replaced by
    the distinguished member of its block family (prefix power for the
    lowered family, bumped prefix power for the raised one) until the
    validity test passes; the rewritten sequence provably solves the same
    value equation, which is checked, not assumed.
    """
    seen = {seq}
    trace = [seq]
    cur = seq
    for _ in range(64):
        rep = is_valid_expansion_of_one(cur)
        if rep.valid:
            if cur != seq:
                g0 = value_equation_poly(seq)
                g1 = value_equation_poly(cur)
                shared = polys.primitive(polys.cofactor_gcd(g0, g1)[0])
                if not _roots_above_one(shared)[2]:
                    raise SolveError("rewritten candidate lost the base root")
            return cur
        if rep.failed_condition == 3:
            partner = EvPeriodic((), cur.prefix(rep.witness))
        elif rep.failed_condition == 4:
            pre = cur.prefix(rep.witness)
            partner = EvPeriodic((), pre[:-1] + (pre[-1] + 1,))
        else:
            raise SolveError(
                f"candidate fails condition {rep.failed_condition}; no partner exists"
            )
        if partner in seen:
            raise CanonicalizationCycle(f"rewriting cycled: {[str(t) for t in trace]}")
        seen.add(partner)
        trace.append(partner)
        cur = partner
    raise CanonicalizationCycle(f"rewriting did not settle: {[str(t) for t in trace]}")


class ApproximantResult(NamedTuple):
    candidate: EvPeriodic
    case: str
    side: str
    beta_n: Beta | None
    gap: Fraction | None
    simple_certified: bool
    canonical: EvPeriodic | None

    def to_json(self, digits: int = 15) -> dict:
        return {
            "candidate": str(self.candidate),
            "case": self.case,
            "side": self.side,
            "beta_n": None if self.beta_n is None else self.beta_n.spec_string(),
            "beta_n_decimal": None if self.beta_n is None else self.beta_n.decimal_str(digits),
            "gap": None if self.gap is None else float(self.gap),
            "simple_certified": self.simple_certified,
            "canonical": None if self.canonical is None else str(self.canonical),
        }


def _gap(beta: Beta, other: Beta) -> Fraction:
    """|beta - other| to within 2^-100, from the exact floors of both bases
    scaled by 2^100."""
    scale = 1 << 100
    return Fraction(abs(math.floor(beta.beta_point() * scale)
                        - math.floor(other.beta_point() * scale)), scale)


def solve_candidate(beta: Beta, cand: EvPeriodic, tag: str, side: str) -> ApproximantResult:
    """Solve one approximant candidate against the base it approximates.

    The base found re-expands to the purely periodic canonical word, so it
    is a certified simple base.
    """
    g, chain, intervals = _roots_above_one(value_equation_poly(cand))
    if not intervals:
        return ApproximantResult(cand, tag, side, None, None, False, None)
    canonical = canonicalize_expansion_candidate(cand)
    solved = _root_expanding_to(g, chain, intervals, canonical)
    gap = None if solved is None else _gap(beta, solved)
    return ApproximantResult(cand, tag, side, solved, gap, solved is not None, canonical)


def approximate_simple_numbers(
    beta: Beta,
    count: int,
    prefix_len: int = 64,
    budget: int = DEFAULT_BUDGET,
) -> list[ApproximantResult]:
    """Nearby simple bases from periodic approximants of the expansion of 1.

    Every candidate's value equation is solved exactly; candidates that
    fail the validity conditions are canonicalized to the genuine simple
    expansion at the same base, and the base reported is the root that
    re-expands to that canonical word, so each solved entry is certified.
    Candidates whose value equation has no root above 1 (possible below
    the divergence index against the substitution word) are reported with
    an empty base and no canonical word; a candidate none of whose roots
    re-expands to its canonical word keeps that word but has no base.
    """
    pi = pi_of_one(beta, budget)
    if pi.resolved and pi.is_simple:
        return [ApproximantResult(pi.sequence, "already-simple", "exact", beta,
                                  Fraction(0), True, pi.sequence)]
    if pi.resolved:
        plan = periodic_approximants(pi.sequence, count)
    else:
        length = prefix_len
        while True:
            try:
                plan = periodic_approximants(None, count, prefix=expand(beta, 1, length))
                break
            except PrefixTooShort:
                if length >= 64 * prefix_len:
                    raise
                length *= 2

    return [solve_candidate(beta, cand, tag, side)
            for cand, tag, side in zip(plan.candidates, plan.case_tags, plan.sides)]
