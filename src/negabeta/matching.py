"""Matching of the two critical orbits and the multinacci closed form.

With the convention that 0 maps to 1, the orbit of 0 is the orbit of 1
delayed by one step, so the two orbits merge exactly when the orbit of 1
reaches a fixed point of the map.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SpecError
from .expansion import DEFAULT_BUDGET, orbit_of_one
from .numerics import Beta, FieldPoint, point_decimal_str


class MatchingReport(NamedTuple):
    """matched is None when the budget ran out before a verdict."""

    matched: bool | None
    matching_time: int | None
    fixed_point: object | None
    budget_used: int

    def to_json(self, digits: int = 15) -> dict:
        return {
            "matched": self.matched,
            "matching_time": self.matching_time,
            "fixed_point": None if self.fixed_point is None
            else point_decimal_str(self.fixed_point, digits),
            "budget_used": self.budget_used,
        }


def matching_time(beta: Beta, budget: int = DEFAULT_BUDGET) -> MatchingReport:
    """Detect whether the orbits of 0 and 1 merge, and when.

    Matching holds iff the orbit of 1 reaches a fixed point; counting both
    orbits from step 0, the matching time is one more than the index of
    the first fixed orbit value.
    """
    rec = orbit_of_one(beta, budget)
    if not rec.resolved:
        return MatchingReport(None, None, None, rec.budget)
    if rec.period_len == 1:
        idx = rec.pre_len  # 0 for the integer-base fixed point at 1
        return MatchingReport(True, idx + 1, rec.points[idx], rec.budget)
    return MatchingReport(False, None, None, rec.budget)


def multinacci_orbit(q: int, m: int, k: int) -> FieldPoint:
    """Closed-form orbit value of 1 after k steps at the multinacci base.

    Odd k sums q/beta^(m-2i) for i up to (k-1)/2; even k adds the block
    q/beta + ... + q/beta^(m-k-1); k = m repeats the value at k = m-1.
    """
    if not (0 <= k <= m):
        raise SpecError("orbit index out of range")
    beta = Beta.multinacci(q, m)
    if k == 0:
        return beta.one()
    if k == m:
        k = m - 1
        if k == 0:
            return beta.one()
    binv = 1 / beta.beta_point()
    total = beta.point_from_rational(0)
    if k % 2 == 1:
        for i in range((k - 1) // 2 + 1):
            total = total + q * binv ** (m - 2 * i)
    else:
        for i in range(k // 2 + 1):
            total = total + q * binv ** (m - 2 * i)
        for i in range(1, m - k):
            total = total + q * binv**i
    return total


class MultinacciCheck(NamedTuple):
    passed: bool
    q: int
    m: int
    matching_time: int | None
    first_discrepancy: int | None


def verify_multinacci_matching(q: int, m: int) -> MultinacciCheck:
    """Compare the iterated exact orbit against the closed form, step by step.

    Passes when every orbit value up to m matches the formula and the
    matching time equals m.
    """
    beta = Beta.multinacci(q, m)
    rec = orbit_of_one(beta, budget=m + 4)
    for k in range(m + 1):
        expected = multinacci_orbit(q, m, k)
        if k < len(rec.points):
            actual = rec.points[k]
        elif rec.resolved and rec.period_len == 1 and k >= rec.pre_len:
            actual = rec.points[rec.pre_len]
        else:
            return MultinacciCheck(False, q, m, None, k)
        if actual != expected:
            return MultinacciCheck(False, q, m, None, k)
    report = matching_time(beta, budget=m + 4)
    if report.matched is not True or report.matching_time != m:
        return MultinacciCheck(False, q, m, report.matching_time, None)
    return MultinacciCheck(True, q, m, report.matching_time, None)
