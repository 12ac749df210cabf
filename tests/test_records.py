"""Value semantics of the package's 13 record types.

Ten are ``NamedTuple``s; ``Beta``, ``EvPeriodic`` and ``PiecewiseDensity``
are plain classes because each keeps an invariant (caches, a canonical
form, a checked integral).  For every type: equal values compare equal,
values that differ do not, hashing works where the fields allow it (and
equal values hash alike), fields are read-only, and ``pickle``,
``copy.copy`` and ``copy.deepcopy`` give back an equal value with the same
``repr``.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest

from negabeta import (
    Beta,
    EvPeriodic,
    approximate_simple_numbers,
    build_sft,
    densities_coincide,
    density,
    is_valid_expansion_of_one,
    limits,
    make_beta,
    matching_time,
    orbit_of_one,
    periodic_approximants,
    pi_of_one,
    verify_multinacci_matching,
)
from negabeta.errors import SpecError

TRIB = "multinacci:q=1,m=3"

# name -> (build(spec or word), two arguments giving different values,
#          hashable, a field)
RECORDS = {
    "Beta": (make_beta, (TRIB, "pisot2:p=1,q=1"), True, "kind"),
    "EvPeriodic": (EvPeriodic.parse, ("2|1", "|32"), True, "period"),
    "ValidityReport": (lambda w: is_valid_expansion_of_one(EvPeriodic.parse(w)),
                       ("|21", "|12"), True, "valid"),
    "SftAutomaton": (lambda w: build_sft.__wrapped__(EvPeriodic.parse(w)), ("|32", "2|1"),
                     False, "transitions"),
    "OrbitRecord": (lambda s: orbit_of_one(make_beta(s)), (TRIB, "dec:1.8"), False, "points"),
    "PiOfOne": (lambda s: pi_of_one(make_beta(s)), (TRIB, "dec:2"), False, "sequence"),
    "MatchingReport": (lambda s: matching_time(make_beta(s)), (TRIB, "dec:2"), False,
                       "fixed_point"),
    "MultinacciCheck": (lambda m: verify_multinacci_matching(1, m), (3, 4), True, "passed"),
    "PiecewiseDensity": (lambda s: density(make_beta(s)), (TRIB, "dec:2"), False, "values"),
    "Limits": (lambda s: limits(make_beta(s)), (TRIB, "dec:2"), False, "at_one"),
    "CoincidenceReport": (lambda s: densities_coincide(make_beta(s), make_beta("pisot2:p=1,q=1")),
                          ("pisot2:p=1,q=2", TRIB), True, "verdict"),
    "ApproximantPlan": (lambda w: periodic_approximants(EvPeriodic.parse(w), 3),
                        ("2|1", "3|12"), True, "candidates"),
    "ApproximantResult": (lambda s: approximate_simple_numbers(make_beta(s), 2)[-1],
                          ("dec:1.8", "dec:2.5"), True, "beta_n"),
}


@pytest.fixture(scope="module", params=sorted(RECORDS))
def record(request):
    """(a value, an equal value built afresh, a different value, hashable,
    a field)."""
    build, (arg, other), hashable, field = RECORDS[request.param]
    x = build(arg)
    assert type(x).__name__ == request.param
    return x, build(arg), build(other), hashable, field


def test_record_types_are_all_thirteen():
    assert len(RECORDS) == 13


def test_equality(record):
    x, same, other, _, _ = record
    assert same is not x
    assert x == same and not x != same
    assert x != other and not x == other


def test_hash_where_the_fields_allow(record):
    x, same, _, hashable, _ = record
    if hashable:
        assert hash(x) == hash(same)
        assert {x: 1}[same] == 1
    else:  # a dict or a FieldPoint among the fields
        with pytest.raises(TypeError):
            hash(x)


def test_fields_are_read_only(record):
    x, _, _, _, field = record
    before = repr(x)
    with pytest.raises(AttributeError):
        setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert repr(x) == before


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_round_trips(record, how):
    x, _, _, hashable, _ = record
    y = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
         "copy": copy.copy, "deepcopy": copy.deepcopy}[how](x)
    assert type(y) is type(x)
    assert y == x and repr(y) == repr(x)
    if hashable:
        assert hash(y) == hash(x)


def test_beta_and_ev_periodic_repr():
    """The reprs are those of the frozen dataclasses these classes replace."""
    assert repr(make_beta("dec:1.8")) == (
        "Beta(kind='decimal', coeffs=(5, -9), iso=(Fraction(7, 5), Fraction(3, 1)))")
    assert repr(make_beta(TRIB)) == (
        "Beta(kind='exact', coeffs=(1, -1, -1, -1), iso=(Fraction(3, 2), Fraction(2, 1)))")
    assert repr(make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")) == (
        "Beta(kind='exact', coeffs=(1, 0, -1, -1), iso=(Fraction(6, 5), Fraction(7, 5)))")
    assert repr(EvPeriodic((2, 1, 1), (2, 1), 5)) == (
        "EvPeriodic(preperiod=(2, 1), period=(1, 2), alphabet_max=5)")
    assert repr(EvPeriodic.parse("2|1")) == (
        "EvPeriodic(preperiod=(2,), period=(1,), alphabet_max=2)")


def test_ev_periodic_equality_ignores_alphabet_max():
    x, y = EvPeriodic((2,), (1,), 2), EvPeriodic((2, 1), (1, 1), 7)
    assert x == y and hash(x) == hash(y)
    assert (x.alphabet_max, y.alphabet_max) == (2, 7)
    assert copy.copy(y).alphabet_max == pickle.loads(pickle.dumps(y)).alphabet_max == 7
    assert x != (x.preperiod, x.period)


def test_beta_round_trip_keeps_no_cache():
    """A copied base is the base itself: the same fields and hash, and the
    caches of the original (refinement included) are not carried over."""
    a = make_beta(TRIB)
    a.refine(Fraction(1, 10**30))
    for b in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert list(vars(b)) == ["kind", "coeffs", "iso"]
        assert b == a and hash(b) == hash(a)
        assert b.floor_value() == 1 and b.interval() != a.interval()


def test_beta_caches_stay_writable():
    """cached_property writes beside the read-only fields."""
    b = Beta("decimal", (5, -9), (Fraction(7, 5), Fraction(3)))
    assert b.degree == 1 and "degree" in vars(b)
    assert b == make_beta("dec:1.8")


GOLDEN = "pisot2:p=1,q=1"


@pytest.mark.parametrize("name", ["Limits", "MatchingReport", "OrbitRecord", "PiOfOne",
                                  "PiecewiseDensity"])
def test_records_of_unrelated_fields_compare_unequal(name):
    """Records holding points of the tribonacci and golden fields, which
    share no integer shift, answer == and != without raising, as a whole
    and field by field (a whole record may differ before its points)."""
    build = RECORDS[name][0]
    x, y = build(TRIB), build(GOLDEN)
    assert (x == y) is False and (x != y) is True
    assert (y == x) is False and (y != x) is True
    for field in getattr(x, "_fields", None) or x.__slots__:
        a, b = getattr(x, field), getattr(y, field)
        assert (a == b) is not (a != b), field


def test_points_of_unrelated_fields_compare_by_value():
    """``==`` decides points of unrelated fields; arithmetic and order
    between them still raise."""
    trib, golden = make_beta(TRIB), make_beta(GOLDEN)
    assert trib.one() == golden.one() and not trib.one() != golden.one()
    assert (trib.one() * 3 == golden.beta_point()) is False
    assert trib.one() * 3 != golden.beta_point()
    for op in (operator.add, operator.sub, operator.mul, operator.truediv,
               operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(SpecError, match="different bases"):
            op(trib.one(), golden.beta_point())


def test_rational_points_of_unrelated_fields_take_no_charpoly(count_calls):
    """Two rational points of unrelated fields compare by cross-multiplying,
    a rational against an irrational one by one position test: neither
    takes a characteristic polynomial, and the answers stay."""
    from negabeta import numerics

    trib, golden = make_beta(TRIB), make_beta(GOLDEN)
    calls = count_calls(numerics, "_charpoly")
    assert trib.one() == golden.one() and golden.one() == trib.one()
    assert trib.one() / 3 == golden.one() / 3
    assert trib.one() / 3 != golden.one() / 2
    assert trib.one() * 2 != golden.beta_point() and golden.beta_point() != trib.one() * 2
    assert trib.beta_point() != golden.one() * 2
    assert not calls
