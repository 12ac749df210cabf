import collections
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from negabeta import make_beta


@pytest.fixture(scope="session")
def phi():
    return make_beta("pisot2:p=1,q=1")


@pytest.fixture(scope="session")
def phi2(phi):
    return phi.plus_one()


@pytest.fixture(scope="session")
def tribonacci():
    return make_beta("multinacci:q=1,m=3")


@pytest.fixture(scope="session")
def plastic():
    # real root of x^3 - x - 1, about 1.324717
    return make_beta("poly:[1,0,-1,-1]@(1.2,1.4)")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, *names) wraps each named attribute of ``owner`` (a
    module or a class, ``Fraction.__new__`` included) for the rest of the
    test and returns a Counter of calls by name."""
    def count(owner, *names):
        calls = collections.Counter()
        for name in names:
            def counted(*args, _f=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        return calls
    return count


def refine_float(beta, digits=25):
    lo, hi = beta.refine(Fraction(1, 10**digits))
    return float((lo + hi) / 2)


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload module (corpus pools, goldens, universes)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def small_shift_universe(bench_workloads):
    """The benchmark's ``shifts`` universe at cap 5 instead of 7: every
    primitive periodic word and every preperiod-1 sequence over {1,2,3} of
    total length <= 5, 555 sequences."""
    import negabeta

    return bench_workloads.shift_universe(negabeta, 5)
