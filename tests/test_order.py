import random
from fractions import Fraction

import pytest

from negabeta import (
    EvPeriodic,
    SpecError,
    alt_compare,
    is_admissible,
    is_self_admissible,
    is_valid_expansion_of_one,
    limit_word_prefix,
    rho_distance,
    star_zero,
)
from negabeta.order import compare_with_limit_word

E = EvPeriodic


def test_alt_compare_examples():
    assert alt_compare(E((2,), (1,)), E((), (3, 2))) == (-1, 1)
    # even position reverses: (22...) is below (21...)
    assert alt_compare(E((), (2,)), E((), (2, 1))) == (-1, 2)
    assert alt_compare(E((), (2, 1)), E((), (2, 1))) == (0, None)


def test_rho_distance():
    a, b = E((2,), (1,)), E((), (3, 2))
    assert rho_distance(a, a) == 0
    assert rho_distance(a, b, 3) == Fraction(1, 3)
    # first difference of 212(1)^inf vs (21211)^inf is at index 6
    assert rho_distance(E((2, 1, 2), (1,)), E((), (2, 1, 2, 1, 1)), 2) == Fraction(1, 64)


def test_limit_word_prefix():
    assert limit_word_prefix(0) == ()
    assert limit_word_prefix(3) == (2, 1, 1)
    assert "".join(map(str, limit_word_prefix(21))) == "211222112112112221122"


def test_limit_word_prefix_monotone():
    w64 = limit_word_prefix(64)
    for n in (1, 5, 17, 40):
        assert limit_word_prefix(n) == w64[:n]


def test_self_admissibility():
    assert is_self_admissible(E((), (3, 2))).result
    assert is_self_admissible(E((), (2, 1, 2, 1, 1, 1))).result
    ok, k = is_self_admissible(E((), (1, 2)))
    assert not ok and k == 1


def test_star_zero():
    # odd primitive period: closing block drops the last digit by one
    assert star_zero(E((), (2, 1, 2))) == E((), (1, 2, 1, 1))
    assert star_zero(E((), (3, 2))) == E((1,), (3, 2))
    assert star_zero(E((2,), (1,))) == E((1, 2), (1,))
    with pytest.raises(SpecError):
        star_zero(E((), (2, 1, 1)))


def test_is_admissible():
    pi1 = E((), (3, 2))
    assert is_admissible(pi1, E((), (2,)))
    assert is_admissible(pi1, pi1)
    # (2)^inf is the expansion of 2/(phi+1) under the golden base, hence admissible
    assert is_admissible(E((2,), (1,)), E((), (2,)))
    # a tail beyond the expansion of 1 is rejected
    assert not is_admissible(E((2,), (1,)), E((), (2, 1, 1, 1, 2)))


def test_admissible_matches_genuine_expansion(phi):
    from negabeta import expand

    b = phi.beta_point()
    x = 2 * (b + 1).inverse()
    assert expand(phi, x, 6) == (2,) * 6


@pytest.mark.parametrize("seq,valid,cond,k", [
    (E((), (3, 2)), True, None, None),
    (E((), (2, 1)), False, 4, 1),
    (E((), (2, 1, 1, 1)), False, 4, 3),
    (E((), (2, 1, 2)), True, None, None),
    (E((), (2,)), False, 2, None),
    (E((2,), (1,)), True, None, None),
    (E((2, 1, 1), (2,)), True, None, None),
    (E((3,), (2, 1)), False, 3, 1),
    (E((3, 1, 1), (3, 2)), False, 4, 2),
])
def test_validity_cases(seq, valid, cond, k):
    rep = is_valid_expansion_of_one(seq)
    assert rep.valid == valid
    assert rep.failed_condition == cond
    if k is not None:
        assert rep.witness == k


def test_every_valid_pi1_is_self_admissible_and_admissible():
    for text in ("|32", "|3", "|212", "|2112", "|2122", "2|1", "211|2", "21|2"):
        seq = E.parse(text)
        if not is_valid_expansion_of_one(seq).valid:
            continue
        assert is_self_admissible(seq).result
        assert is_admissible(seq, seq)


def _random_ev(rng, amax=3):
    pre = tuple(rng.randint(1, amax) for _ in range(rng.randint(0, 2)))
    per = tuple(rng.randint(1, amax) for _ in range(rng.randint(1, 4)))
    return E(pre, per)


def test_alt_compare_is_a_strict_total_order():
    rng = random.Random(99)
    seqs = [_random_ev(rng) for _ in range(60)]
    for _ in range(400):
        x, y, z = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
        cxy, cyx = alt_compare(x, y).result, alt_compare(y, x).result
        assert cxy == -cyx
        assert (cxy == 0) == (x == y)
        if alt_compare(x, y).result < 0 and alt_compare(y, z).result < 0:
            assert alt_compare(x, z).result < 0


def test_rho_ultrametric():
    rng = random.Random(5)
    seqs = [_random_ev(rng) for _ in range(40)]
    for _ in range(300):
        x, y, z = rng.choice(seqs), rng.choice(seqs), rng.choice(seqs)
        assert rho_distance(x, z, 3) <= max(rho_distance(x, y, 3), rho_distance(y, z, 3))


def test_compare_with_limit_word_sides():
    assert compare_with_limit_word(E((), (3,))).result > 0
    assert compare_with_limit_word(E((), (2,))).result < 0
    assert compare_with_limit_word(E((), (2, 1, 1))).result < 0


# ---------------------------------------------------------------------------
# the flat-tuple kernels against digit-by-digit references


def _ref_first_diff(x, y, n):
    """(result, witness) over the first n digits, read one digit() at a time."""
    for i in range(1, n + 1):
        a, b = x(i), y(i)
        if a != b:
            s = (a > b) - (a < b)
            return (s if i % 2 == 1 else -s), i
    return 0, None


def _ref_alt_compare(x, y):
    n = len(x.preperiod) + len(y.preperiod) + len(x.period) * len(y.period)
    return _ref_first_diff(x.digit, y.digit, n)


def _ref_limit_word(n):
    w = [2]
    while len(w) < n:
        w = [s for c in w for s in ((2, 1, 1) if c == 2 else (2,))]
    return w[:n]


_REF_W = _ref_limit_word(4096)


def _ref_compare_with_limit_word(digit):
    return _ref_first_diff(digit, lambda i: _REF_W[i - 1], len(_REF_W))


def _ref_self_admissible(seq):
    for k in range(1, seq.tail_count() + 1):
        if _ref_alt_compare(seq.shift(k), seq)[0] > 0:
            return False, k
    return True, None


def _ref_in_block_closure(seq, blocks):
    """Depth-first search for a cycle of block matches reachable from 0."""
    pre, per = len(seq.preperiod), len(seq.period)
    blocks = [b for b in blocks if min(b) >= 1]

    def succ(p):
        for b in blocks:
            if all(seq.digit(p + i + 1) == b[i] for i in range(len(b))):
                q = p + len(b)
                yield q if q < pre else pre + (q - pre) % per

    on_path, done = set(), set()

    def cyclic(p):
        on_path.add(p)
        for q in succ(p):
            if q in on_path or (q not in done and cyclic(q)):
                return True
        on_path.discard(p)
        done.add(p)
        return False

    return cyclic(0)


def _ref_validity(seq):
    ok, k = _ref_self_admissible(seq)
    if not ok:
        return False, 1, k
    r, i = _ref_compare_with_limit_word(seq.digit)
    if r <= 0:
        return False, 2, i
    for k in range(1, len(seq.preperiod) + 2 * len(seq.period) + 1):
        prefix = tuple(seq.digit(i) for i in range(1, k + 1))
        power = E((), prefix)
        if _ref_compare_with_limit_word(power.digit)[0] > 0 and seq != power:
            if _ref_in_block_closure(seq, (prefix[:-1] + (prefix[-1] - 1, 1), prefix)):
                return False, 3, k
        bumped = prefix[:-1] + (prefix[-1] + 1,)
        if _ref_compare_with_limit_word(E((), bumped).digit)[0] > 0:
            if _ref_in_block_closure(seq, (prefix + (1,), bumped)):
                return False, 4, k
    return True, None, None


def test_word_kernels_equal_digit_references(small_shift_universe, bench_workloads):
    corpus = bench_workloads._SEQS + bench_workloads._BAD_SEQS  # the 16 CLI corpus sequences
    seqs = small_shift_universe + [E.parse(t) for t in corpus]
    for seq in seqs:
        rep = is_valid_expansion_of_one(seq)
        assert (rep.valid, rep.failed_condition, rep.witness) == _ref_validity(seq), seq
        assert tuple(is_self_admissible(seq)) == _ref_self_admissible(seq), seq
        assert tuple(compare_with_limit_word(seq)) == _ref_compare_with_limit_word(seq.digit), seq
    assert sum(is_valid_expansion_of_one(s).valid for s in seqs) > 20


def test_alt_compare_equals_digit_reference():
    rng = random.Random(2024)
    for _ in range(500):
        x, y = _random_ev(rng), _random_ev(rng)
        if rng.random() < 0.3:  # share a long prefix, so late witnesses occur
            y = E(x.prefix(rng.randint(1, 8)) + y.preperiod, y.period)
        assert tuple(alt_compare(x, y)) == _ref_alt_compare(x, y), (x, y)


def _unguarded_validity(seq):
    """``is_valid_expansion_of_one`` as it was before its block parses got
    their guards: the parse of conditions 3 and 4 runs at every k."""
    from negabeta.order import _against_limit_word, _in_block_closure, _repeat

    ok, k = is_self_admissible(seq)
    if not ok:
        return False, 1, k
    cmp_w = compare_with_limit_word(seq)
    if cmp_w.result <= 0:
        return False, 2, cmp_w.witness
    pre, per = len(seq.preperiod), len(seq.period)
    kmax = pre + 2 * per
    u = seq.prefix(pre + per + kmax + 1)
    for k in range(1, kmax + 1):
        prefix = u[:k]
        blocks = (prefix[:-1] + (prefix[-1] - 1, 1), prefix)
        if ((pre or k % per) and _in_block_closure(u, pre, per, blocks)
                and _against_limit_word(_repeat(prefix)).result > 0):
            return False, 3, k
        bumped = prefix[:-1] + (prefix[-1] + 1,)
        if (_in_block_closure(u, pre, per, (prefix + (1,), bumped))
                and _against_limit_word(_repeat(bumped)).result > 0):
            return False, 4, k
    return True, None, None


def test_validity_guards_keep_every_answer(bench_workloads, monkeypatch, count_calls):
    """The guards of the block parses change no answer: on the ``shifts``
    universe at cap 7 (5,307 sequences) and on every sequence the three
    corpus ``approx`` argvs test, the report equals the unguarded loop's.
    On the 669 valid sequences of that universe the parses run at most
    3,200 times (15,822 without the guards), so the guards are there."""
    import negabeta
    from negabeta import order, solver

    universe = bench_workloads.shift_universe(negabeta, 7)
    assert len(universe) == 5307
    tested = []

    def recorded(seq):
        tested.append(seq)
        return is_valid_expansion_of_one(seq)

    monkeypatch.setattr(solver, "is_valid_expansion_of_one", recorded)
    argvs = [a for a in bench_workloads.CLI_HEAVY if a[0] == "approx"]
    assert len(argvs) == 3
    for argv in argvs:
        opts = dict(zip(argv[1::2], argv[2::2]))
        solver.approximate_simple_numbers(negabeta.make_beta(opts["--beta"]), int(opts["--count"]))
    assert len(tested) >= 20
    for seq in universe + tested:
        assert tuple(is_valid_expansion_of_one(seq)) == _unguarded_validity(seq), seq

    valid = [s for s in universe if is_valid_expansion_of_one(s).valid]
    assert len(valid) == 669
    calls = count_calls(order, "_in_block_closure")
    for seq in valid:
        is_valid_expansion_of_one(seq)
    assert 0 < calls["_in_block_closure"] <= 3200
