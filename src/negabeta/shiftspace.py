"""The shift of a base: tail bounds, a recognizing automaton, and entropy.

Every sequence of the shift has all of its tails strictly above the lower
boundary word and weakly below the expansion of 1.  For a purely periodic
expansion of 1 the recognizer is a subshift of finite type; otherwise it
is the sofic bound-tracking automaton, flagged as such.

Bound words are read from one unrolled digit tuple.  Sets of automaton
states are integer bitmasks: one row of successor masks per digit maps a
set to its successor set, which is how words are run and counted.  The
entropy of an automaton is a power iteration in plain floats: one padded
column of successor indices per digit gathers the product with the
transition-count matrix, so the module needs nothing outside the
standard library.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, itemgetter, sub
from typing import NamedTuple

from .errors import PowerIterationError, SpecError
from .order import DigitWord, EvPeriodic, star_zero


class TailBounds(NamedTuple):
    lower: EvPeriodic
    upper: EvPeriodic
    lower_strict: bool = True
    upper_strict: bool = False


def tail_bounds(pi1: EvPeriodic) -> TailBounds:
    """Two-sided tail bounds of the shift defined by an expansion of 1."""
    return TailBounds(lower=star_zero(pi1), upper=pi1)


class _BoundTracker:
    """Digit access into a bound word with tie positions folded to a finite set.

    A tie of length L constrains the future through the tail at L and the
    parity of L; both survive reduction of L modulo an even multiple of the
    period once L passes the preperiod.
    """

    def __init__(self, word: EvPeriodic):
        self.pre = len(word.preperiod)
        self.mod = math.lcm(2, len(word.period))
        self.digits = word.prefix(self.pre + self.mod + 1)

    def canon(self, length: int) -> int:
        if length < self.pre + self.mod:
            return length
        return self.pre + (length - self.pre) % self.mod

    def next_digit(self, tie_len: int) -> int:
        return self.digits[tie_len]


class SftAutomaton(NamedTuple):
    """Deterministic labeled graph recognizing the shift's sequences.

    transitions maps (state, digit) -> state; every state is reachable and
    has at least one outgoing edge.  ``sft`` records whether the language
    is a genuine subshift of finite type (purely periodic expansion of 1).
    """

    n_states: int
    start: int
    transitions: dict
    alphabet_max: int
    sft: bool

    def successor_masks(self) -> list[list[int]]:
        """rows[c - 1][s]: the bitmask of the successor of s under digit c,
        0 where there is none."""
        rows = [[0] * self.n_states for _ in range(self.alphabet_max)]
        for (s, c), t in self.transitions.items():
            rows[c - 1][s] = 1 << t
        return rows

    def run_set(self, states: frozenset, word) -> frozenset:
        rows = self.successor_masks()
        cur = sum(1 << s for s in states)
        for c in word:
            cur = _subset_step(rows[c - 1], cur) if 1 <= c <= self.alphabet_max else 0
        return frozenset(s for s in range(self.n_states) if cur >> s & 1)

    def to_dot(self) -> str:
        lines = ["digraph shift {", f'  start [shape=point]; start -> {self.start};']
        for (s, c), t in sorted(self.transitions.items()):
            lines.append(f'  {s} -> {t} [label="{c}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "states": list(range(self.n_states)),
            "start": self.start,
            "alphabet_max": self.alphabet_max,
            "sft": self.sft,
            "edges": [
                {"from": s, "digit": c, "to": t}
                for (s, c), t in sorted(self.transitions.items())
            ],
        }


def _subset_step(row: list[int], mask: int) -> int:
    """The set of successors, under one digit's row, of the state set mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _legal_or_tie(c: int, bound_digit: int, position: int, want_below: bool) -> tuple[bool, bool]:
    """(legal, still_tied) for one digit against a bound at a 1-based position."""
    if c == bound_digit:
        return True, True
    smaller = (c < bound_digit) if position % 2 == 1 else (c > bound_digit)
    return (smaller == want_below), False


@lru_cache(maxsize=128)
def build_sft(pi1: EvPeriodic) -> SftAutomaton:
    """Compile the shift's tail bounds into a deterministic automaton.

    States carry the set of positions at which the processed history still
    ties with the upper or lower bound word; a new comparison window opens
    at every step.  Determinization over tie sets keeps the construction
    correct without any assumption on how ties nest.
    """
    upper = _BoundTracker(pi1)
    lower = _BoundTracker(star_zero(pi1))
    a = pi1.alphabet_max

    def trans(state, c):
        uties, lties = state
        new_u, new_l = set(), set()
        for length in uties | {0}:
            ok, tied = _legal_or_tie(c, upper.next_digit(length), length + 1, want_below=True)
            if not ok:
                return None
            if tied:
                new_u.add(upper.canon(length + 1))
        for length in lties | {0}:
            ok, tied = _legal_or_tie(c, lower.next_digit(length), length + 1, want_below=False)
            if not ok:
                return None
            if tied:
                new_l.add(lower.canon(length + 1))
        return (frozenset(new_u), frozenset(new_l))

    start = (frozenset(), frozenset())
    states = {start}
    edges = {}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for c in range(1, a + 1):
            t = trans(s, c)
            if t is None:
                continue
            edges[(s, c)] = t
            if t not in states:
                states.add(t)
                frontier.append(t)

    # the shift of a valid expansion of 1 has no dead ends
    dead = {s for s in states if not any((s, c) in edges for c in range(1, a + 1))}
    if dead:
        raise SpecError("bound words admit no infinite continuation; is pi1 valid?")

    index = {s: i for i, s in enumerate(sorted(states, key=repr))}
    transitions = {(index[s], c): index[t] for (s, c), t in edges.items()}
    return SftAutomaton(
        n_states=len(states),
        start=index[start],
        transitions=transitions,
        alphabet_max=a,
        sft=pi1.is_purely_periodic,
    )


def word_in_shift(pi1: EvPeriodic, u: DigitWord) -> bool:
    """Does the word occur in some sequence of the shift?"""
    if any(d < 1 or d > pi1.alphabet_max for d in u):
        return False
    aut = build_sft(pi1)
    return bool(aut.run_set(frozenset(range(aut.n_states)), tuple(u)))


def count_words(pi1: EvPeriodic, n: int) -> list[int]:
    """Exact |B_k| for k = 1..n by path counting over state sets.

    Words may occur anywhere inside a sequence, so counting starts from
    the set of all states; determinism makes words and set-paths match up
    one to one.  State sets are bitmasks, and each set's successors are
    computed once per call.
    """
    if n < 1:
        raise SpecError("need n >= 1")
    aut = build_sft(pi1)
    rows = aut.successor_masks()
    nexts: dict[int, list[int]] = {}  # state set -> its nonempty successor sets
    counts = []
    dist = {(1 << aut.n_states) - 1: 1}
    for _ in range(n):
        ndist: dict[int, int] = {}
        for node, cnt in dist.items():
            if node not in nexts:
                nexts[node] = [t for row in rows if (t := _subset_step(row, node))]
            for t in nexts[node]:
                ndist[t] = ndist.get(t, 0) + cnt
        counts.append(sum(ndist.values()))
        dist = ndist
    return counts


def brute_force_words(pi1: EvPeriodic, n: int) -> list[int]:
    """Test oracle: enumerate legal words directly from the tail bounds.

    Walks the tree of words keeping, for every suffix start, the length of
    its still-undecided comparison against each bound word.  Exponential;
    keep n at 12 or below.
    """
    if n > 12:
        raise SpecError("brute force enumeration is capped at n = 12")
    upper, lower = pi1.prefix(n), star_zero(pi1).prefix(n)
    a = pi1.alphabet_max
    counts = [0] * (n + 1)

    def rec(depth, u_ties, l_ties):
        if depth == n:
            return
        for c in range(1, a + 1):
            ok = True
            nu, nl = [], []
            for m in u_ties + [0]:
                legal, tied = _legal_or_tie(c, upper[m], m + 1, want_below=True)
                if not legal:
                    ok = False
                    break
                if tied:
                    nu.append(m + 1)
            if ok:
                for m in l_ties + [0]:
                    legal, tied = _legal_or_tie(c, lower[m], m + 1, want_below=False)
                    if not legal:
                        ok = False
                        break
                    if tied:
                        nl.append(m + 1)
            if ok:
                counts[depth + 1] += 1
                rec(depth + 1, nu, nl)

    rec(0, [], [])
    return counts[1:]


class EntropyEstimate(NamedTuple):
    estimate: float
    upper_bound: float
    counts: tuple


def entropy_estimate(pi1: EvPeriodic, n: int) -> EntropyEstimate:
    """log |B_n| / n plus the subadditive upper bound min_k log |B_k| / k."""
    if n < 2:
        raise SpecError("need n >= 2")
    counts = count_words(pi1, n)
    est = math.log(counts[-1]) / n
    ub = min(math.log(c) / (k + 1) for k, c in enumerate(counts))
    return EntropyEstimate(est, ub, tuple(counts))


def automaton_entropy(aut: SftAutomaton, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """log of the spectral radius of the transition-count matrix M.

    Power iteration on M + I (the shift removes periodicity without moving
    the dominant eigenvector) over unnormalised vectors u_{k+1} = (M+I) u_k,
    with lambda_k = max u_{k+1} / max u_k.  Step k stops once
    max |u_{k+2} - lambda_k u_{k+1}| <= tol * lambda_k * max u_{k+1}, which
    is the residual test on the normalised iterate, so each product is both
    one step's residual and the next step's iterate.  Vectors are rescaled
    by exact powers of two only; non-convergence is an error.
    """
    n = aut.n_states
    if n == 0:
        raise SpecError("empty automaton")
    if len({s for s, _c in aut.transitions}) < n:
        raise SpecError("automaton has a state without outgoing edges")
    if n == 1:
        return math.log(len(aut.transitions))
    # cols[c - 1][s]: the successor of s under digit c, or n, which reads
    # the 0.0 that ends every vector
    cols = [[n] * n for _ in range(aut.alphabet_max)]
    for (s, c), t in aut.transitions.items():
        cols[c - 1][s] = t
    gathers = [itemgetter(*col) for col in cols]

    def step(u: list[float]) -> list[float]:
        w = u
        for gather in gathers:
            w = list(map(add, w, gather(u)))
        w.append(0.0)
        return w

    top_u = 1.0
    v = step([1.0] * n + [0.0])
    top_v = max(v)
    for _ in range(max_iter):
        w = step(v)
        top_w = max(w)
        lam = top_v / top_u
        if max(map(abs, map(sub, w, [lam * x for x in v]))) <= tol * lam * top_v:
            return math.log(lam - 1.0)
        if top_w > 2.0 ** 600:
            w = [x * 2.0 ** -600 for x in w]
            top_v *= 2.0 ** -600
            top_w *= 2.0 ** -600
        top_u, v, top_v = top_v, w, top_w
    raise PowerIterationError(f"power iteration did not converge in {max_iter} steps")
