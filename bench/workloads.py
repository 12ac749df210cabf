"""The benchmark's workloads: seeded request lists, the calls, the checks.

Each workload is a closed loop with one caller in one process. A round
replays the workload's seeded request list against fresh library state
(``reset_library_state``; no ``Beta`` object outlives a request, as every
CLI call parses its bases and ``shifts`` makes none); ``run.py`` times the
requests of a round back to back and checks their outputs after the round,
so check time is never latency. The library is always reached through
attributes of the imported package (``self.nb.build_sft``), never through
names bound here, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

GOLDENS = Path(__file__).with_name("goldens.json")


class Request(NamedTuple):
    kind: str
    args: tuple


class CheckFailed(Exception):
    """A request's output disagrees with its check."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def reset_library_state(nb) -> list[str]:
    """Clear the library's process-wide caches; returns what was reset.

    ``Beta`` keeps its refinement state per object, and no object outlives
    a request; this covers the two module-level caches.
    """
    done = []
    if hasattr(nb.shiftspace.build_sft, "cache_clear"):
        nb.shiftspace.build_sft.cache_clear()
        done.append("shiftspace.build_sft.cache_clear")
    if hasattr(nb.order, "_W_CACHE"):
        nb.order._W_CACHE = [2]
        done.append("order._W_CACHE")
    return done


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


class Workload:
    name = ""

    def __init__(self, nb, seed: int, tiny: bool = False):
        self.nb = nb
        self.rng = random.Random(seed)
        self.bases: tuple[str, ...] = ()  # specs made in set-up (setup_s)
        self.requests: list[Request] = []
        self.first: dict = {}  # request -> its first checked output

    def call(self, req: Request):
        raise NotImplementedError

    def check(self, req: Request, out) -> None:
        raise NotImplementedError

    def check_output(self, req: Request, out) -> None:
        """Full check on a request's first output; every later replay must
        repeat that output."""
        if req in self.first:
            _expect(self.first[req] == out, "output differs from the request's first output")
            return
        self.check(req, out)
        self.first[req] = out

    def stdout_bytes(self, outputs) -> int:
        return 0

    def probe_known_defects(self) -> list[dict]:
        """Inputs with a documented outcome that the library misses today,
        run once per run outside the timed requests."""
        return []


# ---------------------------------------------------------------------------
# cli_verbs: in-process CLI calls checked byte for byte against goldens

CLI_BASES = (  # the criterion-1/9 set: pisot2 pairs b, b+1, multinacci, plastic, solved bases
    "pisot2:p=1,q=1", "poly:[1,-3,1]@(2.5,3)",
    "pisot2:p=1,q=2", "poly:[1,-4,2]@(3,4)",
    "pisot2:p=1,q=3", "poly:[1,-5,3]@(4,5)",
    "pisot2:p=2,q=2", "poly:[1,-4,1]@(3,4)",
    "pisot2:p=2,q=3", "poly:[1,-5,2]@(4,5)",
    "pisot2:p=3,q=3", "poly:[1,-5,1]@(4,5)",
    "multinacci:q=1,m=3", "multinacci:q=1,m=4", "multinacci:q=2,m=3",
    "poly:[1,0,-1,-1]@(1.2,1.4)",
    "poly:[1,-2,1,-1]@(1.5,2)",        # |212
    "poly:[1,-1,0,-1]@(1.25,1.5)",     # |2112
    "poly:[1,-2,1,-2,1]@(1.5,2)",      # |2122
    "poly:[1,-3,2,-2]@(2.5,4)",        # |323
)
# measure-compare against beta+1 runs from the pisot2 bases, two multinacci
# bases and plastic: from a +1 base, a solved base or multinacci:q=1,m=4
# one request takes 5 to 65 s.
CLI_MC_BASES = CLI_BASES[0:12:2] + (CLI_BASES[12], CLI_BASES[14], CLI_BASES[15])
CLI_MC_PAIRS = (("pisot2:p=1,q=1", "multinacci:q=1,m=3"), ("pisot2:p=1,q=2", "pisot2:p=2,q=2"))

CLI_HEAVY = (
    [("orbit", "--beta", b) for b in CLI_BASES]
    + [("density", "--beta", b) for b in CLI_BASES]
    + [("match", "--beta", b) for b in CLI_BASES]
    + [("measure-compare", "--beta1", b) for b in CLI_MC_BASES]
    + [("measure-compare", "--beta1", a, "--beta2", b) for a, b in CLI_MC_PAIRS]
    + [("orbit", "--beta", "dec:1.8", "--budget", "800")]
    + [("approx", "--beta", b, "--count", c, "--jobs", "1")
       for b, c in (("pisot2:p=1,q=1", "8"), ("poly:[1,0,-1,-1]@(1.2,1.4)", "6"),
                    ("multinacci:q=1,m=3", "6"))]
)
_SEQS = ("|212", "2|1", "|32", "|2112", "|2122", "|323", "|3", "21|2", "3|2", "211|2")
_BAD_SEQS = ("|221", "|2", "|21", "|2111", "|3221", "1|2")
CLI_SLICES = {  # kind -> (requests per round, pool); the seed picks from each pool
    "expand": (6, [("expand", "--beta", b, "--x", x, "--n", "32")
                   for b in CLI_BASES + ("dec:1.8",) for x in ("1", "1/2", "3/7", "0.625")]),
    "solve": (4, [("solve", "--target", t, "--digits", "12") for t in _SEQS + _BAD_SEQS[:3]]),
    "validate": (6, [("validate", "--seq", t) for t in _SEQS + _BAD_SEQS]),
    "sft": (4, [("sft", "--pi1", t) for t in _SEQS]),
    "sft-dot": (2, [("sft", "--pi1", t, "--emit", "dot") for t in _SEQS]),
    "entropy": (4, [("entropy", "--pi1", t, "--n", n) for t in _SEQS for n in ("12", "18")]),
    "w-word": (2, [("w-word", "--n", n) for n in ("21", "64", "256", "1000")]),
}
# ROADMAP E's documented-exit-2 inputs that raise a traceback instead; run
# once per cli_verbs run as a probe, outside the timed requests
KNOWN_DEFECTS = (
    ("expand", "--beta", "pisot2:p=1,q=1", "--x", "abc", "--n", "5"),
    ("expand", "--beta", "pisot2:p=1,q=1", "--x", "1/0", "--n", "5"),
)


def cli_corpus() -> list[tuple[str, ...]]:
    """Every argv a cli_verbs round can issue; goldens exist for each."""
    out = list(CLI_HEAVY)
    for _, pool in CLI_SLICES.values():
        out += pool
    return out


def golden_key(argv) -> str:
    return " ".join(argv)


def run_cli(cli, argv) -> tuple[int, bytes]:
    """One in-process CLI call; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    return code, out.getvalue().encode()


class CliVerbs(Workload):
    """Per round: orbit, density and match on all 20 bases, 11
    measure-compare calls, the dec:1.8 orbit at budget 800, three approx
    calls, and a seeded slice of the other verbs (28 requests)."""

    name = "cli_verbs"

    def __init__(self, nb, seed, tiny=False):
        super().__init__(nb, seed, tiny)
        self.cli = nb.cli
        self.goldens = load_goldens()["cli"]
        self.bases = CLI_BASES + ("dec:1.8",)
        rng = self.rng
        heavy = [CLI_HEAVY[0], CLI_HEAVY[20], CLI_HEAVY[40], CLI_HEAVY[60]] if tiny else CLI_HEAVY
        argvs = list(heavy)
        for n, pool in CLI_SLICES.values():
            argvs += rng.sample(pool, 1 if tiny else n)
        rng.shuffle(argvs)
        missing = [a for a in argvs if golden_key(a) not in self.goldens]
        if missing:
            raise RuntimeError(f"no golden for {missing[0]}; run bench/record_goldens.py")
        self.requests = [Request("cli", tuple(a)) for a in argvs]

    def call(self, req):
        return run_cli(self.cli, req.args)

    def check(self, req, out):
        code, stdout = out
        g = self.goldens[golden_key(req.args)]
        _expect(code == g["exit"], f"exit {code}, golden {g['exit']}")
        _expect(len(stdout) == g["bytes"] and hashlib.sha256(stdout).hexdigest() == g["sha256"],
                "stdout differs from the golden bytes")

    def stdout_bytes(self, outputs):
        return sum(len(o[1]) for o in outputs if o is not None)

    def probe_known_defects(self) -> list[dict]:
        rows = []
        for argv in KNOWN_DEFECTS:
            try:
                code, _ = run_cli(self.cli, argv)
                outcome = f"exit {code}"
            except Exception as exc:  # the defect: an uncaught traceback
                outcome = f"raised {type(exc).__name__}"
            rows.append({"argv": golden_key(argv), "documented": "exit 2", "observed": outcome})
        return rows


# ---------------------------------------------------------------------------
# shifts: validity, automata, word counts and entropy; no numerics, no polys

SHIFT_CAP = 7
SHIFT_WORDS_N = 18
SHIFT_BRUTE_N = 10
SHIFT_ORACLE_SAMPLE = 6
SHIFT_FLOAT_TOL = 1e-9  # entropies against their goldens


def _primitive(word) -> bool:
    n = len(word)
    return all(not (n % d == 0 and word[:d] * (n // d) == word) for d in range(1, n))


def shift_universe(nb, cap: int) -> list:
    """Every primitive periodic word and every preperiod-1 sequence over
    {1,2,3} of total length <= cap, as canonical EvPeriodic values."""
    seqs = set()
    for plen in range(1, cap + 1):
        for per in itertools.product((1, 2, 3), repeat=plen):
            if not _primitive(per):
                continue
            seqs.add(nb.EvPeriodic((), per))
            if plen < cap:
                for d in (1, 2, 3):
                    seqs.add(nb.EvPeriodic((d,), per))
    return sorted(seqs, key=str)


def shift_call(nb, seq) -> tuple:
    """One shifts request: (False,) for an invalid sequence, else
    (True, automaton states, word counts, entropy_estimate, automaton
    entropy or None when not purely periodic)."""
    if not nb.is_valid_expansion_of_one(seq).valid:
        return (False,)
    aut = nb.build_sft(seq)
    counts = tuple(nb.count_words(seq, SHIFT_WORDS_N))
    est = nb.entropy_estimate(seq, SHIFT_WORDS_N)
    ent = nb.automaton_entropy(aut) if seq.is_purely_periodic else None
    return (True, aut.n_states, counts, est, ent)


def shift_golden(out) -> list | None:
    """The golden form of a shifts output: None for an invalid sequence,
    else [states, SHA-256 of the counts, estimate, upper bound, automaton
    entropy or None]."""
    if not out[0]:
        return None
    _, n_states, counts, est, ent = out
    digest = hashlib.sha256(json.dumps(list(counts)).encode()).hexdigest()
    return [n_states, digest, est.estimate, est.upper_bound, ent]


class Shifts(Workload):
    """Per round: one request per sequence of the universe, in seeded order.
    Valid sequences also compile, count words and take entropy."""

    name = "shifts"

    def __init__(self, nb, seed, tiny=False):
        super().__init__(nb, seed, tiny)
        self.goldens = load_goldens()["shifts"]
        seqs = shift_universe(nb, 4 if tiny else SHIFT_CAP)
        if not tiny and len(seqs) != self.goldens["sequences"]:
            raise RuntimeError(f"{len(seqs)} sequences, goldens have {self.goldens['sequences']}")
        self.rng.shuffle(seqs)
        self.requests = [Request("shift", (s,)) for s in seqs]
        self.oracle: dict = {}  # seq -> (brute-force counts, log beta or None)

    def call(self, req):
        return shift_call(self.nb, req.args[0])

    def _oracle(self, seq):
        """Brute-force counts and log beta of the solved base, for the first
        few valid sequences in seeded order."""
        if seq not in self.oracle and len(self.oracle) < SHIFT_ORACLE_SAMPLE:
            nb = self.nb
            log_beta = None
            if seq.is_purely_periodic:
                lo, hi = nb.beta_from_expansion(seq).refine(Fraction(1, 10**12))
                log_beta = math.log(float((lo + hi) / 2))
            self.oracle[seq] = (tuple(nb.brute_force_words(seq, SHIFT_BRUTE_N)), log_beta)
        return self.oracle.get(seq)

    def check(self, req, out):
        seq = req.args[0]
        want = self.goldens["valid"].get(str(seq))
        got = shift_golden(out)
        _expect((got is None) == (want is None),
                f"{seq}: valid={got is not None}, golden valid={want is not None}")
        if got is None:
            return
        _, _, counts, est, ent = out
        _expect(tuple(est.counts) == counts, f"{seq}: entropy_estimate counts differ from count_words")
        _expect(got[:2] == want[:2], f"{seq}: automaton states or word counts differ from the golden")
        for name, g, w in zip(("estimate", "upper bound", "automaton entropy"), got[2:], want[2:]):
            _expect((g is None) == (w is None) and (g is None or abs(g - w) <= SHIFT_FLOAT_TOL),
                    f"{seq}: {name} {g} differs from the golden {w}")
        oracle = self._oracle(seq)
        if oracle is not None:
            brute, log_beta = oracle
            _expect(counts[:SHIFT_BRUTE_N] == brute, f"{seq}: count_words != brute_force_words")
            if log_beta is not None:
                _expect(abs(ent - log_beta) < 1e-6, f"{seq}: entropy differs from log beta")


WORKLOADS = {w.name: w for w in (CliVerbs, Shifts)}
