"""Mutation checks for the exact-decision core.

    python tests/mutants.py [--timeout SECONDS] [NAME ...]

Each entry of ``MUTANTS`` names a source file, an exact text that occurs in
it once, the text that replaces it, and the tests that must fail once it
does.  For each entry (all of them, or those named) the repository is
copied into a temporary directory, the mutation applied, and the listed
tests run there in a subprocess with a timeout.  A mutant is killed when
the tests fail or time out, and survives when they pass; an entry whose
text is not found once, or whose tests cannot be collected, is an error.
The result is printed as JSON.  Needs only the standard library and
pytest; pytest does not collect this file (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_BALL = "src/negabeta/expansion.py"
_NUMERICS = "src/negabeta/numerics.py"
_BALL_TESTS = ("tests/test_expansion.py::test_ball_step_encloses_the_exact_step",
               "tests/test_expansion.py::test_ball_digits_equal_exact_digits")
_REDUCE_TESTS = ("tests/test_numerics.py::test_companion_steps_reduce_as_the_full_gcd",)

MUTANTS = (
    Mutant("ball rounds inward", _BALL,
           "return d, ((d << P2) - ph) >> P, -((pl - (d << P2)) >> P)",
           "return d, -((ph - (d << P2)) >> P), ((d << P2) - pl) >> P",
           _BALL_TESTS),
    Mutant("ball accepts an upper end equal to n + 1", _BALL,
           "if ph >= d << P2:", "if ph > d << P2:", _BALL_TESTS),
    Mutant("degree-1 step without its step-modulus reduction", _BALL,
           "        if g != 1:\n            n, q = n // g, q // g\n", "",
           ("tests/test_expansion.py::test_ball_digits_equal_exact_digits",)),
    Mutant("orbit repeats skip the exact test wherever there are balls", _BALL,
           "return ah << q < bl << p or bh << p < al << q", "return True",
           ("tests/test_expansion.py::test_long_orbits_find_their_repeat_among_balls",
            "tests/test_expansion.py::test_canonical_points_agree_with_the_position_tests")),
    Mutant("buckets take a ball from the first step", _BALL,
           "(_BUCKET_BITS, _BUCKET_AFTER)", "(_BUCKET_BITS, 0)",
           ("tests/test_expansion.py::test_short_orbits_refine_beta_only_for_their_buckets",)),
    Mutant("step runs the whole driver", _BALL,
           "return next(_rational_orbit(beta, x)) if beta.degree == 1 else x.map_step()",
           "return next(_orbit(x))",
           ("tests/test_expansion.py::test_step_seeds_no_ball",)),
    Mutant("step modulus drops f_0", _NUMERICS,
           "return abs(self.poly[0] * self.poly[-1])", "return abs(self.poly[-1])",
           _REDUCE_TESTS),
    Mutant("step modulus drops f_d", _NUMERICS,
           "return abs(self.poly[0] * self.poly[-1])", "return abs(self.poly[0])",
           _REDUCE_TESTS),
    Mutant("companion step divides once, without the loop", _NUMERICS,
           "    while g != 1 and (g := math.gcd(g, *num)) != 1:\n"
           "        num, den = tuple(c // g for c in num), den // g\n"
           "        g = math.gcd(g, den) if r else 1\n"
           "    return num, den",
           "    if g != 1 and (g := math.gcd(g, *num)) != 1:\n"
           "        num, den = tuple(c // g for c in num), den // g\n"
           "        g = math.gcd(g, den) if r else 1\n"
           "    return num, den",
           _REDUCE_TESTS),
    Mutant("cell enclosure without the point's den", _NUMERICS,
           "return a, b, den * s", "return a, b, s",
           ("tests/test_numerics.py::test_level_search_matches_linear_refinement",
            "tests/test_expansion.py::test_ball_digits_equal_exact_digits")),
    Mutant("width search stops one level early", _NUMERICS,
           "(b - a) * wd < wn * s", "(b - a) * wd < 2 * wn * s",
           ("tests/test_numerics.py::test_rational_roots_keep_their_level",
            "tests/test_numerics.py::test_level_search_matches_linear_refinement")),
)


def _copy(dst: Path) -> None:
    shutil.copytree(ROOT, dst, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))


def run(mutant: Mutant, timeout: float) -> dict:
    """Apply one mutant in a fresh copy of the repository and run its tests."""
    out = {"name": mutant.name, "path": mutant.path, "tests": list(mutant.tests)}
    with tempfile.TemporaryDirectory(prefix="negabeta-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        _copy(tree)
        target = tree / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return {**out, "status": "error",
                    "detail": f"old text found {text.count(mutant.old)} times, not once"}
        target.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {**out, "status": "killed", "detail": f"timed out after {timeout} s",
                    "seconds": round(time.monotonic() - start, 2)}
        seconds = round(time.monotonic() - start, 2)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        # pytest exits 1 when a test failed and 0 when all passed; any other
        # code (no tests collected, usage error) says nothing of the mutant
        status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
        return {**out, "status": status, "detail": last[0], "seconds": seconds}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="run only the mutants with these names")
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in chosen}
    if unknown:
        ap.error(f"unknown mutants: {sorted(unknown)}")
    results = [run(m, args.timeout) for m in chosen]
    report = {status: [r for r in results if r["status"] == status]
              for status in ("killed", "survived", "error")}
    print(json.dumps(report, indent=1))
    return 0 if not report["survived"] and not report["error"] else 1


if __name__ == "__main__":
    sys.exit(main())
