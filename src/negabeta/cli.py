"""Batch command-line front end with machine-readable JSON output.

Every verb maps onto one library operation.  Output is JSON on stdout
(the lone exception is ``sft --emit dot``); numeric results carry exact
forms where available plus decimal renderings at the requested precision.
Exit codes: 0 success, 2 domain errors (an invalid pi(1) for ``sft`` and
``entropy`` among them), 3 unresolved within budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import NegabetaError, OrbitUnresolved, PrecisionExhausted, SpecError
from .expansion import DEFAULT_BUDGET, EvPeriodic, expand, orbit_of_one
from .numerics import _parse_rational, make_beta, point_json
from .order import is_valid_expansion_of_one, limit_word_prefix
from .matching import matching_time
from .measure import densities_coincide, density
from .shiftspace import build_sft, entropy_estimate
from . import solver


def _emit(obj) -> None:
    try:
        text = json.dumps(obj, sort_keys=True)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise SpecError(f"output holds an integer beyond Python's {limit}-digit "
                        "int-to-str limit") from exc
    print(text)


def _cmd_expand(args) -> int:
    beta = make_beta(args.beta, args.precision)
    digits = expand(beta, _parse_rational(args.x), args.n)
    _emit({"digits": list(digits)})
    return 0


def _cmd_orbit(args) -> int:
    beta = make_beta(args.beta, args.precision)
    rec = orbit_of_one(beta, args.budget)
    _emit({
        "kind": rec.kind,
        "pre_len": rec.pre_len,
        "period_len": rec.period_len,
        "digits": list(rec.digits),
        "points": [point_json(p, args.digits) for p in rec.points],
        "budget_used": rec.budget,
    })
    return 0


def _cmd_density(args) -> int:
    beta = make_beta(args.beta, args.precision)
    d = density(beta, args.budget)
    _emit({
        "breakpoints": [point_json(b, args.digits) for b in d.breakpoints],
        "values": [point_json(v, args.digits) for v in d.values],
        "K": point_json(d.K, args.digits),
        "normalized": False,
        "indicator": "geq",
    })
    return 0


def _cmd_measure_compare(args) -> int:
    beta1 = make_beta(args.beta1, args.precision)
    beta2 = make_beta(args.beta2, args.precision) if args.beta2 else beta1.plus_one()
    report = densities_coincide(beta1, beta2, args.budget)
    _emit(report.to_json())
    return 0


def _valid_pi1(text: str) -> EvPeriodic:
    """The parsed sequence, or SpecError when it is the expansion of 1 of no base."""
    pi1 = EvPeriodic.parse(text)
    rep = is_valid_expansion_of_one(pi1)
    if not rep.valid:
        raise SpecError(f"pi1 is not a valid expansion of 1 "
                        f"(condition {rep.failed_condition}, k={rep.witness})")
    return pi1


def _cmd_entropy(args) -> int:
    pi1 = _valid_pi1(args.pi1)
    est = entropy_estimate(pi1, args.n)
    _emit({
        "counts": list(est.counts),
        "estimate": est.estimate,
        "upper_bound": est.upper_bound,
    })
    return 0


def _cmd_sft(args) -> int:
    pi1 = _valid_pi1(args.pi1)
    aut = build_sft(pi1)
    if args.emit == "dot":
        print(aut.to_dot())
    else:
        _emit(aut.to_json())
    return 0


def _cmd_match(args) -> int:
    beta = make_beta(args.beta, args.precision)
    report = matching_time(beta, args.budget)
    _emit(report.to_json(args.digits))
    return 0


def _cmd_solve(args) -> int:
    target = EvPeriodic.parse(args.target)
    beta = solver.beta_from_expansion(target, Fraction(1, 10**args.digits))
    _emit({"beta": beta.spec_string(), "decimal": beta.decimal_str(args.digits)})
    return 0


def _cmd_approx(args) -> int:
    beta = make_beta(args.beta, args.precision)
    results = solver.approximate_simple_numbers(beta, args.count, args.prefix, args.budget)
    _emit([r.to_json(args.digits) for r in results])
    return 0


def _cmd_validate(args) -> int:
    seq = EvPeriodic.parse(args.seq)
    _emit(is_valid_expansion_of_one(seq).to_json())
    return 0


def _cmd_w_word(args) -> int:
    _emit("".join(str(c) for c in limit_word_prefix(args.n)))
    return 0


def _digits(text: str) -> int:
    if not text.strip().lstrip("+").isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once per process, as nothing in it depends on
    the environment (decimal bases read NEGABETA_PRECISION when parsed)."""
    parser = argparse.ArgumentParser(
        prog="negabeta",
        description="negative beta-expansions: digits, densities, automata, matching, solving",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, beta=True):
        p.add_argument("--digits", type=_digits, default=15,
                       help="decimal digits in renderings (default 15)")
        p.add_argument("--precision", type=int,
                       help="working precision in bits for decimal bases")
        if beta:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="orbit iteration budget")

    p = sub.add_parser("expand", help="digits of the expansion of x")
    p.add_argument("--beta", required=True)
    p.add_argument("--x", default="1")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("orbit", help="orbit of 1 with cycle classification")
    p.add_argument("--beta", required=True)
    common(p)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("density", help="exact invariant density")
    p.add_argument("--beta", required=True)
    common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("measure-compare", help="do two invariant measures coincide?")
    p.add_argument("--beta1", required=True)
    p.add_argument("--beta2", help="defaults to beta1 + 1")
    common(p)
    p.set_defaults(func=_cmd_measure_compare)

    p = sub.add_parser("entropy", help="word counts and entropy estimate of a shift")
    p.add_argument("--pi1", required=True, help="expansion of 1 as 'pre|period'")
    p.add_argument("--n", type=int, default=18)
    common(p, beta=False)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("sft", help="compile the shift automaton")
    p.add_argument("--pi1", required=True)
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    common(p, beta=False)
    p.set_defaults(func=_cmd_sft)

    p = sub.add_parser("match", help="matching of the critical orbits")
    p.add_argument("--beta", required=True)
    common(p)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("solve", help="base from a prescribed expansion of 1")
    p.add_argument("--target", required=True, help="sequence as 'pre|period'")
    common(p, beta=False)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("approx", help="nearby simple bases via periodic approximants")
    p.add_argument("--beta", required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--prefix", type=int, default=64)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect (candidates are solved serially)")
    common(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("validate", help="is a sequence the expansion of 1 of some base?")
    p.add_argument("--seq", required=True)
    common(p, beta=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("w-word", help="prefix of the substitution boundary word")
    p.add_argument("--n", type=int, required=True)
    common(p, beta=False)
    p.set_defaults(func=_cmd_w_word)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OrbitUnresolved, PrecisionExhausted) as exc:
        print(f"unresolved: {exc}", file=sys.stderr)
        return 3
    except NegabetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
