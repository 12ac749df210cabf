"""Batch command-line front end with machine-readable JSON output.

Every verb maps onto one library operation, and ``_VERBS`` declares for
each verb exactly the options its handler reads.  Output is JSON on stdout
(the lone exception is ``sft --emit dot``); numeric results carry exact
forms where available plus decimal renderings to ``--digits`` places
(``orbit``, ``density``, ``match``, ``solve``, ``approx``).  ``--budget``
bounds the orbit of 1 (``orbit``, ``density``, ``measure-compare``,
``match``, ``approx``).  Exit codes: 0 success, 2 usage and domain errors
(an invalid pi(1) for ``sft`` and ``entropy`` among them), 3 unresolved
within the orbit budget or the refinement level cap.

A handler imports the modules its verb uses when it runs, so a fresh
process loads only those: ``validate``, ``sft``, ``entropy`` and ``w-word``
load no arithmetic, and ``orbit`` loads neither ``measure`` nor ``matching``
nor ``solver``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from gettext import gettext

from .errors import NegabetaError, OrbitUnresolved, PrecisionExhausted, SpecError
from .order import DEFAULT_BUDGET, EvPeriodic, is_valid_expansion_of_one, limit_word_prefix
from .shiftspace import build_sft, entropy_estimate


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, sort_keys=True)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise SpecError(f"output holds an integer beyond Python's {limit}-digit "
                        "int-to-str limit") from exc


def _expand(a):
    from . import expansion, numerics

    beta = numerics.make_beta(a.beta)
    return {"digits": list(expansion.expand(beta, numerics._parse_rational(a.x), a.n))}


def _orbit(a):
    from . import expansion, numerics

    rec = expansion.orbit_of_one(numerics.make_beta(a.beta), a.budget)
    return {
        "kind": rec.kind,
        "pre_len": rec.pre_len,
        "period_len": rec.period_len,
        "digits": list(rec.digits),
        "points": [numerics.point_json(p, a.digits) for p in rec.points],
        "budget_used": rec.budget,
    }


def _density(a):
    from . import measure, numerics

    d = measure.density(numerics.make_beta(a.beta), a.budget)
    return {
        "breakpoints": [numerics.point_json(b, a.digits) for b in d.breakpoints],
        "values": [numerics.point_json(v, a.digits) for v in d.values],
        "K": numerics.point_json(d.K, a.digits),
        "normalized": False,
        "indicator": "geq",
    }


def _measure_compare(a):
    from . import measure, numerics

    beta1 = numerics.make_beta(a.beta1)
    beta2 = numerics.make_beta(a.beta2) if a.beta2 else beta1.plus_one()
    return measure.densities_coincide(beta1, beta2, a.budget).to_json()


def _valid_pi1(text: str) -> EvPeriodic:
    """The parsed sequence, or SpecError when it is the expansion of 1 of no base."""
    pi1 = EvPeriodic.parse(text)
    rep = is_valid_expansion_of_one(pi1)
    if not rep.valid:
        raise SpecError(f"pi1 is not a valid expansion of 1 "
                        f"(condition {rep.failed_condition}, k={rep.witness})")
    return pi1


def _entropy(a):
    est = entropy_estimate(_valid_pi1(a.pi1), a.n)
    return {"counts": list(est.counts), "estimate": est.estimate, "upper_bound": est.upper_bound}


def _sft(a):
    aut = build_sft(_valid_pi1(a.pi1))
    return aut.to_dot() if a.emit == "dot" else aut.to_json()


def _match(a):
    from . import matching, numerics

    return matching.matching_time(numerics.make_beta(a.beta), a.budget).to_json(a.digits)


def _solve(a):
    from . import solver

    beta = solver.beta_from_expansion(EvPeriodic.parse(a.target))
    return {"beta": beta.spec_string(), "decimal": beta.decimal_str(a.digits)}


def _approx(a):
    from . import numerics, solver

    # --jobs is not read: it is accepted for old scripts and has no effect
    beta = numerics.make_beta(a.beta)
    results = solver.approximate_simple_numbers(beta, a.count, a.prefix, a.budget)
    return [r.to_json(a.digits) for r in results]


def _digits(text: str) -> int:
    if not text.strip().lstrip("+").isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


_BETA = ("--beta", {"required": True})
_DIGITS = ("--digits", {"type": _digits, "default": 15,
                        "help": "decimal digits in renderings (default 15)"})
_BUDGET = ("--budget", {"type": int, "default": DEFAULT_BUDGET, "help": "orbit iteration budget"})
_PI1 = ("--pi1", {"required": True, "help": "expansion of 1 as 'pre|period'"})

# verb -> (help, handler, the options the handler reads); each handler
# returns its output, which run prints
_VERBS = {
    "expand": ("digits of the expansion of x", _expand,
               [_BETA, ("--x", {"default": "1"}), ("--n", {"type": int, "required": True})]),
    "orbit": ("orbit of 1 with cycle classification", _orbit, [_BETA, _DIGITS, _BUDGET]),
    "density": ("exact invariant density", _density, [_BETA, _DIGITS, _BUDGET]),
    "measure-compare": ("do two invariant measures coincide?", _measure_compare,
                        [("--beta1", {"required": True}),
                         ("--beta2", {"help": "defaults to beta1 + 1"}), _BUDGET]),
    "entropy": ("word counts and entropy estimate of a shift", _entropy,
                [_PI1, ("--n", {"type": int, "default": 18})]),
    "sft": ("compile the shift automaton", _sft,
            [_PI1, ("--emit", {"choices": ("json", "dot"), "default": "json"})]),
    "match": ("matching of the critical orbits", _match, [_BETA, _DIGITS, _BUDGET]),
    "solve": ("base from a prescribed expansion of 1", _solve,
              [("--target", {"required": True, "help": "sequence as 'pre|period'"}), _DIGITS]),
    "approx": ("nearby simple bases via periodic approximants", _approx,
               [_BETA, ("--count", {"type": int, "default": 8}),
                ("--prefix", {"type": int, "default": 64}),
                ("--jobs", {"type": int, "default": 1, "help": "accepted for compatibility; "
                            "has no effect (candidates are solved serially)"}),
                _DIGITS, _BUDGET]),
    "validate": ("is a sequence the expansion of 1 of some base?",
                 lambda a: is_valid_expansion_of_one(EvPeriodic.parse(a.seq)).to_json(),
                 [("--seq", {"required": True})]),
    "w-word": ("prefix of the substitution boundary word",
               lambda a: "".join(str(c) for c in limit_word_prefix(a.n)),
               [("--n", {"type": int, "required": True})]),
}


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and each verb's subparser; built once per process, as
    nothing in them depends on the environment."""
    parser = argparse.ArgumentParser(
        prog="negabeta",
        description="negative beta-expansions: digits, densities, automata, matching, solving",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {}
    for verb, (help_text, handler, options) in _VERBS.items():
        p = verbs[verb] = sub.add_parser(verb, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser, verbs


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser."""
    return _parsers()[0]


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` with one argparse pass when
    argv[0] names a verb: the verb's subparser reads the rest, and what it
    leaves is the top-level parser's error, as the nested pass reports it."""
    parser, verbs = _parsers()
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:])
    if extras:
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = args.func(args)
        print(out if getattr(args, "emit", None) == "dot" else _json_text(out))
        return 0
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
