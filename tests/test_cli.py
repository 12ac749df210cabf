import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import negabeta

from negabeta import cli
from negabeta.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand(capsys):
    code, out = invoke(capsys, "expand", "--beta", "pisot2:p=1,q=1", "--x", "1", "--n", "5")
    assert code == 0
    assert json.loads(out) == {"digits": [2, 1, 1, 1, 1]}


def test_measure_compare_defaults_to_plus_one(capsys):
    code, out = invoke(capsys, "measure-compare", "--beta1", "pisot2:p=1,q=1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "Coincide" and data["predicted"] is True


def test_measure_compare_predicts_nothing_for_integer_bases(capsys):
    """The quadratic-pair criterion covers non-integer bases only: with
    beta = 2 (x^2 - x - 2) or beta = 3 (x^2 - 2x - 3) and beta + 1 the
    measures coincide and the prediction is null."""
    for spec in ("poly:[1,-1,-2]@(1.001,4)", "poly:[1,-2,-3]@(2.5,4)"):
        code, out = invoke(capsys, "measure-compare", "--beta1", spec)
        assert code == 0
        assert json.loads(out) == {"detail": "breakpoints and values agree",
                                   "predicted": None, "verdict": "Coincide"}


def test_w_word(capsys):
    code, out = invoke(capsys, "w-word", "--n", "21")
    assert code == 0
    assert json.loads(out) == "211222112112112221122"


def test_orbit_and_density(capsys):
    code, out = invoke(capsys, "orbit", "--beta", "multinacci:q=1,m=3")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "eventually-periodic"
    assert data["pre_len"] == 2 and data["period_len"] == 1

    code, out = invoke(capsys, "density", "--beta", "pisot2:p=1,q=1", "--digits", "10")
    assert code == 0
    data = json.loads(out)
    assert data["K"]["decimal"] == "0.8541019662"
    assert data["indicator"] == "geq"
    assert data["breakpoints"][1]["coeffs"] == ["2", "-1"]


def test_validate(capsys):
    code, out = invoke(capsys, "validate", "--seq", "|2111")
    assert code == 0
    assert json.loads(out) == {"valid": False, "failed_condition": 4, "witness_k": 3}


def test_solve_round_trips_spec_string(capsys):
    code, out = invoke(capsys, "solve", "--target", "|212", "--digits", "10")
    assert code == 0
    data = json.loads(out)
    code, out2 = invoke(capsys, "expand", "--beta", data["beta"], "--n", "6")
    assert code == 0
    assert json.loads(out2) == {"digits": [2, 1, 2, 2, 1, 2]}


def test_match(capsys):
    code, out = invoke(capsys, "match", "--beta", "poly:[1,0,-1,-1]@(1.2,1.4)")
    assert code == 0
    data = json.loads(out)
    assert data["matched"] is True and data["matching_time"] == 4


def test_sft_emits(capsys):
    code, out = invoke(capsys, "sft", "--pi1", "|32", "--emit", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out = invoke(capsys, "sft", "--pi1", "|32")
    data = json.loads(out)
    assert data["sft"] is True and data["edges"]


def test_entropy(capsys):
    code, out = invoke(capsys, "entropy", "--pi1", "2|1", "--n", "10")
    assert code == 0
    data = json.loads(out)
    assert data["counts"][0] == 2 and len(data["counts"]) == 10


def test_approx(capsys):
    code, out = invoke(capsys, "approx", "--beta", "pisot2:p=1,q=1", "--count", "4")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[3]["candidate"] == "|2111" and rows[3]["canonical"] == "|212"


def test_approx_parallel(capsys):
    code, out = invoke(capsys, "approx", "--beta", "pisot2:p=1,q=1",
                       "--count", "3", "--jobs", "2")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_approx_parallel_matches_serial(capsys):
    # --jobs has no effect, so any value prints the same bytes; the orbit of 1
    # does not resolve, so candidates come from a prefix that must be doubled
    # before the self-overlap scan fits
    argv = ("approx", "--beta", "dec:1.9", "--count", "6", "--prefix", "4")
    code, serial = invoke(capsys, *argv, "--jobs", "1")
    assert code == 0
    code, parallel = invoke(capsys, *argv, "--jobs", "2")
    assert code == 0
    assert parallel == serial


_NO_NUMPY_SNIPPET = """
import sys
sys.modules["numpy"] = None  # any numpy import now fails
import negabeta, negabeta.cli
from negabeta import EvPeriodic, automaton_entropy, build_sft
automaton_entropy(build_sft(EvPeriodic.parse("|32")))
assert negabeta.cli.run(["entropy", "--pi1", "|32", "--n", "12"]) == 0
assert negabeta.cli.run(["approx", "--beta", "pisot2:p=1,q=1", "--count", "2", "--jobs", "2"]) == 0
assert "multiprocessing" not in sys.modules
assert "concurrent.futures.process" not in sys.modules
"""


def test_runtime_needs_no_numpy_and_no_process_pool():
    """The library and the CLI run without numpy and never load the process
    machinery: ``approx --jobs N`` is accepted but solves serially."""
    src = str(Path(negabeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_SNIPPET], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_deterministic_output(capsys):
    _, out1 = invoke(capsys, "density", "--beta", "pisot2:p=2,q=2")
    _, out2 = invoke(capsys, "density", "--beta", "pisot2:p=2,q=2")
    assert out1 == out2


def test_exit_codes(capsys):
    code, _ = invoke(capsys, "expand", "--beta", "pisot2:p=9,q=1", "--n", "3")
    assert code == 2
    code, _ = invoke(capsys, "density", "--beta", "dec:2.5")
    assert code == 3
    code, _ = invoke(capsys, "validate", "--seq", "garbage")
    assert code == 2
    # (2)^inf is the expansion of 1 of no base
    for argv in (["sft", "--pi1", "|2"], ["entropy", "--pi1", "|2", "--n", "6"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: pi1 is not a valid expansion of 1 (condition 2")
    for x in ("abc", "1/0"):
        code = run(["expand", "--beta", "pisot2:p=1,q=1", "--x", x, "--n", "5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
    # digit 10^999999 + 1 is beyond Python's int-to-str limit
    code = run(["expand", "--beta", "dec:1e999999", "--n", "3"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    for argv in (["solve", "--target", "|212", "--digits", "-1"],
                 ["density", "--beta", "pisot2:p=1,q=1", "--digits", "-3"],
                 ["orbit", "--beta", "pisot2:p=1,q=1", "--digits", "-3"],
                 ["match", "--beta", "pisot2:p=1,q=1", "--digits", "-1"]):
        assert run(argv) == 2
        assert "--digits: must be a non-negative integer" in capsys.readouterr().err
    # a rendering to 4300 digits or more is beyond Python's int-to-str limit
    for argv in (["orbit", "--beta", "pisot2:p=1,q=1", "--digits", "4300"],
                 ["density", "--beta", "pisot2:p=1,q=1", "--digits", "5000"],
                 ["match", "--beta", "pisot2:p=1,q=1", "--digits", "5000"],
                 ["solve", "--target", "|212", "--digits", "5000"]):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "int-to-str limit" in err
    # the same rational 3/2 as two degree-1 bases
    code = run(["measure-compare", "--beta1", "poly:[2,-3]@(1.25,1.75)",
                "--beta2", "poly:[4,-6]@(1.3,1.7)"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bases must differ")


def test_zero_digits_render_the_integer_part(capsys):
    code, out = invoke(capsys, "solve", "--target", "|212", "--digits", "0")
    assert code == 0 and json.loads(out)["decimal"] == "1"
    code, out = invoke(capsys, "orbit", "--beta", "pisot2:p=1,q=1", "--digits", "0")
    assert code == 0 and [p["decimal"] for p in json.loads(out)["points"]] == ["1", "0"]


def test_digits_past_the_level_cap_are_unresolved_promptly(capsys):
    """Renderings that need more refinement levels than MAX_REFINE_LEVEL
    exit 3 with the level-cap message; a jump reaches the cap in a few
    certified steps instead of bisecting toward it."""
    for argv in (["density", "--beta", "pisot2:p=1,q=1", "--digits", "40000"],
                 ["solve", "--target", "|212", "--digits", "31000"]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unresolved:") and "level cap" in captured.err


def test_refinement_level_cap_is_unresolved(capsys, monkeypatch):
    """Refinement that would pass the level cap exits 3, not a traceback.
    The base is a cubic: floors on a quadratic base refine nothing."""
    from negabeta import numerics

    monkeypatch.setattr(numerics, "MAX_REFINE_LEVEL", 2)
    assert run(["orbit", "--beta", "multinacci:q=1,m=3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("unresolved:") and "level cap" in err


def test_digits_far_past_the_level_cap_are_unresolved_within_a_second(capsys):
    """--digits 10^6 and 10^7 exit 3 with the level-cap message within 1 s
    each: the cap is decided from bit lengths before 10^digits is formed,
    and the zero breakpoint renders as "0" without it.  Past the int-to-str
    limit, the renderings that need no refinement still exit 2: the
    rational point 1, an integer base and a dec: base."""
    import time

    for digits in ("1000000", "10000000"):
        t0 = time.perf_counter()
        assert run(["density", "--beta", "pisot2:p=1,q=1", "--digits", digits]) == 3
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == "" and "level cap" in captured.err
    for beta in ("pisot2:p=1,q=1", "poly:[1,-3]@(2,4)", "dec:1.5"):
        assert run(["orbit", "--beta", beta, "--digits", "40000"]) == 2
        assert "int-to-str limit" in capsys.readouterr().err


def test_rational_points_past_the_int_to_str_limit_exit_within_a_second(capsys):
    """An orbit whose first point is the rational 1 exits 2 at --digits 10^7
    within 1 s: bit lengths show the rendering passes the int-to-str limit
    before 10^digits is formed."""
    import time

    errs = []
    for argv in (["orbit", "--beta", "pisot2:p=1,q=1"], ["orbit", "--beta", "dec:1.5", "--budget", "3"]):
        t0 = time.perf_counter()
        assert run(argv + ["--digits", "10000000"]) == 2
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1] and "int-to-str limit" in errs[0]


_ONE_ARGV_PER_VERB = (
    ["expand", "--beta", "dec:1.5", "--n", "3"],
    ["orbit", "--beta", "pisot2:p=1,q=1"],
    ["density", "--beta", "pisot2:p=1,q=1"],
    ["measure-compare", "--beta1", "pisot2:p=1,q=1"],
    ["entropy", "--pi1", "2|1", "--n", "3"],
    ["sft", "--pi1", "2|1"],
    ["match", "--beta", "pisot2:p=1,q=1"],
    ["solve", "--target", "|212"],
    ["approx", "--beta", "pisot2:p=1,q=1", "--count", "1"],
    ["validate", "--seq", "2|1"],
    ["w-word", "--n", "4"],
)


def test_precision_option_and_environment_are_gone(capsys, monkeypatch):
    """A dec: base is its exact rational: no verb takes --precision, and
    NEGABETA_PRECISION, whatever its value, changes nothing."""
    assert len({argv[0] for argv in _ONE_ARGV_PER_VERB}) == 11
    for argv in _ONE_ARGV_PER_VERB:
        assert run(argv + ["--precision", "64"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err and "unrecognized arguments: --precision" in captured.err
    argv = ["expand", "--beta", "dec:1.5", "--n", "3"]
    monkeypatch.delenv("NEGABETA_PRECISION", raising=False)
    outputs = [invoke(capsys, *argv)]
    for value in ("abc", "7"):
        monkeypatch.setenv("NEGABETA_PRECISION", value)
        outputs.append(invoke(capsys, *argv))
    assert outputs == [(0, '{"digits": [2, 1, 1]}\n')] * 3


_NO_OP_OPTIONS = (("expand", "--digits", "10"), ("expand", "--budget", "10"),
                  ("measure-compare", "--digits", "10"), ("entropy", "--digits", "10"),
                  ("sft", "--digits", "10"), ("validate", "--digits", "10"),
                  ("w-word", "--digits", "10"))


def test_options_a_verb_does_not_read_are_gone(capsys):
    """--digits and --budget are usage errors on the verbs that never read
    them; approx --jobs stays accepted and has no effect."""
    argvs = {argv[0]: argv for argv in _ONE_ARGV_PER_VERB}
    for verb, *option in _NO_OP_OPTIONS:
        assert run(argvs[verb] + option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert f"unrecognized arguments: {option[0]}" in captured.err
    code, out = invoke(capsys, *argvs["approx"], "--jobs", "1")
    assert code == 0 and out == invoke(capsys, *argvs["approx"])[1]


def test_each_verb_reads_every_option_it_declares(capsys):
    """The handler of each verb reads exactly the options the verb table
    declares for it, except approx --jobs, kept for old scripts."""
    class Reads:
        def __init__(self, args):
            self.args, self.names = args, set()

        def __getattr__(self, name):
            self.names.add(name)
            return getattr(self.args, name)

    declared_total = 0
    for argv in _ONE_ARGV_PER_VERB:
        _, handler, options = cli._VERBS[argv[0]]
        declared = {flag[2:].replace("-", "_") for flag, _ in options}
        declared_total += len(declared)
        reads = Reads(cli.build_parser().parse_args(argv))
        handler(reads)
        assert reads.names == declared - ({"jobs"} if argv[0] == "approx" else set()), argv
    assert declared_total == 29
    assert capsys.readouterr().out == ""


def test_decimal_floor_next_to_zero_is_exact(capsys):
    """1.5 * 10^-999999 has floor 0 and 1.5 (1 - 10^-999999) has floor 1,
    however close to an integer either lies."""
    code, out = invoke(capsys, "expand", "--beta", "dec:1.5", "--x", "1e-999999", "--n", "2")
    assert (code, out) == (0, '{"digits": [1, 2]}\n')


def test_corpus_byte_equal_to_bench_goldens(capsys, bench_workloads):
    """Every argv of the benchmark corpus gives the recorded exit code and
    stdout bytes, so a change of automaton state numbering, or a rendering
    that moves with the refinement history, fails here, not only in the
    bench."""
    wl = bench_workloads
    goldens = wl.load_goldens()["cli"]
    argvs = wl.cli_corpus()
    assert len(argvs) == 232
    for argv in argvs:
        code, out = invoke(capsys, *argv)
        g = goldens[wl.golden_key(argv)]
        assert code == g["exit"], argv
        assert hashlib.sha256(out.encode()).hexdigest() == g["sha256"], argv
