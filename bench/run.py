"""negabeta benchmark: one seeded workload per run, untraced or traced.

    python3 bench/run.py --workload cli_verbs --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. A run times whole rounds of the workload's seeded request list
until ``--seconds`` of requests have run, checks every output after its
round, and prints two JSON lines: the full record (see NOTES.md), then the
result ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: throughput, median and tail
latency of each request's fastest replay, set-up time (least of fresh
interpreters doing ``import negabeta`` and ``make_beta`` for the workload's
bases, spread over the run) and peak RSS. Its times are scaled to a fixed
host speed by a calibration loop timed before every round (see NOTES.md);
the record keeps them unscaled too. ``--trace 1`` first times three
untraced rounds, then wraps the library (``tracer.py``) and reports
per-layer metrics of the fastest traced round, import times from
``-X importtime`` and the traced/untraced wall ratio.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 8  # set-ups spread over an untraced run
CAL_REF_S = 0.004  # the reference speed: the calibration loop in 4 ms
IMPORT_REPEATS = 5
BASELINE_ROUNDS = 3  # untraced rounds a traced run times first
TAIL_LADDER = (999, 995, 990, 980, 950, 900, 750, 500)  # percentiles, in tenths
TAIL_MIN_BEYOND = 10
SCHEMA = 2

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import negabeta
for spec in sys.argv[2:]:
    negabeta.make_beta(spec, 256)
print(time.perf_counter() - t0)
"""
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import negabeta"

TRACED_FUNCTIONS = (
    "polys.poly_divmod", "polys.poly_eval_interval", "polys.isolate_roots",
    "polys.count_roots", "polys.poly_gcd", "polys.half_ext_gcd",
    "numerics.floor_beta_times", "numerics.FieldPoint.times_beta",
    "numerics.FieldPoint.__mul__", "numerics.Beta.refine", "numerics.FieldPoint.interval",
    "numerics.FieldPoint.inverse", "numerics.FieldPoint.is_zero", "numerics.FieldPoint.sign",
    "expansion.expand", "expansion.evaluate", "expansion.orbit_of_one",
    "order.is_valid_expansion_of_one", "order.is_self_admissible", "order.alt_compare",
    "shiftspace.build_sft", "shiftspace.count_words", "shiftspace.automaton_entropy",
    "measure.density", "measure.densities_coincide", "measure.algebraic_equal",
    "matching.matching_time",
    "solver.beta_from_expansion", "solver.approximate_simple_numbers",
    "solver.solve_candidate", "solver.periodic_approximants",
    "cli.run",
)
CAPTURE = ("numerics.make_beta", "solver.beta_from_expansion", "solver.solve_candidate",
           "expansion.orbit_of_one", "shiftspace.build_sft")
COUNT_UNITS = {
    "numerics.refine_bits": "bits",
    "solver.certified_ratio": "ratio",
    "solver.solved_ratio": "ratio",
    "expansion.orbit_steps": "steps/round",
    "expansion.peak_coord_bits": "bits",
    "shiftspace.states": "states/round",
    "shiftspace.sft_cache_hit_ratio": "ratio",
    "cli.stdout_bytes": "bytes/round",
    "cli.import_s": "s",
    "shiftspace.import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s/round", f"{layer}.calls": "calls/round",
                      f"{layer}.errors": "errors/round"})
    for fn in TRACED_FUNCTIONS:
        units.update({f"{fn}.self_s": "s/round", f"{fn}.calls": "calls/round"})
    units.update(COUNT_UNITS)
    return units


END_TO_END_UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# helpers


def import_library():
    """Import negabeta from this checkout's src/, and nothing else."""
    if not (SRC / "negabeta" / "__init__.py").is_file():
        raise FileNotFoundError(f"no negabeta sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import negabeta
    import negabeta.cli  # noqa: F401  (a layer of its own; not imported by the package)

    if Path(negabeta.__file__).resolve().parent != (SRC / "negabeta").resolve():
        raise ImportError(f"negabeta imported from {negabeta.__file__}, not {SRC}")
    return negabeta


def git_sha() -> str:
    # look for a repository at ROOT only, and read no git configuration
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_vals) - 1) * p / 100
    f = math.floor(k)
    c = min(f + 1, len(sorted_vals) - 1)
    return sorted_vals[f] + (sorted_vals[c] - sorted_vals[f]) * (k - f)


def tail_percentile(n: int) -> tuple[float, int]:
    """Highest ladder percentile with at least 10 samples beyond it."""
    for tenths in TAIL_LADDER:
        beyond = n * (1000 - tenths) // 1000
        if beyond >= TAIL_MIN_BEYOND:
            return tenths / 10, beyond
    return 100.0, 0


def calibration_loop() -> int:
    """A fixed piece of pure-Python work much like the library's own
    (Fraction and big-int arithmetic, small allocations, a dict); it calls
    nothing of the library, so no change to the library changes its time."""
    x, s, bits = Fraction(1, 3), 0, []
    for i in range(1, 400):
        x = (x * Fraction(7, 5) + Fraction(i, 11)) % 3
        bits.append(x.numerator.bit_length())
        s += i * i % 7
    table = {i: str(i) for i in range(300)}
    return s + sum(bits) + len(table)


def setup_once(specs) -> float:
    """Seconds of import negabeta + make_beta(specs) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), *specs],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_import_times() -> dict[str, float]:
    """Median cumulative import seconds of negabeta and negabeta.shiftspace."""
    samples: dict[str, list[float]] = {"negabeta": [], "negabeta.shiftspace": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_SNIPPET, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e6)
    return {"cli.import_s": statistics.median(samples["negabeta"]),
            "shiftspace.import_s": statistics.median(samples["negabeta.shiftspace"])}


# ---------------------------------------------------------------------------
# the loop


class Runner:
    """Runs rounds of one workload and accumulates latencies and failures."""

    def __init__(self, nb, workload, tracer=None, calibrate=False):
        self.nb = nb
        self.wl = workload
        self.tracer = tracer
        self.calibrate = calibrate
        self.calibration_s: list[float] = []  # calibration loop time per round
        self.collections: list[list[tuple]] = []  # per round: (request, generation)
        self.latencies: list[list[float]] = []  # per round, in request order
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.resets: list[str] = []
        self.last_outputs: list = []
        self.traced_totals: list[dict] = []  # tracer totals after each round

    def round(self) -> None:
        tr = self.tracer
        if tr is not None:
            tr.active = False
            tr.clear_captured()
        clock = time.perf_counter
        if self.calibrate:
            # before the collector is reset, so the loop's allocations
            # do not move the round's collections
            t0 = clock()
            calibration_loop()
            self.calibration_s.append(clock() - t0)
        self.resets = workloads.reset_library_state(self.nb)
        # every round starts from the same collector state, so a collection
        # falls on the same request in every replay of the round
        gc.collect()
        outputs, errors, latencies, collections = [], [], [], []

        def on_gc(phase, info):
            if phase == "start":
                collections.append((len(outputs), info["generation"]))

        gc.callbacks.append(on_gc)
        t_round = clock()
        for req in self.wl.requests:
            if tr is not None:
                tr.request = self.attempted + len(outputs)
                tr.active = True
            t0 = clock()
            try:
                out, err = self.wl.call(req), None
            except Exception as exc:  # a failed request; the loop goes on
                out, err = None, exc
            latencies.append(clock() - t0)
            if tr is not None:
                tr.active = False
            outputs.append(out)
            errors.append(err)
        self.round_walls.append(clock() - t_round)
        gc.callbacks.remove(on_gc)
        self.latencies.append(latencies)
        self.collections.append(collections)
        if tr is not None:
            self.traced_totals.append(tr.totals())
        for req, out, err in zip(self.wl.requests, outputs, errors):
            self.attempted += 1
            if err is None:
                try:
                    self.wl.check_output(req, out)
                    continue
                except Exception as exc:
                    err = exc
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{req.kind} {req.args!r}: {type(err).__name__}: {err}")
        self.last_outputs = outputs

    def run_for(self, seconds: float, between=None, every: float = math.inf) -> None:
        """Whole rounds until their timed wall reaches ``seconds``; calls
        ``between()`` untimed before the first round and then each time
        another ``every`` seconds of rounds have run."""
        due = 0.0
        while not self.round_walls or sum(self.round_walls) < seconds:
            if between is not None and sum(self.round_walls) >= due:
                between()
                due += every
            self.round()


def end_to_end(runner: Runner, setup_s: float) -> tuple[dict, dict]:
    """Throughput, median and tail over each request's fastest replay, and
    set-up time, all scaled to the reference host speed.

    Every round replays the same requests in the same library and
    collector state, so each collection falls on the same request in every
    round (the record's ``gc`` says whether it did) and each request does
    the same work each time. The host's speed swings by tens of percent
    from one second to the next, and a slow moment only ever lengthens a
    replay, so a request's fastest replay measures the code rather than
    the neighbours, as ``timeit`` does. Throughput is the round's requests
    over their summed fastest latencies; the tail percentile depends only
    on the round's size.

    The host is also slow for a minute or more at a time, and then even
    the fastest replays are slow. The calibration loop, timed once before
    every round, measures that in the same way: every time is multiplied
    by ``CAL_REF_S`` over its fastest time in the run."""
    lat = [min(times) for times in zip(*runner.latencies)]
    total = sum(lat)
    lat.sort()
    pct, beyond = tail_percentile(len(lat))
    raw = {
        "throughput_rps": len(lat) / total,
        "latency_p50_ms": percentile(lat, 50) * 1000,
        "latency_tail_ms": percentile(lat, pct) * 1000,
        "setup_s": setup_s,
    }
    scale = CAL_REF_S / min(runner.calibration_s)
    metrics = {k: v / scale if k == "throughput_rps" else v * scale for k, v in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = runner.collections[0]
    stats = {"latency_tail": {"percentile": pct, "beyond": beyond, "samples": len(lat)},
             "calibration": {"ref_s": CAL_REF_S, "least_s": min(runner.calibration_s),
                             "median_s": statistics.median(runner.calibration_s),
                             "samples": len(runner.calibration_s), "scale": scale},
             "gc": {"collections_per_round": len(first),
                    "same_every_round": all(c == first for c in runner.collections)},
             "unscaled": raw}
    return metrics, stats


def fastest_round(runner: Runner) -> int:
    """Index of the round with the least wall."""
    return min(range(len(runner.round_walls)), key=runner.round_walls.__getitem__)


def _bits(r) -> int:
    return max(r.numerator.bit_length(), r.denominator.bit_length())


def count_metrics(nb, runner: Runner) -> dict:
    """Counts read from public return values and attributes of the last round."""
    cap = runner.tracer.captured
    betas = cap["numerics.make_beta"] + cap["solver.beta_from_expansion"]
    betas += [r.beta_n for r in cap["solver.solve_candidate"] if r.beta_n is not None]
    bits = []
    seen = set()
    for b in betas:
        if id(b) in seen or not b.is_exact:
            continue
        seen.add(id(b))
        lo, hi = b.interval()
        if hi > lo:
            w = hi - lo
            bits.append(math.log2(w.denominator) - math.log2(w.numerator))
    results = cap["solver.solve_candidate"]
    orbits = cap["expansion.orbit_of_one"]
    peak = 0
    for rec in orbits:
        for p in rec.points:
            for c in (p.coeffs if isinstance(p, nb.FieldPoint) else (p,)):
                peak = max(peak, _bits(c))
    automata = {id(a): a for a in cap["shiftspace.build_sft"]}
    info = nb.shiftspace.build_sft.cache_info()
    lookups = info.hits + info.misses
    return {
        "numerics.refine_bits": statistics.fmean(bits) if bits else 0.0,
        "solver.certified_ratio": (sum(r.simple_certified for r in results) / len(results)
                                   if results else 0.0),
        "solver.solved_ratio": (sum(r.beta_n is not None for r in results) / len(results)
                                if results else 0.0),
        "expansion.orbit_steps": sum(rec.budget for rec in orbits),
        "expansion.peak_coord_bits": peak,
        "shiftspace.states": sum(a.n_states for a in automata.values()),
        "shiftspace.sft_cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "cli.stdout_bytes": runner.wl.stdout_bytes(runner.last_outputs),
    }


def per_layer(runner: Runner) -> dict:
    """Calls, self time and errors of the fastest traced round (calls and
    errors repeat exactly from round to round)."""
    i = fastest_round(runner)
    prev = runner.traced_totals[i - 1] if i else {}
    rnd = {n: tuple(a - b for a, b in zip(v, prev.get(n, (0, 0.0, 0))))
           for n, v in runner.traced_totals[i].items()}

    def total(names, field):
        return sum(rnd.get(n, (0, 0.0, 0))[field] for n in names)

    out = {}
    for layer in LAYERS:
        names = [n for n in rnd if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = total(names, 1)
        out[f"{layer}.calls"] = total(names, 0)
        out[f"{layer}.errors"] = total(names, 2)
    for fn in TRACED_FUNCTIONS:
        out[f"{fn}.self_s"] = total([fn], 1)
        out[f"{fn}.calls"] = total([fn], 0)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full record (its "result" is printed last)."""
    nb = import_library()
    os.environ.pop("NEGABETA_PRECISION", None)
    info = nb.shiftspace.build_sft.cache_info()
    if info.currsize or info.hits or info.misses:
        raise RuntimeError(f"build_sft cache not empty at run start: {info}")
    wl = workloads.WORKLOADS[workload](nb, seed, tiny)
    record = {
        "schema": SCHEMA, "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "requests_per_round": len(wl.requests),
    }
    # warm-up: one round of the tiny variant, which runs the same code paths;
    # checked, not timed
    checked = [Runner(nb, workloads.WORKLOADS[workload](nb, seed, tiny=True))]
    checked[0].round()
    if not trace:
        # set-ups spread over the run, like the rounds, so that one slow
        # phase of the host does not set them all
        setups: list[float] = []
        runner = Runner(nb, wl, calibrate=True)
        runner.run_for(seconds, lambda: setups.append(setup_once(wl.bases)),
                       every=seconds / SETUP_SAMPLES)
        metrics, stats = end_to_end(runner, min(setups))
        stats["setup_samples_s"] = setups
        record.update(stats)
    else:
        imports = measure_import_times()
        base = Runner(nb, wl)
        for _ in range(BASELINE_ROUNDS):
            base.round()
        checked.append(base)
        tr = Tracer(capture=CAPTURE)
        tr.install()
        try:
            runner = Runner(nb, wl, tr)
            runner.run_for(seconds)
        finally:
            tr.uninstall()
        metrics = per_layer(runner)
        metrics.update(count_metrics(nb, runner))
        metrics.update(imports)
        # least of as many adjacent rounds on each side
        traced = runner.round_walls[:BASELINE_ROUNDS]
        metrics["trace.overhead_ratio"] = min(traced) / min(base.round_walls[-len(traced):])
        spans = OUT / f"spans-{workload}.json"
        if not tiny:
            tr.write(spans)
            record["spans"] = {"file": str(spans.relative_to(ROOT)), "total": tr.n_spans,
                               "stored": len(tr.span_name)}
    for other in checked:
        runner.attempted += other.attempted
        runner.failed += other.failed
        runner.failures += other.failures
    units = per_layer_units() if trace else END_TO_END_UNITS
    record.update({
        "rounds": len(runner.round_walls),
        "requests_timed": sum(len(lat) for lat in runner.latencies),
        "requests_checked": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "round_walls_s": runner.round_walls,
        "state_reset": runner.resets,
        "failures": runner.failures,
        "known_defects": wl.probe_known_defects(),
    })
    record["result"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = record.pop("result")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
