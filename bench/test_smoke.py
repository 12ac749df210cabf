"""Smoke test of the benchmark itself: every workload at a tiny seeded size.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs untraced and traced in-process; the test asserts that
every metric registered in BENCHMARK.json is reported with its unit, that
all outputs check, and that idle layers read 0. A last test runs the
benchmark where there is no source tree and expects a refusal.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def nb():
    return run.import_library()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_registered_metric(nb, workload, trace):
    nb.shiftspace.build_sft.cache_clear()  # a fresh process starts with an empty cache
    record = run.measure(workload, seed=7, seconds=0.01, trace=trace, tiny=True)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == registered
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())
        assert record["latency_tail"]["samples"] == record["requests_per_round"]
        return
    idle = {"shifts": ("polys", "numerics", "solver", "cli"), "cli_verbs": ()}[workload]
    for layer in idle:
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
    busy = {"shifts": ("order", "shiftspace"), "cli_verbs": tracer.LAYERS}[workload]
    for layer in busy:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer


def test_shifts_check_catches_a_wrong_output(nb):
    wl = workloads.Shifts(nb, seed=7, tiny=True)
    valid = next(r for r in wl.requests if wl.call(r)[0])
    invalid = next(r for r in wl.requests if not wl.call(r)[0])
    with pytest.raises(workloads.CheckFailed):
        wl.check(valid, (False,))
    with pytest.raises(workloads.CheckFailed):
        wl.check(invalid, wl.call(valid))
    ok, states, counts, est, ent = wl.call(valid)
    wrong = counts[:-1] + (counts[-1] + 1,)
    with pytest.raises(workloads.CheckFailed):
        wl.check(valid, (ok, states, wrong, est._replace(counts=wrong), ent))


def test_refuses_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shifts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_registered_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
