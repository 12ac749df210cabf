"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --workloads shifts --seeds 1-5 --seconds 15
    python3 bench/sweep.py --seeds 1-10 --out bench/baseline.json
    python3 bench/sweep.py --seeds 1-10 --compare bench/baseline.json

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
beside the metric's bound from BENCHMARK.json. ``--out`` also writes the
summaries and every run's record as JSON. ``--compare`` prints, per
metric, how far this sweep's median is from that of an earlier ``--out``
file, as a share of the earlier median (positive is worse).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path)
    args = ap.parse_args()
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    metrics_spec = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            record_line, result_line = proc.stdout.strip().splitlines()[-2:]
            record, result = json.loads(record_line), json.loads(result_line)
            record["result"] = result
            record["elapsed_s"] = time.monotonic() - t0
            runs.append(record)
            print(f"{wl} seed {seed} ({record['elapsed_s']:.1f} s): "
                  f"correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if k in metrics_spec and not args.trace), flush=True)
        summary = {}
        for name, m in metrics_spec.items():
            summary[name] = summarise([r["result"]["metrics"][name]["value"] for r in runs])
            s = summary[name]
            bound = m.get("bound")
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  <-- above bound/3"
            if not args.trace:
                print(f"  {name:16s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                      f"spread {s['spread']:.4f}  bound {bound}{flag}")
        report["workloads"][wl] = {"summary": summary, "runs": runs}
        for name, s in summary.items() if wl in earlier else ():
            m, before = metrics_spec[name], earlier[wl]["summary"][name]["median"]
            gap = (s["median"] - before) / before * (1 if m["better"] == "lower" else -1)
            bound = m.get("bound")
            flag = "" if bound is None or gap <= bound else "  <-- worse than bound"
            print(f"  {name:16s} median {s['median']:.5g} vs {before:.5g}: {gap:+.4f} "
                  f"(bound {bound}){flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
