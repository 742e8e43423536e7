#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads desk,eval_ckpt]
        [--trace 0] [--append-trajectory LABEL]

Runs ``run.py`` once per (workload, seed), one process at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric on the report line
(the bounded ones and the report-only ones) it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median; for end-to-end metrics it
flags a spread above a third of the metric's bound. With
``--append-trajectory`` the summary is appended to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(machine block, report) of one run; raises if its checks failed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[0])["machine"], json.loads(lines[1])["report"]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append-trajectory", metavar="LABEL")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, machine = {}, None
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        units = {}
        for seed in parse_seeds(args.seeds):
            machine, report = run_once(workload, seed, bench["run_seconds"], args.trace)
            for name, m in report["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary[workload] = {}
        for name, values in per_metric.items():
            s = summarise(values)
            s["unit"] = units[name]
            summary[workload][name] = s
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] > bounds[name] / 3:
                flag = f"  spread above a third of bound {bounds[name]}"
            print(f"{workload:10s} {name:48s} median {s['median']:.6g} {s['unit']}"
                  f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.append_trajectory:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text(encoding="utf-8")) if path.exists() else []
        points.append({
            "label": args.append_trajectory,
            "date": datetime.date.today().isoformat(),
            "machine": machine, "seeds": args.seeds, "trace": args.trace,
            "run_seconds": bench["run_seconds"], "workloads": summary,
        })
        path.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
