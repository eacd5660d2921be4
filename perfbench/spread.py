"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads prop-sweep,jump-tree --seeds 1-10

Runs run.py once per (workload, seed), one at a time, from the current
directory (the repository root), then prints per metric the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound
from BENCHMARK.json.  Quartiles are statistics.quantiles(values, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"  {workload:14s} {name:34s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
