"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload prop-sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; it measures the package under ./src.
Each phase runs in its own single-threaded process with PYTHONHASHSEED
derived from the seed: first an untimed import that warms the bytecode
caches, then the timed process, which sets up and times the rounds
(with --trace 1, the untraced and the traced rounds).  Between its
rounds it runs further set-ups in child processes; `setup_s` is the
median of all these set-ups.  `--seconds` sizes the fixed item list,
which takes about that long on a 2-CPU machine; it is never a deadline.
Metric units come from BENCHMARK.json.

Every run appends its raw numbers to .perfbench-runs/<workload>.jsonl;
a traced run also writes its spans there.  The last line of standard
output is {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # the whole run, all processes together


class WorkerFailed(Exception):
    pass


def _call(cmd: list[str], env: dict, cwd: Path, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise WorkerFailed("out of time before starting a phase")
    # a group of its own, so a timeout also ends the worker's set-up children
    proc = subprocess.Popen(
        cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"phase timed out: {' '.join(cmd[2:])}") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"phase failed ({proc.returncode}): {stderr.strip()[-2000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"phase printed no result: {' '.join(cmd[2:])}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "bairelab" / "__init__.py").is_file():
        print(f"perfbench: no package at {src}/bairelab; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(args.seed % 2**32))
    out_dir = root / ".perfbench-runs"
    out_dir.mkdir(exist_ok=True)
    worker = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    spans = out_dir / f"spans-{args.workload}"  # the latest traced run of each workload
    try:
        _call(worker + ["--phase", "import"], env, root, deadline)
        phase = ["--phase", "trace", "--spans", str(spans)] if args.trace else ["--phase", "run"]
        report = _call(worker + phase, env, root, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups = report["setup_s_samples"]

    runs = [report["timed"]] + ([report["traced"]] if args.trace else [])
    attempted = report["timed"]["items"]
    failed = report["timed"]["defects"] + report["timed"]["errors"]
    correct = all(r["errors"] == 0 for r in runs)
    timed = report["timed"]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "items_per_s": timed["items_per_s"],
        "item_p50_ms": 1e3 * timed["p50_s"],
        "item_tail_ms": 1e3 * timed["p99_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    reported = report["layers"] if args.trace else end_to_end
    metrics = {k: {"value": v, "unit": units[k]} for k, v in reported.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "setup_s_samples": setups,
        "fail_frac": failed / attempted,
        "end_to_end": end_to_end,
        "metrics": {k: m["value"] for k, m in metrics.items()},
        "timed": timed,
        "traced": report.get("traced"),
        "traced_peak_rss_mb": report.get("traced_peak_rss_mb"),
    }
    with open(out_dir / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for err in sum((r["error_samples"] for r in runs), []):
        print(f"error: {err}")
    print(f"{args.workload} seed={args.seed}: {attempted} items, "
          f"fail_frac={failed / attempted:.6f} (1), "
          + ", ".join(f"{k}={v:.6g} ({units[k]})" for k, v in end_to_end.items()))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
