"""One workload process: set up, time the item list, print one JSON line.

Phases:
  import  import the workload's modules and exit (warms bytecode caches);
  setup   time set-up only;
  run     time set-up, then the timed rounds, untraced; before each round
          and after the last, further set-ups run in child processes while
          this one waits, so the set-up samples span the whole run instead
          of one moment of it;
  trace   set up, time the rounds untraced, then again under the tracer,
          and report per-layer metrics.

run.py starts this file with PYTHONPATH pointing at the checkout's src/
and PYTHONHASHSEED derived from the seed, in a process group of its own
that it kills if the run overstays its deadline.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Item, Mismatch, Workload, deal_rounds, warmup_items

MAX_REPORTED_ERRORS = 5


def _outcome(wl: Workload, item: Item, errors: list[str]) -> str | None:
    try:
        return wl.run_item(item)
    except Mismatch as exc:
        message = f"{item.cls}: {exc}"
    except Exception as exc:  # an item that raises is a failed item
        message = f"{item.cls}: {type(exc).__name__}: {exc}"
    if len(errors) < MAX_REPORTED_ERRORS:
        errors.append(message)
    return "error"


def setup(name: str, seed: int, seconds: float) -> tuple[Workload, list[list[Item]], float]:
    """Everything before the first timed item; returns its duration."""
    started = time.perf_counter()
    wl = WORKLOADS[name](seconds)
    wl.import_modules()
    rng = random.Random(seed)
    items = wl.build(rng)
    rounds = deal_rounds(items, rng)
    for item in warmup_items(items):
        _outcome(wl, item, [])
    gc.collect()
    gc.freeze()  # keep the set-up heap out of the timed collections
    return wl, rounds, time.perf_counter() - started


def child_setup(args: argparse.Namespace) -> float:
    """Time one set-up in a fresh process; this one idles meanwhile."""
    cmd = [
        sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phase", "setup",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _p99(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=100)[98]


def timed_rounds(wl: Workload, rounds: list[list[Item]], on_item=None, gap=None) -> dict:
    """Run every round, timing each item; on_item(i) runs before item i,
    gap() before each round and after the last, outside the timed walls.

    items_per_s is items over the wall time of all rounds; p50 and p99
    are over every item's latency.  Per-round figures are kept raw.
    """
    walls, p50s, p99s, everything = [], [], [], []
    defects = errors_n = index = 0
    errors: list[str] = []
    clock = time.perf_counter
    for items in rounds:
        if gap is not None:
            gap()
        lat = []
        begin = clock()
        for item in items:
            if on_item is not None:
                on_item(index)
            index += 1
            t0 = clock()
            outcome = _outcome(wl, item, errors)
            lat.append(clock() - t0)
            if outcome == "defect":
                defects += 1
            elif outcome is not None:
                errors_n += 1
        walls.append(clock() - begin)
        p50s.append(statistics.median(lat))
        p99s.append(_p99(lat) if len(lat) > 1 else lat[0])
        everything.extend(lat)
    if gap is not None:
        gap()
    return {
        "items": index,
        "items_per_s": index / sum(walls),
        "p50_s": statistics.median(everything),
        "p99_s": _p99(everything),
        "round_items": [len(r) for r in rounds],
        "round_wall_s": walls,
        "round_p50_s": p50s,
        "round_p99_s": p99s,
        "defects": defects,
        "errors": errors_n,
        "error_samples": errors,
    }


def layer_metrics(wl: Workload, totals: dict, plain: dict, traced: dict) -> dict[str, float]:
    """Every per-layer metric; functions the workload never calls read 0."""
    from tracer import TRACED

    out: dict[str, float] = {}
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0, "value": 0.0}
    for mod_name, attr, _ in TRACED:
        label = f"{mod_name}.{attr}"
        row = totals.get(label, empty)
        calls = row["calls"]
        out[f"{label}.calls"] = calls
        out[f"{label}.self_s"] = row["self_s"]
        hit_frac = row["hits"] / calls if calls else 0.0
        if label == "oracles.ipc_provable":
            out[f"{label}.provable_frac"] = hit_frac
        elif label == "jump.rho":
            out[f"{label}.cut_frac"] = hit_frac
        elif label == "machine.t_check":
            out[f"{label}.accept_frac"] = hit_frac
        elif label == "realize.k2_apply_info":
            out[f"{label}.answered_frac"] = hit_frac
            out[f"{label}.steps"] = row["value"]
        elif label in ("seqcode.decode", "seqcode.extend"):
            out[f"{label}.bits"] = row["value"]
        elif label == "parser.parse_formula":
            out["parser.nodes_per_s"] = row["value"] / row["s"] if row["s"] else 0.0
    out["gen.enumerate_prop_formulas.s"] = wl.setup_times.get("gen.enumerate_prop_formulas", 0.0)
    out["trace.overhead_frac"] = plain["items_per_s"] / traced["items_per_s"] - 1.0
    out["trace.spans"] = sum(row["calls"] for row in totals.values())
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", required=True, choices=("import", "setup", "run", "trace"))
    ap.add_argument("--spans", type=Path, help="path stem for the traced run's spans")
    args = ap.parse_args(argv)

    # stay on one CPU: a process the scheduler moves mid-run pays for
    # cold caches, which shows most in the short set-ups
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.phase == "import":
        WORKLOADS[args.workload](args.seconds).import_modules()
        print(json.dumps({}))
        return 0
    wl, rounds, setup_s = setup(args.workload, args.seed, args.seconds)
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    samples = [setup_s]
    report: dict = {"setup_s_samples": samples}
    if args.phase == "run":
        def gap() -> None:
            samples.extend(child_setup(args) for _ in range(wl.setups_per_gap))

        plain = timed_rounds(wl, rounds, gap=gap)
    else:
        plain = timed_rounds(wl, rounds)
    report["timed"] = plain
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.phase == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_rounds(wl, rounds, on_item=lambda i: setattr(tracer, "current_item", i))
        finally:
            tracer.uninstall()
        report["traced"] = traced
        report["traced_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["layers"] = layer_metrics(wl, tracer.totals(), plain, traced)
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
