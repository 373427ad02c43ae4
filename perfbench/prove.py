#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

Run from the repository root:

    python3 perfbench/prove.py --seeds 1-10
    python3 perfbench/prove.py --workloads scaling_sweep --seeds 1-5 --trace-seeds 1

Each run is ``perfbench/run.py`` in its own process, one after another.
For every end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Traced runs add the per-layer metrics.
The summary is printed and written as JSON (``--out``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1):  # 1: ran, but a check failed; the result says which
        proc.check_returncode()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["digests"] = detail["digests"]
    result["extra"] = detail["extra"]
    result["environment"] = detail["environment"]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace-seeds", type=seed_list, default=[])
    ap.add_argument("--out", type=Path, default=HERE / "out" / "prove.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        traced = [run_once(workload, s, spec["run_seconds"], 1) for s in args.trace_seeds]
        entry = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "environment": runs[0]["environment"],
            "end_to_end": {},
            "extra": {s: r["extra"] for s, r in zip(args.seeds, runs)},
            "digests": {s: r["digests"] for s, r in zip(args.seeds, runs)},
            "per_layer": {s: r["metrics"] for s, r in zip(args.trace_seeds, traced)},
        }
        print(f"{workload}: {len(runs)} runs, correct={entry['all_correct']}, "
              f"failed {entry['failed']}/{entry['attempted']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            row = spread(values) | {"unit": runs[0]["metrics"][name]["unit"], "bound": bound}
            entry["end_to_end"][name] = row
            flag = "ok" if row["spread"] < bound / 3 else ("within bound" if row["spread"] <= bound else "TOO WIDE")
            print(f"  {name:14s} median {row['median']:12.4f} {row['unit']:4s} q1 {row['q1']:12.4f} "
                  f"q3 {row['q3']:12.4f} spread {row['spread']:7.2%} bound {bound:.0%} {flag}")
        for seed, metrics in entry["per_layer"].items():
            print(f"  per-layer (seed {seed}):")
            for name, m in metrics.items():
                print(f"    {name:38s} {m['value']:16.6f} {m['unit']}")
        summary[workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if all(e["all_correct"] for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
