#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads cube,cli --seeds 1-10 --trace 0 \
        --out sweep.json [--against earlier.json]

Runs ``run.py`` once per (workload, seed), one run at a time, for
``run_seconds`` of BENCHMARK.json, and reports for each metric the median of
its values and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.

An end-to-end metric is flagged, and the exit code is 1, when its spread
exceeds its bound (``setup_s`` excepted: one run's set-up is a few samples,
so only its median is held to the bound), or, with ``--against``, when its
median is worse than the earlier sweep's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="cube,compose,dense-io,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="write the values, their summary and the input digests here")
    parser.add_argument("--against", default=None,
                        help="an earlier --out file whose medians this sweep must not be worse than")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    report: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "wall_s": time.perf_counter() - start,
                         "detail": json.loads(lines[-2])["detail"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        names = list(runs[0]["result"]["metrics"])
        summary = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
            for name in names
        }
        report["workloads"][workload] = {
            "machine": runs[0]["detail"]["machine"],
            "seeds": [r["seed"] for r in runs],
            "input_sha256": [r["detail"]["input_sha256"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "run_wall_s": [r["wall_s"] for r in runs],
            "summary": summary,
        }
        if args.trace:
            report["workloads"][workload]["share_of_traced_wall"] = [
                r["detail"]["share_of_traced_wall"] for r in runs]
        if "vectors_per_s" in runs[0]["detail"]:
            report["workloads"][workload]["vectors_per_s"] = summarize(
                [r["detail"]["vectors_per_s"] for r in runs])
        print(f"== {workload}")
        for name, s in summary.items():
            line = f"  {name:55s} median {s['median']:.6g}  spread {s['spread']:.4f}"
            if name not in bounds:
                print(line)
                continue
            bound = bounds[name]
            line += f"  ({s['spread'] / bound:.2f} of bound {bound})"
            if name != "setup_s" and s["spread"] > bound:
                line += "  <-- spread exceeds bound"
                flagged += 1
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before:
                change = s["median"] / before["median"] - 1
                worse = change if better[name] == "lower" else -change
                line += f"  worse by {worse:+.3f}"
                if worse > bound:
                    line += "  <-- median worse than --against by more than bound"
                    flagged += 1
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
