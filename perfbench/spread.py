#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads tau_sweep,kernel --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

Runs run.py once per workload and seed, one run at a time, and prints for
each metric the median, the quartiles (statistics.quantiles, n=4) and the
spread: (Q3 - Q1) / median, to be read against the metric's bound in
BENCHMARK.json.  With --baseline it also makes one traced run per workload
(first seed) and writes all figures, the per-layer metrics, each layer's
share of the traced pass, and the environment and commit, as a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: its JSON result line and its BENCH file."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed} trace {trace}: incorrect\n{proc.stderr}", file=sys.stderr)
    with open(os.path.join(ROOT, ".perfbench", f"BENCH_{workload}.json")) as fh:
        return result, json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--baseline", help="write medians, quartiles and environment here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seeds": seeds_of(args.seeds), "seconds": args.seconds,
              "loadavg_at_start": os.getloadavg(), "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            result, bench_file = run(workload, seed, args.seconds, 0)
            status |= not result["correct"]
            runs.append(result)
            report.setdefault("environment", bench_file["environment"])
        figures = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            figures[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bound, "unit": runs[0]["metrics"][name]["unit"]}
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            print(f"{workload:10s} {name:12s} median {med:12.6g} spread {spread:7.4f} "
                  f"(bound {bound}){flag}  " + " ".join(f"{v:.4g}" for v in values))
        report["workloads"][workload] = {"end_to_end": figures}
        if args.baseline:
            seed = seeds_of(args.seeds)[0]
            result, bench_file = run(workload, seed, args.seconds, 1)
            status |= not result["correct"]
            report["workloads"][workload]["traced_seed"] = seed
            report["workloads"][workload]["per_layer"] = {
                k: m["value"] for k, m in result["metrics"].items()}
            shares = bench_file["details"]["pass_self_share"]
            report["workloads"][workload]["pass_self_share"] = {
                k: round(v, 4) for k, v in list(shares.items())[:12]}
    if args.baseline:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=ROOT).stdout.strip() or None
        report["commit"] = commit
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
