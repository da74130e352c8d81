#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Runs one workload several times, each with another --seed, and prints for
each metric its median and quartile spread: (q3 - q1) / median, with
q1 and q3 from statistics.quantiles(values, n=4). Bounds come from
BENCHMARK.json; a spread below a third of its bound is steady.

    python3 perfbench/spread.py --workload attach --runs 10
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    raw = next((l for l in lines if l.startswith("raw ")), None)
    if raw:
        for k, v in json.loads(raw[4:]).items():
            result["metrics"]["raw." + k] = {"value": v, "unit": ""}
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = []
    for i in range(args.runs):
        r = run_once(args.workload, args.first_seed + i, args.seconds, 0)
        if not r["correct"]:
            sys.exit(f"seed {args.first_seed + i}: run reported correct=false")
        results.append(r)
        print(f"seed {args.first_seed + i}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)

    spreads = {}
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s")
    print(f"{'metric':<16} {'median':>14} {'spread':>8} {'bound':>6}  steady")
    for name in results[0]["metrics"]:
        med, sp = spread([r["metrics"][name]["value"] for r in results])
        spreads[name] = sp
        bound = bounds.get(name, 0)
        verdict = "yes" if sp < bound / 3 else ("within bound" if sp <= bound else "NO")
        if name == "setup_s":
            verdict = "(not checked)"
        if name.startswith("raw."):
            verdict = "(printed, not a metric)"
        print(f"{name:<16} {med:>14.6g} {sp:>8.4f} {bound:>6}  {verdict}")
    if "raw.wall_s" in spreads and "wall_rel" in spreads:
        narrower = spreads["wall_rel"] < spreads["raw.wall_s"]
        print(f"prediction: wall_rel spread narrower than raw wall_s: "
              f"{'met' if narrower else 'NOT met'}")


if __name__ == "__main__":
    main()
