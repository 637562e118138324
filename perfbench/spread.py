"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, per metric, the median and the quartile spread (Q3 - Q1) as a
share of the median, next to a third of the metric's bound. Run from
the repository root:

    python3 perfbench/spread.py [--workload W ...] [--seeds 1,2,...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    a = ap.parse_args()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in a.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        results = []
        for s in seeds:
            r = run(spec["command"], w, s, spec["run_seconds"])
            ok = ok and r["correct"] and r["failed"] == 0
            results.append(r)
            print(f"{w} seed={s} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
        print(f"\n{w}: {len(seeds)} runs")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            line = f"  {name:34s} median {med:14.6g}"
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                line += f"  spread {spread:7.4f}"
                b = bounds.get(name)
                if b is not None:
                    line += f"  bound/3 {b / 3:6.4f}"
                    if name != "setup_s" and spread > b:
                        line += "  OVER BOUND"
                        ok = False
            print(line + "  [" + " ".join(f"{v:.4g}" for v in vals) + "]")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
