#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads wide_spill,deep_chain --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out set1.json
    python3 perfbench/spread.py --compare set1.json set2.json

Runs the command from BENCHMARK.json (from the repository root) once per
workload and seed, and prints for every metric its median and the distance
between the first and third quartile as a share of the median; a spread at
or above a third of the metric's bound is marked. `--compare` checks a second
set's medians against a first set's with each metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace, command):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith(("FAILED", "FINDING")):
            print(f"  {workload} seed {seed}: {line}")
    result = json.loads(lines[-1])
    return result, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the raw results to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    if args.compare:
        first, second = (json.load(open(p)) for p in args.compare)
        worst_ok = True
        for w in first:
            for name, vals in first[w].items():
                m = metric_spec[name]
                if "bound" not in m or name not in second.get(w, {}):
                    continue
                a, b = statistics.median(vals), statistics.median(second[w][name])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                ok = worse <= m["bound"]
                worst_ok &= ok
                print(f"{w:<14} {name:<20} first {a:.6g} second {b:.6g} "
                      f"worse by {100 * worse:+.2f}% (bound {100 * m['bound']:.0f}%)"
                      f"{'' if ok else '  OUT OF BOUND'}")
        sys.exit(0 if worst_ok else 1)

    command = spec["command"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    raw = {}
    for w in workloads:
        raw[w] = {}
        times = []
        for seed in args.seeds:
            result, elapsed = run_once(spec, w, seed, args.trace, command)
            times.append(elapsed)
            if not result["correct"] or result["failed"]:
                print(f"  {w} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                raw[w].setdefault(name, []).append(m["value"])
        print(f"{w}: {len(args.seeds)} runs, {statistics.mean(times):.1f} s per run")
        for name, vals in raw[w].items():
            if len(vals) < 2:
                continue
            med, rel = spread(vals)
            bound = metric_spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and rel >= bound / 3:
                flag = f"  >= bound/3 ({bound / 3:.3f})"
            print(f"  {name:<30} median {med:<14.6g} spread {100 * rel:6.2f}%{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
