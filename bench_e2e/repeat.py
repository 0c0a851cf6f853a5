#!/usr/bin/env python3
"""Repeats the benchmark over seeds and reports how steady each metric is.

    python3 bench_e2e/repeat.py --traced 1 --out bench_e2e/results/BENCH_<n>.json

Run from the root of a checkout.  Each of two sets runs every workload of
BENCHMARK.json once per seed 1..10 (workloads interleaved) through
run.py, untraced; --traced adds that many traced runs per workload.  For
every end-to-end metric it prints, per set, the median and the
interquartile range as a share of the median
(statistics.quantiles(values, n=4)), and how far the second set's median
moved from the first set's, each against the metric's bound in
BENCHMARK.json.  A spread over a third of its bound is marked: that is
the steadiness the benchmark is built to keep.  setup_s's spread is
reported but not held to its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, trace, out_path):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--out", out_path]
    run = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if run.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {run.returncode}")
    result = json.loads(run.stdout.strip().splitlines()[-1])
    with open(out_path) as f:
        full = json.load(f)
    return result, full


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    scratch = os.path.join(".bench_build", "repeat")
    os.makedirs(scratch, exist_ok=True)

    host = None
    sets = []
    for s in range(SETS):
        runs = {w: [] for w in workloads}
        for seed in SEEDS:
            for w in workloads:
                result, full = run_once(w, seed, 0, os.path.join(scratch, f"{w}-{seed}.json"))
                host = host or full["host"]
                if full["host"] != host:
                    print(f"warning: host fingerprint changed in {w} seed {seed}", file=sys.stderr)
                runs[w].append({"seed": seed, "correct": result["correct"],
                                "attempted": result["attempted"], "failed": result["failed"],
                                "metrics": {k: v["value"] for k, v in full["metrics"].items()}})
                print(f"set {s + 1} seed {seed} {w}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        sets.append(runs)

    traced = {w: [] for w in workloads}
    for seed in SEEDS[:args.traced]:
        for w in workloads:
            result, full = run_once(w, seed, 1, os.path.join(scratch, f"{w}-{seed}-traced.json"))
            traced[w].append({"seed": seed, "correct": result["correct"],
                              "metrics": {k: v["value"] for k, v in full["metrics"].items()}})

    summary = {}
    worst = 0.0
    print(f"{'workload':15} {'metric':18} " + " ".join(
        f"{'set' + str(i + 1) + ' median':>16} {'iqr/med':>8}" for i in range(SETS))
        + f" {'drift':>7} {'bound':>6}")
    for w in workloads:
        summary[w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r["metrics"][name] for r in runs[w]]) for runs in sets]
            first, last = stats[0][0], stats[-1][0]
            worse = (last - first) / first if metric["better"] == "lower" else (first - last) / first
            flags = []
            for med, iqr in stats:
                if name != "setup_s" and iqr > bound:
                    flags.append("SPREAD>BOUND")
                elif name != "setup_s" and iqr > bound / 3:
                    flags.append("spread>bound/3")
                if name != "setup_s":
                    worst = max(worst, iqr / bound)
            if worse > bound:
                flags.append("DRIFT>BOUND")
            summary[w][name] = {"medians": [m for m, _ in stats],
                                "iqr_frac": [i for _, i in stats],
                                "drift_worse_frac": worse, "bound": bound}
            print(f"{w:15} {name:18} " + " ".join(f"{m:16.6g} {i:8.4f}" for m, i in stats)
                  + f" {worse:+7.4f} {bound:6.2f} {' '.join(flags)}")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"schema": "qaoaml-bench-e2e-trajectory-v1",
                       "command": spec["command"], "run_seconds": spec["run_seconds"],
                       "host": host, "seeds": [SEEDS[0], SEEDS[-1]],
                       "summary": summary, "sets": sets, "traced": traced}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
