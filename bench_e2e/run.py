#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

    python3 bench_e2e/run.py --workload paper_pipeline --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The program is configured and built in
.bench_build/ (cmake, Release), scratch files go to .bench_build/tmp and
the full result (metrics, checks, host fingerprint) to
.bench_build/results/ unless --out names another file.  The binary's
output is echoed; the last line printed is one JSON object with the keys
correct, attempted, failed and metrics, holding every end_to_end metric
of BENCHMARK.json (--trace 0) or every per_layer metric (--trace 1).
The exit status is not 0, and no result line is printed, when the build
or the run fails or a listed metric is missing.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
BUILD = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "bench_e2e")


def parse_output(text):
    """`name value unit` lines -> {name: (value, unit)}, plus the status lines."""
    metrics, status = {}, {}
    for line in text.splitlines():
        tokens = line.split()
        if len(tokens) == 2 and tokens[0] in ("attempted", "failed", "correct"):
            status[tokens[0]] = tokens[1]
        elif len(tokens) == 3 and not line.startswith("#"):
            try:
                metrics[tokens[0]] = (float(tokens[1]), tokens[2])
            except ValueError:
                pass
    return metrics, status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", help="full result JSON (default under .bench_build/results)")
    args = parser.parse_args()

    with open(BENCHMARK) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    stem = os.path.join(BUILD, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", args.trace,
               "--tmp", os.path.join(BUILD, "tmp"), "--out", args.out or stem + ".json"]
    if args.trace == "1":
        command += ["--spans", stem + ".spans.json"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        print(f"run.py: bench_e2e exited with {run.returncode}", file=sys.stderr)
        return run.returncode if run.returncode > 0 else 1

    measured, status = parse_output(run.stdout)
    result = {"correct": status.get("correct") == "true",
              "attempted": int(status.get("attempted", "0")),
              "failed": int(status.get("failed", "0")),
              "metrics": {}}
    for metric in wanted:
        name = metric["name"]
        if name not in measured or measured[name][1] != metric["unit"]:
            print(f"run.py: metric {name} [{metric['unit']}] not reported", file=sys.stderr)
            return 1
        result["metrics"][name] = {"value": measured[name][0], "unit": metric["unit"]}
    if result["attempted"] < 1:
        print("run.py: no operation was attempted", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
