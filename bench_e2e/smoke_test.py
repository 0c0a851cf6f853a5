#!/usr/bin/env python3
"""Smoke test of bench_e2e (registered with ctest as bench_e2e_smoke).

Runs every workload of BENCHMARK.json at a tiny scale (--smoke, 1 s) with
tracing on and fails unless, for each one:
  - every end_to_end and per_layer metric is printed with its unit;
  - the correctness checks pass and no operation failed (this includes
    the probe's bit-for-bit comparison with the library solves);
  - the probe's spans account for at least 95% of its wall time;
  - every recorded span's parent exists;
  - the scratch directory is left empty;
  - paper_pipeline's fc_reduction_pct and output_digest are the same in
    a second, untraced run of the seed.
"""
import argparse
import json
import os
import subprocess
import sys


def run_smoke(binary, workload, workdir, tmp, trace):
    """Runs one tiny workload; returns (exit status, metrics, status lines, failed checks)."""
    spans_path = os.path.join(workdir, f"{workload}.spans.json")
    command = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--smoke", "--tmp", tmp, "--spans", spans_path,
               "--out", os.path.join(workdir, f"{workload}-trace{trace}.json")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=60)
    printed, status, failed_checks = {}, {}, []
    for line in run.stdout.splitlines():
        tokens = line.split()
        if len(tokens) == 3 and not line.startswith("#"):
            printed[tokens[0]] = (tokens[1], tokens[2])
        elif len(tokens) == 2:
            status[tokens[0]] = tokens[1]
        if line.startswith("# CHECK FAILED"):
            failed_checks.append(line[2:])
    return run.returncode, printed, status, failed_checks


def check_workload(binary, spec, workload, workdir):
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spans_path = os.path.join(workdir, f"{workload}.spans.json")
    returncode, printed, status, problems = run_smoke(binary, workload, workdir, tmp, 1)
    if returncode != 0:
        return [f"exit status {returncode}"]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        got = printed.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} not printed")
        elif got[1] != metric["unit"]:
            problems.append(f"metric {metric['name']} printed in {got[1]}, not {metric['unit']}")
    if status.get("correct") != "true" or status.get("failed") != "0":
        problems.append(f"correct={status.get('correct')} failed={status.get('failed')}")
    cover = float(printed.get("probe.cover_pct", ("0", "%"))[0])
    if cover < 95.0:
        problems.append(f"probe spans cover {cover:.1f}% of its wall time (< 95%)")

    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    ids = {s["id"] for s in spans}
    orphans = [s for s in spans if s["parent"] != 0 and s["parent"] not in ids]
    if not spans:
        problems.append("no spans recorded")
    if orphans:
        problems.append(f"{len(orphans)} spans name a parent that was not recorded")
    if os.listdir(tmp):
        problems.append(f"scratch files left behind: {os.listdir(tmp)}")

    if workload == "paper_pipeline":
        # The headline and the digest read a fixed set of graphs: an
        # untraced run of the same seed must print them digit for digit.
        returncode, again, again_status, _ = run_smoke(binary, workload, workdir, tmp, 0)
        if returncode != 0:
            problems.append(f"untraced run: exit status {returncode}")
        for name, first, second in (
                ("fc_reduction_pct", printed.get("fc_reduction_pct"), again.get("fc_reduction_pct")),
                ("output_digest", status.get("output_digest"), again_status.get("output_digest"))):
            if first is None or first != second:
                problems.append(f"{name} differs between two runs of seed 1: {first} / {second}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    os.makedirs(args.workdir, exist_ok=True)
    failed = False
    for workload in spec["workloads"]:
        problems = check_workload(args.binary, spec, workload["name"], args.workdir)
        for problem in problems:
            print(f"{workload['name']}: {problem}")
        print(f"{workload['name']}: {'FAIL' if problems else 'ok'}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
