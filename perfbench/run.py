#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload (or all).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/, and is
reused by later runs. The binary's output is passed through; its last line
is the JSON result. `--workload all` runs fleet, faults, plan and wire in
turn and ends with one JSON line whose metrics are keyed
"<workload>.<metric>". The exit code is non-zero when the build fails or
any workload's correctness checks fail.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["fleet", "faults", "plan", "wire"]
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(["ninja", "--version"], capture_output=True).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def run_one(binary, scratch, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed last JSON line or None)."""
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--scratch-dir", scratch]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return process.returncode, (lines, result)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, output = run_one(binary, scratch, workload, args.seed, args.seconds, args.trace)
        if output is None or output[1] is None:
            return code or 1
        lines, result = output
        if args.workload != "all":
            print("\n".join(lines))
            return code
        print("\n".join(lines[:-1]))
        status = status or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
