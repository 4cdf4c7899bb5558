#!/usr/bin/env python3
"""Builds and runs the end-to-end OKWS benchmark (perfbench/okws_e2e.cc).

Run from the repository root:

    python3 perfbench/run.py --workload hot_echo --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload prints its human-readable report and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
`--workload all` runs every workload in both modes and prints one combined
object whose metric names are prefixed with the workload.

The library is compiled from ../src into $CARGO_TARGET_DIR (default
.bench_build) as an optimized build; store directories, result records and
span dumps go under the same directory.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "okws", "okws_world.cc")):
        fail("no program sources under %s/src; nothing to benchmark" % ROOT)
    cmake_dir = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "--target", "okws_e2e",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "okws_e2e")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_one(binary, build_dir, spec, args, workload, trace):
    scratch = os.path.join(build_dir, "scratch", "%d-%s" % (os.getpid(), workload))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--scratch", scratch, "--out", os.path.join(build_dir, "results"),
           "--commit", git_commit()]
    # Its own process group, so a timeout also stops the per-round processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    if not result["correct"]:
        print("perfbench: %s failed its output checks" % workload, file=sys.stderr)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        fail("%s reported metrics %s, BENCHMARK.json declares %s"
             % (workload, sorted(result["metrics"]), sorted(declared)))
    return lines[:-1], result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    if args.workload != "all":
        report, result = run_one(binary, build_dir, spec, args, args.workload, args.trace)
        print("\n".join(report))
        print(json.dumps(result))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        for trace in (0, 1):
            report, result = run_one(binary, build_dir, spec, args, workload, trace)
            print("== %s (trace %d)" % (workload, trace))
            print("\n".join(report))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"]["%s.%s" % (workload, name)] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
