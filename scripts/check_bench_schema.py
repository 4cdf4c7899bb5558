#!/usr/bin/env python3
"""Schema-stability check for the tracked BENCH_*.json files.

The benchmark JSON files checked in at the repo root (and uploaded as CI
artifacts from the Release --smoke run) are consumed by downstream tooling
that plots trends across commits, so their *shape* is part of the repo's
contract: every file must carry the google-benchmark context block, every
benchmark entry must have a name / real_time / iterations, and the
per-file counters that the paper's figures are reconstructed from must not
silently disappear when a bench is refactored.

Usage:
    python3 scripts/check_bench_schema.py BENCH_labels.json BENCH_store.json ...

With no arguments, checks the BENCH_*.json files at the repo root.
Exits nonzero with one line per violation.
"""

import glob
import json
import os
import sys

# Keys every google-benchmark output file must carry.
REQUIRED_TOP_LEVEL = ["context", "benchmarks"]
REQUIRED_CONTEXT = ["date", "num_cpus", "caches"]
REQUIRED_PER_BENCHMARK = ["name", "real_time", "cpu_time", "iterations", "time_unit"]

# Per-file contract: counters that at least one benchmark entry in the file
# must expose. These are the fields downstream plots key on; renaming one
# in a bench refactor must show up as a CI failure, not a silent gap.
REQUIRED_COUNTERS = {
    "BENCH_labels.json": ["charged_work_per_check", "cache_hit_rate"],
    "BENCH_store.json": ["pickled_bytes", "bytes_per_second"],
    "BENCH_replication.json": [
        "cache_hit_rate",
        "records_applied",
        "reads_per_sec_aggregate",
        "refusal_rate",
    ],
    "BENCH_ipc.json": ["virtual_cycles_per_msg", "bytes_shared_saved_per_msg"],
    "BENCH_scale.json": [
        "bytes_per_user",
        "users",
        "session_bytes",
        "binding_bytes",
        "handle_table_bytes",
        "session_parks",
        "session_resumes",
    ],
}

# Metrics-registry snapshots written next to the benchmark JSON (see
# README "Observability"). Each must contain these key *prefixes* — the
# families the bench actually exercises, which therefore must not vanish
# in a refactor. (Families a bench never links, e.g. the cycle clock in
# bench_store, are legitimately absent: the static library drops unused
# objects and their gauge registrations with them.)
REQUIRED_METRIC_FAMILIES = {
    "BENCH_labels.metrics.json": ["kernel.label_cache.", "labels.intern."],
    "BENCH_store.metrics.json": ["store.", "labels.intern."],
    "BENCH_replication.metrics.json": ["repl.", "store.", "cycles.", "kernel.mem."],
    "BENCH_ipc.metrics.json": ["kernel.sys.", "kernel.mem.", "payload."],
    "BENCH_scale.metrics.json": [
        "kernel.mem.",
        "okws.request_cycles.",
        "netd.",
        "labels.intern.",
        "store.",
    ],
    # The release-job demo smoke runs the full OKWS suite with the cycle
    # profiler and provenance ledger ON, so its snapshot must carry the
    # observability-plane families on top of the kernel/okws ones.
    "DEMO_okws.metrics.json": [
        "kernel.stats.",
        "okws.",
        "obs.prof.sys.",
        "obs.ledger.",
    ],
}


def check_bench_file(path, errors):
    base = os.path.basename(path)
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"{base}: unreadable or invalid JSON: {e}")
        return

    for key in REQUIRED_TOP_LEVEL:
        if key not in data:
            errors.append(f"{base}: missing top-level key '{key}'")
    if "context" in data:
        for key in REQUIRED_CONTEXT:
            if key not in data["context"]:
                errors.append(f"{base}: context missing key '{key}'")

    benchmarks = data.get("benchmarks", [])
    if not benchmarks:
        errors.append(f"{base}: no benchmark entries")
        return
    for bench in benchmarks:
        # Complexity aggregates (BigO / RMS rows) legitimately drop the
        # timing keys; only plain iteration rows must carry them all.
        if bench.get("run_type") == "aggregate":
            continue
        for key in REQUIRED_PER_BENCHMARK:
            if key not in bench:
                name = bench.get("name", "<unnamed>")
                errors.append(f"{base}: benchmark '{name}' missing key '{key}'")

    seen = set()
    for bench in benchmarks:
        seen.update(bench.keys())
    for counter in REQUIRED_COUNTERS.get(base, []):
        if counter not in seen:
            errors.append(f"{base}: no benchmark exposes required counter '{counter}'")

    if base == "BENCH_scale.json":
        check_scale_rows(base, benchmarks, errors)


def check_scale_rows(base, benchmarks, errors):
    """The flat-memory claim is read straight off the BM_ScaleUsers rows,
    so *every* row in that family (not just one) must carry a positive
    numeric bytes_per_user and users — a row that drops them would make
    the per-decade ratio silently unverifiable."""
    rows = 0
    for bench in benchmarks:
        if not bench.get("name", "").startswith("BM_ScaleUsers"):
            continue
        if bench.get("run_type") == "aggregate":
            continue
        rows += 1
        name = bench.get("name", "<unnamed>")
        for counter in ("bytes_per_user", "users"):
            value = bench.get(counter)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(
                    f"{base}: '{name}' counter '{counter}' is not numeric: {value!r}")
            elif value <= 0:
                errors.append(
                    f"{base}: '{name}' counter '{counter}' must be > 0, got {value}")
    if rows == 0:
        errors.append(f"{base}: no BM_ScaleUsers rows found")


def check_metrics_file(path, errors):
    base = os.path.basename(path)
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        errors.append(f"{base}: unreadable or invalid JSON: {e}")
        return
    if not isinstance(data, dict) or not data:
        errors.append(f"{base}: expected a non-empty flat JSON object")
        return
    # The registry snapshot is strictly flat name -> number; anything else
    # means a producer leaked structure into the plane.
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"{base}: metric '{key}' is not a number: {value!r}")
    for prefix in REQUIRED_METRIC_FAMILIES.get(base, []):
        if not any(key.startswith(prefix) for key in data):
            errors.append(f"{base}: no metric under required family '{prefix}'")


def main(argv):
    paths = argv[1:]
    if not paths:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print("check_bench_schema: no BENCH_*.json files found", file=sys.stderr)
        return 1

    errors = []
    checked = 0
    for path in paths:
        base = os.path.basename(path)
        if base.endswith(".metrics.json"):
            check_metrics_file(path, errors)
        else:
            check_bench_file(path, errors)
        checked += 1

    for err in errors:
        print(f"check_bench_schema: {err}", file=sys.stderr)
    if errors:
        return 1
    print(f"check_bench_schema: {checked} file(s) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
