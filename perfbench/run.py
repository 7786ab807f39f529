#!/usr/bin/env python3
"""Run one perfbench workload and print its result as one JSON line.

    python3 perfbench/run.py --workload burst|tpcc|crash_cycle \
        --seed N --seconds S --trace 0|1

Builds the library and the benchmark binary from source (an optimized
CMake build under .bench_build/perfbench), runs the workload, relays its
human-readable report, and prints as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, from
an untraced run. With --trace 1 they are the per-layer set: the workload
runs once untraced and once with the benchmark's host-clock spans on; the
per-layer numbers come from the traced run, bench.trace_overhead_pct
compares the measured CPU of the two, and bench.ledger_vs_untraced_pct
compares the traced run's span ledger with the untraced run's measured
CPU. Exits non-zero, printing no result, when the build or a run fails,
and exits 1 after printing the result when a correctness check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("burst", "tpcc", "crash_cycle")
RUN_TIMEOUT_S = 80  # per process; a traced result needs two within the 180 s limit

# The end-to-end metrics every workload reports, and which of the
# workload's own metrics fills each generic slot. The op slots hold what
# a user waits for beyond one sync write: on burst, a burst's backlog
# reaching the data disks (median and 90th percentile over ON/OFF
# cycles); on tpcc, a transaction; on crash_cycle, a remount.
E2E = ("setup_s", "ops_per_cpu_s", "peak_rss_mb", "sync_p50_ms", "sync_p99_ms",
       "op_p50_ms", "op_tail_ms", "throughput_per_min")
SLOTS = {
    "burst": {"op_p50_ms": "drain_ms", "op_tail_ms": "drain_p90_ms",
              "throughput_per_min": "writes_per_min"},
    "tpcc": {"op_p50_ms": "txn_p50_ms", "op_tail_ms": "txn_p99_ms",
             "throughput_per_min": "tpmc"},
    "crash_cycle": {"op_p50_ms": "mount_p50_ms", "op_tail_ms": "mount_p90_ms",
                    "throughput_per_min": "cycles_per_min"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; the build log goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def run_once(exe, args, traced):
    """Run the binary; relay its report and return its JSON result."""
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def end_to_end(result, workload):
    e2e = result["e2e"]
    slots = SLOTS[workload]
    return {name: {"value": e2e[slots.get(name, name)]["value"],
                   "unit": e2e[slots.get(name, name)]["unit"]} for name in E2E}


def per_layer(untraced, traced):
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in traced["layer"].items()}
    base = untraced["measured_cpu_s"]
    overhead = 100.0 * (traced["measured_cpu_s"] / base - 1.0) if base > 0 else 0.0
    metrics["bench.trace_overhead_pct"] = {"value": overhead, "unit": "%"}
    gap = 100.0 * (traced["ledger_s"] / base - 1.0) if base > 0 else 0.0
    metrics["bench.ledger_vs_untraced_pct"] = {"value": gap, "unit": "%"}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        exe = build()
        untraced = run_once(exe, args, traced=False)
        traced = run_once(exe, args, traced=True) if args.trace else None
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2

    runs = [untraced] + ([traced] if traced else [])
    correct = all(r["correct"] for r in runs)
    metrics = per_layer(untraced, traced) if traced else end_to_end(untraced, args.workload)
    print(json.dumps({"correct": correct, "attempted": untraced["attempted"],
                      "failed": untraced["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
