#!/usr/bin/env python3
"""End-to-end benchmark: builds perfbench_e2e from source and runs one workload.

    python3 perfbench/run.py --workload resnet18-b1 --seed 1 --seconds 10 --trace 0

Builds the library and the perfbench_e2e binary into .bench_build/ at the
repository root, then runs the binary. An untraced run (--trace 0) sets up SETUP_REPEATS times, each in
a fresh process with a fresh native cache, and reports the median set-up time with
the end-to-end metrics of the last, measured run. A traced run (--trace 1) reports
the per-layer metrics and writes its spans to .bench_build/traces/<workload>.json.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it is the host fingerprint. The exit code is non-zero on any
wrong output, failed build or hang.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20

runs every workload, untraced then traced, and ends with one combined result.

    python3 perfbench/run.py --record-oracle --seed 1

runs ResNet-18 on the reference interpreter (about a minute) and stores its output
checksum in perfbench/oracle.json, which later runs on that seed must match.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench_e2e"
ORACLE = HERE / "oracle.json"
WORKLOADS = ("resnet18-b1", "mlp-serve-open", "mlp-serve-shm")
SETUP_REPEATS = 3
# Every run of the command must end within this many seconds once built.
DEADLINE_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "-j", str(nproc()), "--target", "perfbench_e2e"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def invoke(args, index, deadline):
    """Runs perfbench_e2e once; returns its non-empty stdout lines and exit code."""
    work = BUILD / "work" / f"{os.getpid()}-{index}"
    cmd = [str(BINARY), "--work-dir", str(work)] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench_e2e timed out: " + " ".join(cmd))
        sys.exit(3)
    finally:
        # perfbench_e2e removes both itself; this covers a crash.
        shutil.rmtree(work, ignore_errors=True)
        arena = Path("/dev/shm") / f"tvmcpp_perfbench_{proc.pid}"
        if arena.exists():
            arena.unlink()
    return [line for line in out.splitlines() if line.strip()], proc.returncode


def run_binary(args, index, deadline):
    """Runs perfbench_e2e once; returns (host, result, exit code)."""
    lines, code = invoke(args, index, deadline)
    if code not in (0, 1) or len(lines) < 2:
        log(f"perfbench_e2e failed with exit code {code}")
        sys.exit(3)
    return json.loads(lines[-2])["host"], json.loads(lines[-1]), code


def native_cc():
    try:
        out = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout
        return out.splitlines()[0] if out else "unknown"
    except OSError:
        return "unknown"


def oracle_args(workload, seed):
    if not ORACLE.exists():
        return []
    entry = json.loads(ORACLE.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return []
    return ["--oracle-fnv", entry["fnv1a64"]]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(workload, seed, seconds, trace):
    """One workload, untraced or traced; returns (host, result)."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    runs = []
    if trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_out = trace_dir / f"{workload}.json"
        runs.append(run_binary(base + oracle_args(workload, seed) +
                               ["--seconds", str(seconds), "--trace", "1",
                                "--trace-out", str(trace_out)], 0, deadline))
        log(f"trace written to {trace_out}")
    else:
        for i in range(SETUP_REPEATS - 1):
            runs.append(run_binary(base + ["--seconds", "0", "--trace", "0"], i, deadline))
        runs.append(run_binary(base + oracle_args(workload, seed) +
                               ["--seconds", str(seconds), "--trace", "0"],
                               SETUP_REPEATS, deadline))

    host, last, _ = runs[-1]
    metrics = dict(last["metrics"])
    if not trace:
        setups = [r["metrics"]["setup_s"]["value"] for _, r, _ in runs]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    missing = [m for m in expected_metrics(trace) if m not in metrics]
    if missing:
        log("perfbench_e2e did not report " + ", ".join(missing))
        sys.exit(3)
    host["native_cc"] = native_cc()
    return host, {
        "correct": all(r["correct"] and code == 0 for _, r, code in runs),
        "attempted": sum(r["attempted"] for _, r, _ in runs),
        "failed": sum(r["failed"] for _, r, _ in runs),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="resnet18-b1")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-oracle", action="store_true")
    a = p.parse_args()

    build()
    if a.record_oracle:
        lines, code = invoke(["--workload", "resnet18-b1", "--seed", str(a.seed),
                              "--record-oracle"], 0, time.monotonic() + 600)
        if code != 0 or not lines:
            log("recording the oracle failed")
            return 3
        entry = json.loads(lines[-1])
        ORACLE.write_text(json.dumps({entry["workload"]: {
            "seed": entry["seed"], "fnv1a64": entry["fnv1a64"]}}, indent=2) + "\n")
        print(lines[-1])
        return 0

    if a.workload != "all":
        host, result = measure(a.workload, a.seed, a.seconds, a.trace)
        print(json.dumps({"host": host}))
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    # Every workload, untraced then traced: one line each, then the combined result
    # with metrics named <workload>/<metric>.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            host, result = measure(workload, a.seed, a.seconds, trace)
            print(json.dumps({"workload": workload, "trace": trace, **result}), flush=True)
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}/{name}"] = m
    del host["workload"]
    print(json.dumps({"host": host}))
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
