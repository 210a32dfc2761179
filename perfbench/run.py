#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload recipe_g64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script builds the benchmark program
(perfbench/CMakeLists.txt, which builds the odonn library from src/) into
.bench_build/perfbench, runs it with the workload's parameters from
perfbench/workloads.json, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where metrics holds every end_to_end metric of BENCHMARK.json (--trace 0)
or every per_layer metric (--trace 1). The full record (checks, digests,
per-round figures, provenance) is kept in .bench_build/records/, and a
traced run's spans in .bench_build/traces/ as Chrome-trace JSON.

Exit status: 0 when every correctness check passed, 1 when a check failed
or the build or run failed, 2 on bad arguments.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RECORD_DIR = ROOT / ".bench_build" / "records"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def stop_on_signal(signum, _frame):
    """SIGTERM/SIGINT: leave via SystemExit so run_process stops its child."""
    raise SystemExit(128 + signum)


def run_process(cmd, timeout_s, env=None, stdout=None):
    """Runs cmd in its own process group. The whole group is killed and
    waited for on timeout, and when this script is itself stopped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            stderr=sys.stderr, start_new_session=True,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {timeout_s} s: {' '.join(cmd)}")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return proc.returncode, out


def build():
    """Configures (once) and builds the program; returns the binary path."""
    started = time.monotonic()
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        rc, _ = run_process(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=Release"],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    rc, _ = run_process(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs], remaining, stdout=sys.stderr)
    if rc != 0:
        raise RuntimeError("build failed")
    return BUILD_DIR / "perfbench"


def program_args(workload, params, args, record, trace_file):
    argv = [f"workload={workload}", f"seed={args.seed}",
            f"seconds={args.seconds}", f"trace={args.trace}",
            f"record={record}", f"trace_file={trace_file}"]
    argv += [f"{key}={value}" for key, value in params.items()]
    return argv


def result_line(record, spec, trace):
    """The contract's result object: every metric the run must report."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = record.get("metrics", {})
    metrics = {}
    correct = bool(record.get("correct"))
    for metric in wanted:
        name = metric["name"]
        entry = have.get(name)
        value = entry.get("value") if entry else None
        if (value is None or not math.isfinite(value)
                or entry.get("unit") != metric["unit"]):
            log(f"metric {name} missing, non-finite or in the wrong unit")
            correct = False
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    return {"correct": correct, "attempted": int(record.get("attempted", 0)),
            "failed": int(record.get("failed", 0)), "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGINT, stop_on_signal)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names or args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
        return 2
    if args.seconds <= 0:
        log("--seconds must be positive")
        return 2

    try:
        binary = build()
    except RuntimeError as err:
        log(str(err))
        return 1

    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = RECORD_DIR / f"{tag}.json"
    trace_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    record_path.unlink(missing_ok=True)

    env = dict(os.environ)
    # The pool's workers plus the calling thread stay within nproc.
    env.setdefault("ODONN_THREADS", str(max(1, (os.cpu_count() or 1) - 1)))
    cmd = [str(binary)] + program_args(args.workload, workloads[args.workload],
                                      args, record_path, trace_path)
    try:
        rc, out = run_process(cmd, RUN_TIMEOUT_S, env=env,
                              stdout=subprocess.PIPE)
    except RuntimeError as err:
        log(str(err))
        return 1
    sys.stdout.write(out)
    if not record_path.exists():
        log(f"perfbench exited {rc} without writing a record")
        return 1
    result = result_line(json.loads(record_path.read_text()), spec, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if rc == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
