#!/usr/bin/env python3
"""Builds the end-to-end benchmark (Release) and runs one workload.

    python3 vrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); each run gets a fresh pid-qualified directory under .bench_run
for its store roots, outputs and worker sockets, removed afterwards. The last
line of standard output is the result JSON; the line before it is the run
record (envelope, every metric with its kind, notes). See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Environment switches that would change what a timed run measures.
SCRUBBED_ENV = ("VR_TRACE", "VR_TRACE_PATH", "VR_METRICS", "VR_QUICK")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns its build dir."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "vrbench-release")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    compile_ = ["cmake", "--build", build_dir, "--target", "vrbench", "vr_worker",
                "-j", "4"]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = build()
    if build_dir is None:
        log("vrbench: build failed")
        return 2

    run_dir = os.path.join(".bench_run", str(os.getpid()))
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    # Worker sockets go under the run directory (a path relative to the
    # checkout keeps it short enough for a Unix socket address).
    env["TMPDIR"] = run_dir
    env["VR_WORKER_BINARY"] = os.path.join(build_dir, "src", "vr_worker")
    command = [os.path.join(build_dir, "vrbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", run_dir, "--git-sha", git_sha()]
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log("vrbench: run timed out")
        return 2
    finally:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_run"))
        except OSError:
            pass

    lines = stdout.strip().splitlines()
    if process.returncode not in (0, 1) or not lines:
        log("vrbench: run failed with exit code", process.returncode)
        return process.returncode or 2
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("vrbench: metrics differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ expected))
        return 2
    print("\n".join(lines), flush=True)
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
