#!/usr/bin/env python3
"""Builds and runs the image-lifecycle benchmark.

    python3 lifecycle_bench/run.py --workload fresh|update --seed N \
        --seconds S --trace 0|1

Run from the repository root. Each call configures and builds the
benchmark (and the libraries it links, from ../src) into
$CARGO_TARGET_DIR/lifecycle, or .bench_build/lifecycle when that is unset;
only the first call compiles everything. Build output goes to stderr. The
benchmark's own result line is the last line printed on stdout; the exit
code is the benchmark's (1 when a correctness check failed), or 1 with no
result when the build fails.

With --trace 0, setup_s is the median over SETUP_PROCESSES processes of each
one's start to its first timed round: SETUP_PROCESSES - 1 processes that only
set up (--setup-only 1), run one after another before the measured run, and
the measured run itself. One-time start-up costs count in every sample.
"""
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 5
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "lifecycle")


def build(directory):
    """Configures and builds the benchmark binary. Returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", directory, "--target", "lifecycle", "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("lifecycle_bench: build step failed: " + " ".join(step), file=sys.stderr)
            return None
    binary = os.path.join(directory, "lifecycle")
    return binary if os.path.exists(binary) else None


def setup_samples(binary, argv, deadline):
    """Set-up times of SETUP_PROCESSES - 1 set-up-only processes, or None."""
    samples = []
    for _ in range(SETUP_PROCESSES - 1):
        result = subprocess.run([binary] + argv + ["--setup-only", "1"],
                                stdout=subprocess.PIPE, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            return None
        samples.append(json.loads(lines[-1])["setup_s"])
    return samples


def main(argv):
    binary = build(build_dir())
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    untraced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["0"]
    try:
        setups = setup_samples(binary, argv, deadline) if untraced else []
        if setups is None:
            print("lifecycle_bench: a set-up-only process failed", file=sys.stderr)
            return 1
        result = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True,
                                timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("lifecycle_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = result.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if result.returncode == 2 or not lines:
        return result.returncode or 1
    try:
        parsed = json.loads(lines[-1])
    except json.JSONDecodeError:
        parsed = None
    if not isinstance(parsed, dict) or set(parsed) != RESULT_KEYS:
        print("lifecycle_bench: malformed result line: " + lines[-1], file=sys.stderr)
        return 1
    if setups:
        setup = parsed["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    print(json.dumps(parsed), flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
