#!/usr/bin/env python3
"""Fed-MS benchmark: build the harness, run one workload, print the result.

Run from the repository root:

    python3 perfbench/run.py --workload paper-table2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ps-wire --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --self-test

The first call configures and builds a Release tree of the harness and the
library targets it links under .bench_build/ (tests, examples and figure
benches stay off); later calls only rebuild what changed. Every run prints
two JSON lines on stdout: a detail line (environment fingerprint, check
verdicts, workload make-up, raw per-round samples) and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "fedms_perfbench")
WORKLOADS = ("mobilenet-train", "paper-table2", "defense-matrix", "ps-wire")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO, needed)):
            fail(f"{needed} not found next to perfbench/; run from a full "
                 "checkout of the repository")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", "fedms_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def read_text(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def fingerprint():
    cpu = "unknown"
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = {}
    for line in (read_text(os.path.join(BUILD, "CMakeCache.txt")) or
                 "").splitlines():
        if "=" in line and ":" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
        "governor": read_text(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") or
        "unreadable",
    }


def declared_metrics(trace):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every correctness check on a planted bad "
                             "input and expect it to be rejected")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        sys.exit(subprocess.run([HARNESS, "--self-test"], cwd=REPO,
                                timeout=HARNESS_TIMEOUT_S).returncode)

    command = [HARNESS, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        run = subprocess.run(command, cwd=REPO, stdout=subprocess.PIPE,
                             text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {HARNESS_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"harness exited with {run.returncode}")
    result = json.loads(run.stdout.strip().splitlines()[-1])

    expected = declared_metrics(args.trace == 1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        fail(f"harness metrics {sorted(printed.items())} differ from "
             f"BENCHMARK.json {sorted(expected.items())}")

    result["fingerprint"] = fingerprint()
    print(json.dumps(result))
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
