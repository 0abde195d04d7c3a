#!/usr/bin/env python3
"""Build and run one workload of the rfaas-sim benchmark.

    python3 perfbench/run.py --workload <hot-invoke|lease-churn|alloc-cycle> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The benchmark binary's standard output passes through: a
metric table, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. Traced runs (--trace 1) write their
Perfetto span file and self-time table under .bench_build/traces.

Exits non-zero, without a result line, when the build fails (for example
when the simulator sources are missing) or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD_DIR, "rfaas_bench")
WORKLOADS = ("hot-invoke", "lease-churn", "alloc-cycle")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            # Leave no half-configured tree behind for the next call.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 2

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    with subprocess.Popen(command, stdout=sys.stdout, stderr=sys.stderr) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"error: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
