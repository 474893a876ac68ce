#!/usr/bin/env python3
"""Builds the nidkit end-to-end benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ospf-audit-cold --seed 1 \
        --seconds 12 --trace 0

The benchmark is built from source with CMake (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; cache
directories and trace files go to .bench_build/perfbench-work. The build is
incremental, so only the first run in a checkout compiles. All arguments are
passed through to the benchmark binary, whose last stdout line is the JSON
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_root, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", "2"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        return 1
    work = os.path.join(build_root, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:] + ["--work", work])


if __name__ == "__main__":
    sys.exit(main())
