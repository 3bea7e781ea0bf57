#!/usr/bin/env python3
"""Build and run the estimation-stack benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the repository's libraries plus the benchmark) as
RelWithDebInfo, the repository's default build type, under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. The arguments are passed through
to the perfbench binary, which parses them strictly.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, target, "perfbench")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        return compiled.returncode

    args = sys.argv[1:]
    workload = "run"
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        workload = args[args.index("--workload") + 1]
    command = [os.path.join(build, "perfbench"), *args,
               "--model", os.path.join(here, "data", "macro.model"),
               "--trace-out", os.path.join(build, "trace-%s.json" % workload)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
