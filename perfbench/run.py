#!/usr/bin/env python3
"""Build the perfbench binary from the enclosing qcut tree and run one workload.

    python3 perfbench/run.py --workload ansatz5-run --seed 1 --seconds 30 --trace 0

Run from the root of the source tree. The first call configures and builds
the library and the perfbench binary (Release) into .bench_build/perfbench;
later calls only re-check the build. Build output goes to stderr, so the last
line of stdout is the JSON result. With --trace 1 the spans of the replay are
written as a Chrome trace to .bench_build/work/<workload>-seed<seed>.json.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no qcut source tree (CMakeLists.txt and src/) next to " + HERE)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if subprocess.call(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    os.makedirs(WORK, exist_ok=True)
    sys.stdout.flush()
    code = subprocess.call([binary, *sys.argv[1:], "--work-dir", WORK], cwd=ROOT)
    sys.exit(code)


if __name__ == "__main__":
    main()
