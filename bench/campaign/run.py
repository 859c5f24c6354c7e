#!/usr/bin/env python3
"""Build the campaign benchmark from source, then run it.

Run from the root of a serep checkout:

    python3 bench/campaign/run.py --workload paper_s --seed 1 --seconds 20 --trace 0
    python3 bench/campaign/run.py --out=BENCH_campaign.json --trace-out=bench_campaign.trace.json
    python3 bench/campaign/run.py --quick
    python3 bench/campaign/run.py --compare BASE.json NEW.json

serep and the bench_campaign harness are built (Release) into .bench_build/
at the checkout root; later runs reuse that tree, so only the first run pays
for the build. Build output goes to stderr, so the harness's result line
stays the last line of stdout. Every argument is passed to the harness
unchanged (bench_campaign.cpp documents them).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write(f"bench/campaign: {ROOT} is not a serep source "
                             f"tree (no {need}); nothing to build\n")
            return False
    steps = []
    # Configure once; `cmake --build` re-runs it when a CMakeLists changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", "bench_campaign"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("bench/campaign: build failed: "
                             + " ".join(cmd) + "\n")
            return False
    return True


def main():
    if not build():
        return 2
    harness = os.path.join(BUILD, "bench_campaign")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(harness, [harness] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
