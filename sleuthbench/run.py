#!/usr/bin/env python3
"""Build and run the Sleuth benchmark.

Run from the root of a checkout:

    python3 sleuthbench/run.py --workload storm_batch --seed 1 \
        --seconds 40 --trace 0

The first call configures and builds the benchmark (Release) from the
sources in the checkout into .bench_build/sleuthbench; later calls only
rebuild what changed. The build's output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Run files (durable data
directories, trace JSON of traced runs) go to .bench_out/.

Exit status: the benchmark's (0 when every correctness check passed),
or nonzero without a result when the build fails.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "sleuthbench")
BUILD = os.path.join(ROOT, ".bench_build", "sleuthbench")
BINARY = os.path.join(BUILD, "sleuthbench")


def build():
    """Configure once, then build incrementally; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Concurrent runs in one checkout share the build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "sleuthbench"])
        # Compiler temporaries stay inside the checkout too.
        tmp = os.path.join(BUILD, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, cwd=ROOT, env=env,
                                      stdout=sys.stderr, stderr=sys.stderr)
            except OSError as err:
                print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
                return False
    return True


def main():
    if not build():
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([BINARY, *sys.argv[1:], "--out", out_dir],
                          cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
