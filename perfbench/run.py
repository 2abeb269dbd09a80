#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload apps|fib|bursts|sim \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune inside the checkout (the shared dune
cache is disabled, so nothing is written outside it), then runs it with
one domain per available core. The program's standard output is passed
through unchanged; its last line is the result object. Exits non-zero,
printing no result, when the repository sources are missing or the build
or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXE = ROOT / "_build" / "default" / "perfbench" / "main.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        print("perfbench: the repository sources (dune-project, lib/) are missing", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", str(ROOT), "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    try:
        run = subprocess.run([str(EXE), *sys.argv[1:], "--nproc", str(nproc)],
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run did not finish in time", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
