#!/usr/bin/env python3
"""Builds the service benchmark from this checkout and runs it.

Usage, from the root of a checkout:

    python3 servbench/run.py --workload fresh-104k --seed 1 --seconds 20 \
        --trace 0

Configures servbench/ (its CMake project builds the NELA libraries of the
enclosing checkout, optimised) into .bench_build/servbench, builds the
`servbench` binary, and runs it with the same arguments plus the run
metadata only this script can see (git commit, source tree digest). Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. Exits nonzero without printing a result when the build fails, for
instance in a directory that holds no NELA sources.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "servbench"
WORK_DIR = ROOT / ".bench_build" / "servbench-work"
# Trees whose contents the measured program (and this benchmark) is built
# from; their digest identifies the code when the checkout has no git.
SOURCE_TREES = ("CMakeLists.txt", "src", "tools", "servbench")


def build():
    """Configures (once) and builds servbench; returns the binary or None."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "servbench",
                  "nela_lint", "--parallel", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            print("servbench: build failed", file=sys.stderr)
            return None
    return BUILD_DIR / "servbench"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_sha():
    digest = hashlib.sha256()
    for tree in SOURCE_TREES:
        top = ROOT / tree
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts)
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--work_dir={WORK_DIR}",
               f"--git_commit={git_commit()}",
               f"--source_sha={source_sha()}"]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
