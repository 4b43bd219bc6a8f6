#!/usr/bin/env python3
"""Builds and runs the spatial-server benchmark (see spbench/NOTES.md).

Run from the root of a checkout:

    python3 spbench/run.py --workload browse --seed 1 --seconds 10 --trace 0

Builds spbench/ (which compiles the jackpine sources under src/) into
.bench_build/spbench, then runs it with the given arguments. Build output
goes to stderr; the benchmark's report goes to stdout and its last line is
the JSON result. Exits non-zero, without a result, when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "spbench")
WORK = os.path.join(ROOT, ".bench_build", "spbench-work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(ROOT, "spbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "spbench", "-j",
           str(min(4, os.cpu_count() or 1))]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def source_id():
    """The git commit, or outside git a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "spbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    if not build():
        log("build failed")
        return 1
    cmd = [os.path.join(BUILD, "spbench")] + sys.argv[1:] + [
        "--work-dir", WORK, "--git-sha", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish in {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
