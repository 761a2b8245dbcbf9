#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (Release, incremental). Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: non-zero when the build fails, the arguments
are wrong, or any result differs from its reference.
"""

import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; True when it exits 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd, BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs],
                     BUILD_TIMEOUT_S)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources, for non-git trees."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_benchmark(args, timeout=RUN_TIMEOUT_S):
    """Runs the built binary; returns (exit code, stdout)."""
    cmd = [BINARY, *args, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: timed out after {timeout}s\n")
        return 1, ""
    return proc.returncode, proc.stdout


def main(argv):
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1
    code, out = run_benchmark(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
