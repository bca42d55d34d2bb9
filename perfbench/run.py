#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload storm-1m|train-fig8|cluster-day
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root. The benchmark binary is built from source into
.bench_build/perfbench (Release, no sanitizer) on first use and rebuilt incrementally after.
Build output goes to stderr; the binary's stdout is passed through, and its last line is the
JSON result. Exits 2 without a result when the source tree or the build is unusable.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "stalloc_perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_to_stderr(cmd):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no simulator sources (CMakeLists.txt and src/ are required)")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release", "-DSTALLOC_SANITIZE=OFF"]
        if run_to_stderr(configure) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if run_to_stderr(["cmake", "--build", str(BUILD_DIR), "--target", "stalloc_perfbench",
                      "-j", jobs]) != 0:
        fail("build failed")


def source_digest():
    """sha256 over the simulator sources and build file: provenance when git is unavailable."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def main():
    build()
    scratch = BUILD_DIR / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), *sys.argv[1:], "--git-sha", git_sha(),
           "--source-digest", source_digest(), "--scratch", str(scratch)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
