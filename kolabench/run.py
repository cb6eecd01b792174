#!/usr/bin/env python3
"""Builds the KOLA benchmark from this checkout's sources and runs one workload.

    python3 kolabench/run.py --workload compile|execute|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`.bench_build/kolabench` (Release); later runs rebuild incrementally. The
last line of standard output is the result object printed by the kolabench
binary; build output goes to standard error. A traced run also writes its
spans to `.bench_build/traces/<workload>-seed<N>.json`.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "kolabench")
BINARY = os.path.join(BUILD, "kolabench")
WORKLOADS = ("compile", "execute", "serve")
RUN_TIMEOUT_S = 170


def fail(message):
    print("kolabench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    for top in ("src", "kolabench"):
        base = os.path.join(ROOT, top)
        for directory, dirs, files in sorted(os.walk(base)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    # Only consult git for a repository rooted here, so nothing outside the
    # checkout is read.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def configured_here():
    """True when BUILD holds a CMake cache made for this checkout's sources."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no KOLA sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    scratch = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_here():
            # A missing cache, or one copied from another checkout.
            shutil.rmtree(BUILD, ignore_errors=True)
            os.makedirs(BUILD)
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"] + generator
            if subprocess.run(configure, stdout=sys.stderr,
                              env=env).returncode != 0:
                fail("configure failed")
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        command = ["cmake", "--build", BUILD, "--target", "kolabench",
                   "-j", jobs]
        if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
