#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <wire_mixed|wire_unique> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the repository's own
sources) into .bench_build/perfbench; later runs only check the build is
current.  Build output goes to stderr, so the last line of standard output
is the benchmark's JSON record.  See perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def step(command, timeout):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    if done.returncode != 0:
        fail("failed: " + " ".join(command))


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", SOURCE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    step(["cmake", "--build", BUILD, "-j", "4"], 840)


def commit():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def main():
    os.chdir(ROOT)
    build()
    command = [BINARY] + sys.argv[1:] + ["--commit", commit()]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
