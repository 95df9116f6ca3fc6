#!/usr/bin/env python3
"""Build and run the stackbench binary for one workload.

    python3 stackbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
stackbench/ (which compiles ../src) into .bench_build/stackbench; later
runs only re-check the build.  The binary's output is passed through: info
lines, a stamp line, and as the last line one JSON object with "correct",
"attempted", "failed" and "metrics".  The exit code is the binary's; a
failed build or a binary that dies or hangs exits non-zero with no result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "stackbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the stackbench target; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "stackbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def commit():
    """HEAD of the checkout when it is a git work tree, read from .git
    directly (no git process, nothing outside the checkout)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "none"


def source_digest():
    """SHA-256 over every file the binary is built from: names and bytes."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE, os.path.join(ROOT, "bench", "sweep_grid.hpp")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames.sort()
            files.extend(os.path.join(dirpath, n) for n in sorted(filenames))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        print("stackbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "stackbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("stackbench: binary exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    out = done.stdout.decode(errors="replace").splitlines()
    if done.returncode not in (0, 1) or not out:
        sys.stdout.write("".join(line + "\n" for line in out if not line.startswith("{\"correct\"")))
        print("stackbench: binary exited %d" % done.returncode, file=sys.stderr)
        return done.returncode or 1
    try:
        result = json.loads(out[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write("".join(line + "\n" for line in out[:-1]))
        print("stackbench: malformed result line", file=sys.stderr)
        return 1
    sys.stdout.write("".join(line + "\n" for line in out))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
