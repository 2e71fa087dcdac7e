#!/usr/bin/env python3
"""Entry point of the viaduct benchmark.

    python3 perfbench/run.py --workload fig_stress|pg1_char|pg5_mc \
        --seed N --seconds S --trace 0|1 [--smoke] [--perturb-reference]

Run from the root of a checkout. Builds the benchmark (the viaduct library
from src/ plus the benchmark program in perfbench/) into .bench_build/perfbench with
CMake in Release mode, then runs one workload as a closed-loop caller for
--seconds seconds. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced run (--trace 1). Records and span traces are written under
.bench_build/perfbench-run/. Exits non-zero, without a result line, when
the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD_DIR, "viaduct_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no viaduct sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "viaduct_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_digest():
    """sha256 over src/ (paths and contents): identifies the measured code
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fig_stress", "pg1_char", "pg5_mc"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced workload sizes (self-test)")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="scale reference values by 1+1e-3; the output check must fail")
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work-dir", WORK_DIR,
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if args.smoke:
        cmd.append("--smoke")
    if args.perturb_reference:
        cmd.append("--perturb-reference")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
