#!/usr/bin/env python3
"""Builds and runs the xcv / xcvd end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload verify_cold --seed 7 --seconds 20 --trace 0

It configures a Release build of the checkout's sources in .bench_build
(or $CARGO_TARGET_DIR), builds the xcvbench program, and runs it. Its
last stdout line is the JSON result; build output goes to stderr.
A missing --seed falls back to --default-seed.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_identity(root):
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds (the same tree gives the same id)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for sub in ("src", "apps"):
        files += sorted(p for p in (root / sub).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "xcvbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            print("e2ebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["verify_cold", "verify_warm", "serve_mix"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--default-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    bench_dir = pathlib.Path(__file__).resolve().parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        if not build(bench_dir, build_dir):
            return 1
    except subprocess.TimeoutExpired:
        print("e2ebench: build timed out", file=sys.stderr)
        return 1

    seed = args.seed if args.seed is not None else args.default_seed
    cmd = [str(build_dir / "xcvbench"),
           "--workload", args.workload,
           "--seed", str(seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--commit", source_identity(root),
           "--work-dir", str(build_dir / ("work-" + args.workload))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
