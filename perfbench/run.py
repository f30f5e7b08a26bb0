#!/usr/bin/env python3
"""Build and run the end-to-end simulator benchmark.

    python3 perfbench/run.py --workload serving --seed 42 --seconds 25 --trace 0

Run from the repository root. Configures and builds perfbench/ (a CMake
project that compiles ../src) in Release mode under $CARGO_TARGET_DIR
(default .bench_build), then runs tmo_bench and relays its
report. The last line of standard output is tmo_bench's JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Build output goes to standard error. Exits non-zero without a result
when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; returns the tmo_bench path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "tmo_bench")


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            return sha.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shortened repetitions (self-test)")
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", source_id()]
    if args.quick:
        cmd.append("--quick")
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"run.py: tmo_bench exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict) or set(report) != {
            "correct", "attempted", "failed", "metrics"}:
        print("\n".join(lines[:-1]))
        print("run.py: tmo_bench printed no result", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
