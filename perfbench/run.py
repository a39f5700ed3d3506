#!/usr/bin/env python3
"""Builds the PACOR benchmark program from this checkout and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The program is compiled from ../src into the build directory named by
CARGO_TARGET_DIR (default .bench_build, relative to the checkout root).
Build output goes to stderr, so the last line of stdout is the result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    env_jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "-j", env_jobs],
                   stdout=sys.stderr, check=True, timeout=850)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "pacor", "pipeline.cpp")):
        print("perfbench: the router sources (src/) are not in this checkout", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "pacor_perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--root", ROOT]).returncode


if __name__ == "__main__":
    sys.exit(main())
