#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload server_rio --seed 1 \
        --seconds 20 --trace 0

Run from the root of the repository. The build goes to the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset; the first
run configures and compiles, later runs only check that the build is
current. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's, or 1 when
the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("server_rio", "server_journal", "crash_recover")


def build(build_dir: Path) -> Path:
    """Configure (once) and build riobench; return the binary."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "riobench",
         "-j", "4"],
        stdout=sys.stderr, check=True)
    return build_dir / "riobench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int,
                        choices=(0, 1))
    args = parser.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    str(build_dir.resolve() /
                        f"trace-{args.workload}.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
