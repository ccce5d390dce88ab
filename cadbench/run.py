#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md in this directory).

Builds the benchmark and the programs it drives from the checkout's sources,
then runs one workload:

    python3 cadbench/run.py --workload batch_rmat --seed 1 --seconds 20 --trace 0

The last line of stdout is the run's JSON result. Build output and
diagnostics go to stderr. `--self-test` builds and runs the benchmark's own
tests instead.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_rmat", "stream_churn", "server_fleet")


def build(build_dir, targets):
    """Configures and builds `targets`; output goes to stderr. Both steps are
    quick no-ops once the build tree is up to date."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", *targets],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        if args.self_test:
            build(build_dir, ["cadbench_tests"])
            return subprocess.run(
                [os.path.join(build_dir, "cadbench_tests")]).returncode
        build(build_dir, ["cadbench", "cad_stream", "cad_server"])
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"cadbench: build failed: {error}", file=sys.stderr)
        return 1

    command = [
        os.path.join(build_dir, "cadbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work_dir", os.path.join(ROOT, ".bench_work", args.workload),
        "--bin_dir", build_dir,
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
