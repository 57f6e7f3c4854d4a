#!/usr/bin/env python3
"""Build the CRR lifecycle benchmark and run one workload, or all of them.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

The Rust program in perfbench/src is built in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build). One workload runs in its own
process (peak RSS is per process); its standard output ends with one JSON
line {"correct", "attempted", "failed", "metrics"} and the exit code is 0
only if every output check passed. `--workload all` runs every workload in
turn, each in its own process, and exits non-zero if any of them failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = [
    "discover-electricity",
    "discover-tax-sharded",
    "serve-mixed",
    "maintain-window",
]


def build():
    """Builds the benchmark binary and returns its path, or exits."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "crr-perfbench")


def main(argv):
    if "--workload" not in argv or argv.index("--workload") + 1 >= len(argv):
        sys.exit(__doc__)
    at = argv.index("--workload") + 1
    exe = build()
    if argv[at] != "all":
        sys.stdout.flush()
        return subprocess.run([exe] + argv).returncode
    worst = 0
    for workload in WORKLOADS:
        args = argv[:at] + [workload] + argv[at + 1:]
        print(f"=== {workload}", flush=True)
        worst = max(worst, subprocess.run([exe] + args).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
