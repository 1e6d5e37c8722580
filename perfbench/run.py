#!/usr/bin/env python3
"""Build the benchmark from source, then run one measurement.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <fanout_merge|session_commit|crash_recover>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It builds into
$CARGO_TARGET_DIR, or .bench_build when that is unset, and the run keeps
its files in .perfbench_work. The last line of standard output is the
result object; see perfbench/NOTES.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds after up to ~20 s of set-up; anything
# near this limit is a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Write the build's dirty pages back now, so their writeback does not
    # stall the fsyncs of the run that follows.
    os.sync()
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
