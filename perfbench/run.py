#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Rust benchmark in this directory is built in release mode against
the repository's crates (into $CARGO_TARGET_DIR, or perfbench/target)
and run with the same arguments. Its standard output passes through:
a full report line, then the result line. A traced run also writes a
Chrome trace-event file to perfbench/out/. The exit code is non-zero,
with no result printed, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark bounds its own runs; this is the backstop.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
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
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--trace-dir", os.path.join(HERE, "out")]
    # glibc moves its mmap threshold as large blocks are freed, so a
    # set-up's large buffers sometimes arrive as fresh zero pages from
    # mmap and sometimes must be cleared on the heap; setup_s then jumps
    # between about 1 ms and 8 ms on bulk_stream from run to run. Fixed
    # thresholds keep every run on the heap path: buffers up to 32 MiB
    # come from the heap, are zeroed at set-up, and the heap is not
    # trimmed between repetitions.
    run_env = dict(
        os.environ,
        MALLOC_MMAP_THRESHOLD_=str(32 << 20),
        MALLOC_TRIM_THRESHOLD_=str(1 << 30),
    )
    try:
        run = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S, env=run_env)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
