#!/usr/bin/env python3
"""Build the medsim benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the simulator crates under crates/. It is built in
release mode into $CARGO_TARGET_DIR (default perfbench/target), offline,
and then run with the arguments given here. The binary's output is passed
through unchanged; its last line is the JSON result. Build output goes to
standard error. Exits non-zero, printing no result, when the build or the
run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isdir(os.path.join(HERE, os.pardir, "crates")):
        print("perfbench: the simulator sources (crates/) are missing", file=sys.stderr)
        return 1
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
