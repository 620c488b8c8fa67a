#!/usr/bin/env python3
"""Build the Zenesis benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0

The last line of standard output is the JSON result; lines before it,
prefixed `#`, are the human-readable report. The build goes to
`$CARGO_TARGET_DIR` (default `.bench_build`) and its output to standard
error.
"""

import os
import subprocess
import sys


def main(argv):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "zenesis-perfbench")
    return subprocess.run([exe] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
