#!/usr/bin/env python3
"""Builds the analyzer and the benchmark driver, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); all cargo output goes to stderr, so the driver's JSON
result is the last line of stdout. Exits non-zero without a result when
the build or the driver fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        # The `wcet` binary the serve workload runs as a daemon, built
        # from the repository's own manifest and lock file.
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "wcet"],
        # The driver: a package of its own that links the crates by path.
        # Not `--locked`: its lock file must follow dependency changes in
        # the crates it links.
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(bench, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.abspath(os.path.join(target, "release"))
    driver = [os.path.join(release, "perfbench"), "--wcet",
              os.path.join(release, "wcet")] + sys.argv[1:]
    proc = subprocess.run(driver, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
