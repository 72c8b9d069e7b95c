#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

The Go package in this directory is built against the checkout's own
sources (go.mod replaces the `ccrp` module with `..`), into .bench_build/
at the checkout root. Every file the build and the run write stays inside
the checkout. The last line of standard output is the run's JSON result;
a failed build exits non-zero without printing one.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    """Environment that keeps the Go toolchain's caches and temporary
    files inside the checkout."""
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOMODCACHE": "gomodcache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "TMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",  # where the go command keeps telemetry
    }
    for key, sub in dirs.items():
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def main():
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # Replace this process with the benchmark, so the caller's process is
    # the one that runs and ends it.
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:] + ["--out", os.path.join(HERE, "out")], env)


if __name__ == "__main__":
    sys.exit(main())
