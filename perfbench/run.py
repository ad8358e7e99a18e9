#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload stream|dag|serve --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release
profile, offline) into $CARGO_TARGET_DIR (default `.bench_build`), then
runs it with the given arguments and passes its output through: every
metric with its unit, then one JSON result line. Run records and traces
go to `perfbench/out/`.

The benchmark enforces its own per-part deadlines; this wrapper only
kills it if the whole run outlives RUN_TIMEOUT_S, and then exits
non-zero without a result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def command_output(cmd):
    try:
        return subprocess.run(
            cmd, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env={**os.environ, "CARGO_TARGET_DIR": target},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    env = {
        **os.environ,
        "PERFBENCH_GIT_SHA": command_output(["git", "-C", here, "rev-parse", "HEAD"]),
        "PERFBENCH_RUSTC": command_output(["rustc", "--version"]),
    }
    binary = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(here, "out")
    proc = subprocess.Popen(
        [binary, "--out", out_dir, *sys.argv[1:]], env=env, stdout=sys.stdout
    )
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: killed after {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
