#!/usr/bin/env python3
"""Build the scalesim benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 scalebench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The benchmark is built with cargo (offline) into $CARGO_TARGET_DIR,
default `.bench_build`, then run as one fresh process per workload. Its
standard output ends with one JSON line holding the result. See
scalebench/README.md for the workloads and metrics.
"""

import argparse
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-figures", "server-storm", "locks-traced")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"scalebench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_bounded(cmd, timeout, **kwargs):
    """Runs cmd, killing and reaping it if it outlives timeout seconds."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    manifest = HERE / "Cargo.toml"
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"no scalesim sources next to {HERE.name}/; run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    started = time.monotonic()
    code = run_bounded(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(manifest)],
        BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        fail(f"build failed (exit {code})")
    print(f"scalebench: build checked in {time.monotonic() - started:.1f} s",
          file=sys.stderr)

    binary = target / "release" / "scalebench"
    out_dir = target / "scalebench"
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    code = run_bounded(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)],
        RUN_TIMEOUT_S, cwd=ROOT, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
