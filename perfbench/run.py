#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload saturated --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The Go harness in this directory is
built into .bench_build/ with a Go build cache kept there too, so the
benchmark reads and writes nothing outside the checkout. The harness
prints every metric by name with its unit, then the self-describing run
record, then the result line. The exit code is the harness's: non-zero
when an output check failed or the harness could not be built.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),  # go telemetry and go env
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
    )
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    return env


def revision():
    """The commit when the checkout is a git work tree, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=10).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".sum", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measured seconds: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append the run record to this JSONL file")
    args = ap.parse_args()

    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = go_env()
    try:
        build = subprocess.run([go, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", os.path.join(BUILD, "tmp", "run-%d" % os.getpid()),
           "-commit", revision()]
    if args.record:
        cmd += ["-record", os.path.abspath(args.record)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
