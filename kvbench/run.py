#!/usr/bin/env python3
"""Build and run the kvbench benchmark.

Run from the repository root:

    python3 kvbench/run.py --workload read-mostly-mssc --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (kvbench/go.mod) that builds
against the repository's module one directory up. Everything the build and
the run leave behind goes under .bench_build/ at the repository root: the
Go build cache, the binary, the run records and the span files. The last
line of standard output is the run's JSON summary; the exit code is the
benchmark's (0 ok, 1 output check failed, 2 could not run).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run must end within 180 s; leave room for teardown after a kill.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def src_digest():
    """sha256 over the program's Go sources and module files, so records
    from a checkout that is not a git repository still name their code."""
    h = hashlib.sha256()
    paths = []
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for f in files:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.relpath(os.path.join(d, f), ROOT))
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(os.path.join(ROOT, p), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()[:16]


def main():
    env = go_env()
    binary = os.path.join(BUILD, "kvbench", "kvbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("kvbench: build failed", file=sys.stderr)
        return 2
    args = [binary] + sys.argv[1:] + ["--git-rev", git_rev(), "--src-digest", src_digest()]
    try:
        return subprocess.run(args, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("kvbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
