#!/usr/bin/env python3
"""Build dirext and the host-time benchmark from source, then run one workload.

Run from the repository root:

    python3 hostbench/run.py --workload scale_fault --seed 1 --seconds 10 --trace 0

Builds `dirext` (the repository's CLI) and the `hostbench` harness in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the harness,
which prints a summary and, as its last line, the JSON result. Build output
goes to standard error. Exits nonzero if a build fails, the tree is not a
dirext checkout, or an output check fails.
"""

import hashlib
import os
import subprocess
import sys

# What the benchmark measures is built from these; their digest identifies
# the measured source when the tree is not a git checkout.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "hostbench/src", "hostbench/Cargo.toml"]


def source_digest():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root]
        if os.path.isdir(root):
            paths = sorted(
                os.path.join(d, f) for d, _, files in os.walk(root) for f in files
            )
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("run.py: run from the root of a dirext checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dirext-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("hostbench", "Cargo.toml")],
    ]
    for cmd in builds:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return r.returncode
    harness = os.path.join(target, "release", "hostbench")
    dirext = os.path.join(target, "release", "dirext")
    args = [harness, *sys.argv[1:], "--dirext", dirext,
            "--commit", commit(), "--source", source_digest()]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
