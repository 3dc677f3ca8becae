#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload drone-d1 --seed 1 --seconds 20 --trace 0

Builds the benchmark from source (release; a second, `trace` build for
`--trace 1`) under $CARGO_TARGET_DIR (default `.bench_build`), runs it,
and relays its output. The last line on standard output is the JSON
result. Exits non-zero, without a result, when the sources are missing,
the build fails or the run does not produce a result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def code_version():
    """The commit hash when the tree is a git checkout, else a digest of
    every source and manifest file the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("target", ".perfbench"))
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target_root, traced):
    """Builds one variant into its own target directory; returns the
    binary's path."""
    target = os.path.join(target_root, "traced" if traced else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "trace"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed ({' '.join(cmd)})")
    return os.path.join(target, "release", "perfbench")


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("missing --trace")
    traced = args[args.index("--trace") + 1:][:1] == ["1"]
    if not os.path.isfile(MANIFEST) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository sources (crates/, perfbench/Cargo.toml) are missing")
    target_root = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    # Both variants are built up front, so the first run pays every build.
    binaries = {t: build(target_root, t) for t in (False, True)}
    env = dict(os.environ, PERFBENCH_COMMIT=code_version())
    try:
        proc = subprocess.run([binaries[traced]] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not JSON")
    if set(result) != RESULT_KEYS:
        fail(f"result keys {sorted(result)} are not {sorted(RESULT_KEYS)}")
    sys.stdout.write(proc.stdout if proc.stdout.endswith("\n") else proc.stdout + "\n")


if __name__ == "__main__":
    main()
