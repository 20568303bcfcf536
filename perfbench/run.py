#!/usr/bin/env python3
"""Build the OctoCache benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) with path dependencies on the repository's
crates; it is built into $CARGO_TARGET_DIR (default: .bench_build). The last
line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when the build or the run fails.

`--all` runs every workload untraced and then traced and exits non-zero if
any run fails, including on a correctness-gate mismatch.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def git_rev():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".tsv", ".py"):
                files.append(path)
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no repository sources under {ROOT}: nothing to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    try:
        # Cargo's output goes to stderr: stdout ends with the result line.
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")

    binary = target / "release" / "octocache-perfbench"
    stamp = ["--rev", git_rev(), "--source-digest", source_digest()]
    if sys.argv[1:2] != ["--all"]:
        sys.exit(run(binary, [*sys.argv[1:], *stamp], env))
    opts = dict(zip(sys.argv[2::2], sys.argv[3::2]))
    seed, seconds = opts.get("--seed", "0"), opts.get("--seconds", "60")
    names = subprocess.run([str(binary), "list"], capture_output=True, text=True,
                           check=True).stdout.split()
    failed = []
    for name in names:
        for trace in ("0", "1"):
            print(f"== {name} --trace {trace}", flush=True)
            args = ["--workload", name, "--seed", seed, "--seconds", seconds, "--trace", trace]
            if run(binary, [*args, *stamp], env) != 0:
                failed.append(f"{name} --trace {trace}")
    if failed:
        fail("failed: " + ", ".join(failed))


def run(binary, args, env):
    try:
        return subprocess.run([str(binary), *args], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {binary}: {e}")


if __name__ == "__main__":
    main()
