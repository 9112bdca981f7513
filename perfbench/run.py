#!/usr/bin/env python3
"""Build and run the mediator's wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve_lookup, serve_history, analytic_join, oo7_disk.

Builds the `disco-perfbench` package (perfbench/Cargo.toml) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload,
and relays its standard output, whose last line is the JSON result.
The run record and, for `--trace 1`, the spans are written under
`<target dir>/perfbench/`; the disk engine's page files go to a temp
directory there too. Provenance passed to the run: git sha (when the
tree is a git checkout), a digest of the source files, and `rustc -V`.
Exits non-zero, without a result, when the repository sources are
missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Sources the benchmark builds against, relative to the repository root.
REQUIRED = ["Cargo.toml", "crates/mediator/Cargo.toml", "crates/bench/Cargo.toml"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the repository sources the benchmark compiles."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    files += sorted(p for p in (ROOT / "crates").rglob("*") if p.is_file())
    files += sorted(p for p in BENCH_DIR.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        fail(f"run from the repository root; missing {', '.join(missing)}")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    out_dir = target / "perfbench"
    tmp_dir = out_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), TMPDIR=str(tmp_dir))

    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    if built.returncode != 0:
        fail("build failed", 1)

    provenance = {
        "git_sha": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "rustc": command_output(["rustc", "-V"]),
    }
    run = [str(target / "release" / "disco-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", str(out_dir), "--provenance", json.dumps(provenance)]
    try:
        done = subprocess.run(run, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
