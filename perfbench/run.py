#!/usr/bin/env python3
"""Entry point of the rlckit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script

1. clears the rlckit environment knobs (RLCKIT_THREADS, RLCKIT_BATCH,
   RLCKIT_FAULTS, RLCKIT_SHARD_FAULTS, RLCKIT_TRACE) so they cannot skew
   the numbers of the benchmark or of any process it starts;
2. builds, offline and in release mode, the two daemon binaries the
   workloads drive (`rlckit-serve`, `rlckit-campaign`) from the
   repository workspace and the benchmark driver (`rlckit-perfbench`)
   from this directory, into `$CARGO_TARGET_DIR` (default
   `.bench_build`);
3. runs the driver on a scratch directory under `.bench_work/`, which
   is removed afterwards;
4. prints a stamp line (nproc, rustc version, commit, source hash,
   seed), then the driver's output, whose last line is the JSON result
   `{"correct", "attempted", "failed", "metrics"}`.

It exits non-zero, without printing a result, when the build, the run
or any output check fails, or when the reported metric names differ
from the ones `BENCHMARK.json` declares.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

KNOBS = (
    "RLCKIT_THREADS",
    "RLCKIT_BATCH",
    "RLCKIT_FAULTS",
    "RLCKIT_SHARD_FAULTS",
    "RLCKIT_TRACE",
)
WORKLOADS = ("sweep", "campaign", "serve_pipelined")
# The driver must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(command, cwd, env):
    result = subprocess.run(command, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build failed: {' '.join(command)}")


def capture(command, cwd):
    try:
        out = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def commit(root):
    """The git commit of `root`, or "unknown" outside a git checkout of it."""
    top = capture(["git", "rev-parse", "--show-toplevel"], root)
    if top == "unknown" or pathlib.Path(top).resolve() != root.resolve():
        return "unknown"
    return capture(["git", "rev-parse", "HEAD"], root)


def source_hash(root):
    """Hash of every manifest and Rust source the benchmark builds from, so
    a result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    files += sorted((root / "crates").rglob("*.rs")) + sorted((root / "crates").rglob("Cargo.toml"))
    files += sorted((root / "perfbench").rglob("*.rs")) + [root / "perfbench" / "Cargo.toml"]
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def declared_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description="rlckit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = pathlib.Path.cwd()
    bench_dir = pathlib.Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env["CARGO_TARGET_DIR"] = str(target)

    build(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "rlckit-serve", "-p", "rlckit-campaign", "--bins"],
        root, env,
    )
    build(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(bench_dir / "Cargo.toml")],
        root, env,
    )
    release = target / "release"
    for binary in ("rlckit-serve", "rlckit-campaign", "rlckit-perfbench"):
        if not (release / binary).is_file():
            fail(f"missing binary {release / binary}")

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "rustc": capture(["rustc", "--version"], root),
        "commit": commit(root),
        "source_hash": source_hash(root),
    }

    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [
        str(release / "rlckit-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve-bin", str(release / "rlckit-serve"),
        "--campaign-bin", str(release / "rlckit-campaign"),
        "--work-dir", str(work),
    ]
    # A session of its own, so a timeout can stop the driver together with
    # every daemon and shard process it started.
    proc = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"driver exited with code {proc.returncode}")

    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys {sorted(result)}")
    expected = declared_metrics(root, args.trace)
    if set(result["metrics"]) != expected:
        fail(f"metric names {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(expected)}")
    if not result["correct"]:
        sys.stderr.write(stdout)
        fail("output check failed")

    print(json.dumps({"stamp": stamp}))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
