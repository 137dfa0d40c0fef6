#!/usr/bin/env python3
"""Builds and runs the amici benchmark.

    python3 amibench/run.py --workload read_hot --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The first run configures and builds
the library and the benchmark (Release) into .bench_build/amibench; later
runs rebuild incrementally. Every run first executes the benchmark's
self-tests. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the metric names are
checked against BENCHMARK.json (end_to_end for --trace 0, per_layer for
--trace 1). Reports and spans go to .bench_out/.

Exit codes: 0 ok; 1 a wrong answer or lost write (result still printed);
2 or more the benchmark could not run (no result printed).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "amibench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[amibench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; False when either step fails."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def source_digest():
    """SHA-256 over the library sources, in path order."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not build():
        log("build failed")
        return 3
    selftest = subprocess.run([os.path.join(BUILD_DIR, "amibench_selftest")])
    if selftest.returncode != 0:
        log("self-tests failed")
        return 4

    command = [os.path.join(BUILD_DIR, "amibench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", OUT_DIR, "--commit", commit_id(),
               "--source-digest", source_digest()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"no result within {RUN_TIMEOUT_S} s")
        return 5
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log(f"benchmark failed (exit {run.returncode})")
        return 6

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == "1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        print("\n".join(lines[:-1]))
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, unexpected "
            f"{sorted(set(got) - set(want))}, units "
            f"{sorted(n for n in want if n in got and got[n] != want[n])}")
        return 7
    print("\n".join(lines), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
