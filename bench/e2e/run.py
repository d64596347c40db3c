#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload for a comparison harness.

Run from the repository root:

    python3 bench/e2e/run.py --workload edge-write --seed 3 --seconds 20 --trace 0

The build goes to .bench_build/e2e (configured once, then incremental), and
each run's --json result (plus, when traced, its Chrome trace) to
.bench_build/e2e/results.
Build logs and the binary's own report go to stderr; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: every `end_to_end` metric of BENCHMARK.json with --trace 0, every
`per_layer` metric with --trace 1. A failed correctness check prints a result
with `"correct": false`. Exits non-zero, printing no result, when the sources
are missing, the build fails, or the binary produced no result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
BUILD_BUDGET_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env=None):
    """Runs cmd with stdout sent to stderr; kills its whole process group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} timed out")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ tree next to bench/e2e; cannot build bench_e2e")
    deadline = time.monotonic() + BUILD_BUDGET_S
    # Compiler temporaries stay inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator,
               deadline - time.monotonic(), env) != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs],
           deadline - time.monotonic(), env) != 0:
        sys.exit("run.py: build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-{args.seed}-{args.trace}")
    if os.path.exists(stem + ".json"):
        os.remove(stem + ".json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", stem + ".json"]
    if args.trace:
        cmd.append("--trace")
    code = run(cmd, RUN_TIMEOUT_S)
    if not os.path.exists(stem + ".json"):
        sys.exit(f"run.py: bench_e2e exited {code} without a result")
    with open(stem + ".json") as f:
        result = json.load(f)["results"][0]

    correct = bool(result["correct"]) and code == 0
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is not None and got["unit"] == m["unit"]:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        elif correct:
            sys.exit(f"run.py: bench_e2e did not report {m['name']} in {m['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
