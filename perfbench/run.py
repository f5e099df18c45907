#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload cold-mix|warm-service|tcp-deploy|all
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--perturb-reference]

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the secmed libraries, the secmedd daemon and the
perfbench driver, Release) under $CARGO_TARGET_DIR or .bench_build; later
runs only bring that build up to date. The driver's report is printed, and
its last line is one JSON object with the keys correct, attempted, failed
and metrics: the end_to_end metrics of BENCHMARK.json untraced
(--trace 0), its per_layer metrics traced (--trace 1). The metric names
and units are checked against BENCHMARK.json before anything is printed.

--workload all runs the three workloads untraced, one after the other, and
prints every end-to-end metric of each. BENCHMARK.json lists warm-service
and tcp-deploy; cold-mix runs the same way but is not one of its workloads
(its time metrics follow the host's contention more than the program, see
perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["cold-mix", "warm-service", "tcp-deploy"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the driver and the daemon."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail("no source tree at " + root + " (CMakeLists.txt and src/ are needed)")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + gen
        )
    steps.append(
        ["cmake", "--build", cmake_dir, "--target", "perfbench", "secmedd",
         "-j", str(os.cpu_count() or 1)]
    )
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(cmd))
    return (os.path.join(cmake_dir, "perfbench"),
            os.path.join(cmake_dir, "secmed", "tools", "secmedd"))


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(root, build_dir, binary, secmedd, workload, seed, seconds, trace, perturb):
    """Runs the driver once; returns (report lines, result dict)."""
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--secmedd", secmedd, "--out-dir", out_dir]
    if perturb:
        cmd.append("--perturb-reference")
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("%s: driver exited with %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(workload + ": last line is not a JSON result")
    want = expected_metrics(root, trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(workload + ": metrics do not match BENCHMARK.json: missing %s, extra %s, "
             "unit mismatches %s" % (
                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in want if k in got and got[k] != want[k])))
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--perturb-reference", action="store_true",
                    help="self-test of the correctness gate: every query must fail")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary, secmedd = build(root, build_dir)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        lines, result = run_one(root, build_dir, binary, secmedd, w, args.seed,
                                args.seconds, args.trace, args.perturb_reference)
        sys.stdout.write("\n".join(lines) + "\n")
        if args.workload != "all":
            print(json.dumps(result))
            return
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][w + ":" + name] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
