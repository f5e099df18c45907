#!/usr/bin/env python3
"""Checks of the benchmark itself, each built on perfbench/run.py.

    python3 perfbench/check.py spread [--workload W ...] [--seeds N] [--seconds S]
        Runs each workload of BENCHMARK.json (or each --workload) untraced
        on N seeds and prints, per end-to-end metric, the median and the
        quartile spread (Q3 - Q1) / median as Python's
        statistics.quantiles(values, n=4) gives it, next to the metric's
        bound in BENCHMARK.json. Spreads above a third of the bound
        are flagged (setup_s is exempt from the spread rule).

    python3 perfbench/check.py gate [--seconds S]
        Runs every workload against a perturbed reference; each must report
        correct false and failed > 0, i.e. the correctness gate bites.

    python3 perfbench/check.py determinism [--seed N] [--holdout M] [--seconds S]
        Runs cold-mix twice with the same seed, untraced and traced, and
        requires wire_bytes_per_query and every bigint.*_calls count to
        repeat exactly; tcp-deploy's wire_bytes_per_query likewise. Then
        runs the held-out seed once and prints the same figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold-mix", "warm-service", "tcp-deploy"]


def run(workload, seed, seconds, trace=0, perturb=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if perturb:
        cmd.append("--perturb-reference")
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    return json.loads(out.stdout.decode().rstrip("\n").split("\n")[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(args):
    bench = spec()
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workload or [x["name"] for x in bench["workloads"]]:
        values, walls = {}, []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            res = run(w, seed, seconds)
            walls.append(time.monotonic() - start)
            if not res["correct"] or res["failed"]:
                print("%s seed %d: incorrect result" % (w, seed))
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s, %d seeds, %s s; a run took %.1f s (median), %.1f s "
              "(longest)" % (w, args.seeds, seconds, statistics.median(walls),
                             max(walls)))
        for name in sorted(values):
            v = values[name]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            s = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and s > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                ok = False
            print("  %-24s median %14.4f  spread %6.3f  bound %.2f%s" %
                  (name, med, s, bounds[name], flag))
            print("      " + " ".join("%.6g" % x for x in v))
        sys.stdout.flush()
    return 0 if ok else 1


def gate(args):
    ok = True
    for w in WORKLOADS:
        res = run(w, 1, args.seconds, perturb=True)
        bites = res["correct"] is False and res["failed"] > 0
        print("%-13s perturbed reference: correct=%s failed=%d of %d -> %s" %
              (w, res["correct"], res["failed"], res["attempted"],
               "gate bites" if bites else "GATE DOES NOT BITE"))
        ok = ok and bites
    return 0 if ok else 1


def exact(res):
    m = res["metrics"]
    return {k: v["value"] for k, v in m.items()
            if k == "wire_bytes_per_query" or (k.startswith("bigint.") and
                                               k.endswith("_calls"))}


def determinism(args):
    ok = True
    for w, trace in [("cold-mix", 0), ("cold-mix", 1), ("tcp-deploy", 0)]:
        a = exact(run(w, args.seed, args.seconds, trace))
        b = exact(run(w, args.seed, args.seconds, trace))
        same = a == b
        ok = ok and same
        print("%-10s trace %d seed %d: %s %s" %
              (w, trace, args.seed, "repeat exactly" if same else "DIFFER", a))
        if not same:
            print("   second run: %s" % b)
    for w, trace in [("cold-mix", 0), ("cold-mix", 1), ("tcp-deploy", 0)]:
        print("%-10s trace %d held-out seed %d: %s" %
              (w, trace, args.holdout, exact(run(w, args.holdout, args.seconds, trace))))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", action="append", choices=WORKLOADS)
    sp.add_argument("--seeds", type=int, default=10)
    sp.add_argument("--first-seed", type=int, default=1)
    sp.add_argument("--seconds", type=float, default=0)
    gp = sub.add_parser("gate")
    gp.add_argument("--seconds", type=float, default=5)
    dp = sub.add_parser("determinism")
    dp.add_argument("--seed", type=int, default=7)
    dp.add_argument("--holdout", type=int, default=1013)
    dp.add_argument("--seconds", type=float, default=8)
    args = ap.parse_args()
    sys.exit({"spread": spread, "gate": gate, "determinism": determinism}[args.cmd](args))


if __name__ == "__main__":
    main()
