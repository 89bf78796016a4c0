"""Steadiness check: run the benchmark repeatedly on one commit.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--trace]

Runs every workload of BENCHMARK.json --runs times for its run_seconds, one
process at a time, with seeds --first-seed, --first-seed + 1, ...  For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json.  A spread above a third of the bound is
flagged, and any flag makes the verdict "NOT steady" with exit code 1.  A
second set with another --first-seed shows how far medians move between
sets.
With --trace it runs the traced benchmark twice per seed instead and reports
whether every count repeated.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that takes longer than this is a failure of the run itself.
RUN_TIMEOUT_S = 300


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                 proc.stderr[-2000:]))
    print("  %s seed %d trace %d: %.1f s" % (workload, seed, trace,
                                             time.monotonic() - start), flush=True)
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def end_to_end_set(bench, workloads, seconds, args):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for wl in workloads:
        seeds = [args.first_seed + i for i in range(args.runs)]
        results = [run_once(wl, seed, seconds, False) for seed in seeds]
        fail_share = {(r["failed"], r["attempted"]) for r in results}
        print("\n%s  seeds %d..%d  correct %s  failed/attempted %s"
              % (wl, seeds[0], seeds[-1], all(r["correct"] for r in results),
                 sorted(fail_share)))
        print("  %-14s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, meta in bounds.items():
            med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
            flag = ""
            if sp > meta["bound"] / 3:
                flag = "  above bound/3"
                ok = False
            print("  %-14s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (
                name, med, q1, q3, sp, meta["bound"], flag))
    return ok


def traced_repeat(workloads, seconds, args):
    ok = True
    for wl in workloads:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            a, b = (run_once(wl, seed, seconds, True) for _ in range(2))
            same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"]
                       for k in a["metrics"] if a["metrics"][k]["unit"] == "count")
            ok &= same and a["correct"] and b["correct"]
            print("%s seed %d: counts %s" % (wl, seed, "repeat" if same else "DIFFER"))
            for k, m in a["metrics"].items():
                if m["value"]:
                    print("  %-34s %14.6g %14.6g %s" % (
                        k, m["value"], b["metrics"][k]["value"], m["unit"]))
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    if args.trace:
        ok = traced_repeat(workloads, seconds, args)
    else:
        ok = end_to_end_set(bench, workloads, seconds, args)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
