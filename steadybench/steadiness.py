#!/usr/bin/env python3
"""Steadiness check: run the benchmark in two sets and compare them.

Runs the command from BENCHMARK.json on every workload, ten times in each of
two sets with a different seed each time (set 2 uses fresh seeds), and prints
for each workload and end-to-end metric:

* each set's median and quartiles, and its spread: (Q3 - Q1) / median,
  with quartiles as `statistics.quantiles(values, n=4)` gives them;
* the set-to-set change of the median in the metric's worse direction;
* both against the metric's bound from BENCHMARK.json.

Each set also runs its first seed once more with `--trace 1` per workload:
that run only counts as correct if the traced digest equals the untraced
one. The script also prints the spread of raw (uncalibrated) host speed
next to the calibrated one, from the diagnostics line the benchmark prints
before its result. Run from the repository root:

    python3 steadybench/steadiness.py [--first-seed 1]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUNS = 10
SETS = 2


def run_once(command, workload, seed, seconds, trace=0):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {}
    traced_ok = True
    seed = opts.first_seed
    for s in range(SETS):
        for name in names:
            _, res = run_once(bench["command"], name, seed, bench["run_seconds"], trace=1)
            traced_ok &= res["correct"]
            print(f"set {s} {name} seed {seed} traced: correct={res['correct']}", flush=True)
            for _ in range(RUNS):
                diag, res = run_once(bench["command"], name, seed, bench["run_seconds"])
                results.setdefault(name, []).append({"set": s, "seed": seed,
                                                     "diagnostics": diag, "result": res})
                flag = "" if res["correct"] else "  INCORRECT"
                print(f"set {s} {name} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                      + flag, flush=True)
                seed += 1

    ok = True
    for name in names:
        rows = results[name]
        print(f"\n{name}")
        print(f"  {'metric':24s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            meds = []
            for s in range(SETS):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows if r["set"] == s]
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                mark = ""
                if sp > m["bound"]:
                    mark, ok = "  OVER BOUND", False
                elif sp > m["bound"] / 3:
                    mark = "  over a third of bound"
                print(f"  {m['name']:24s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                      f" {sp:7.4f} {m['bound']:6.3f}{mark}")
            for s in range(1, SETS):
                worse = (meds[s] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                mark = ""
                if worse > m["bound"]:
                    mark, ok = "  OVER BOUND", False
                print(f"  {m['name']:24s} set {s} vs 0: worse by {worse:+.4f}"
                      f" (bound {m['bound']}){mark}")
        for key in ("raw_ticks_per_s", "raw_setup_s"):
            for s in range(SETS):
                vals = [r["diagnostics"][key] for r in rows if r["set"] == s]
                med, _, _, sp = spread(vals)
                print(f"  raw {key:20s} {s:3d} {med:12.6g} spread {sp:.4f}")
        if not all(r["result"]["correct"] for r in rows):
            ok = False
            print("  some runs were not correct")

    if not traced_ok:
        ok = False
        print("\nsome traced runs were not correct (traced digest differs from untraced)")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
