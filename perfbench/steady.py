#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two sets of the same build, interleaved run by run (set A, set B,
then B, A for the next seed, ...), on every workload and seed. For each
workload and end-to-end metric it prints each set's median and quartiles
and the spread (interquartile distance over the median) against the
metric's bound in BENCHMARK.json, and the difference between the set
medians in either direction (|B - A| over the smaller median) against the
same bound. A metric fails the check when either figure exceeds its
bound; only small's setup_s spread is exempt (see SPREAD_EXEMPT). Every run also prints the time of the
benchmark's fixed reference kernel: a diagnostic that tells a
slow-machine run apart from slow code; it never scales a metric.

With --traced, it then makes one traced run per workload and prints the
per-layer metrics and the tracing overhead of each end-to-end metric
(traced minus the untraced median).

    python3 perfbench/steady.py                       # 10 seeds, 2 sets
    python3 perfbench/steady.py --workloads small --seeds 1,2,3,4,5 --sets 1
    python3 perfbench/steady.py --seeds 1,1,1,1,1     # host noise alone

A seed may repeat: runs of one seed see the same inputs, so their spread
is the host's noise without the inputs' variance.

Run it from the root of the repository. Raw results are written to
.bench_build/perfbench-work/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The one spread the check does not hold to its bound: small's setup_s
# times a 5 ms load, which is dominated by host noise. Its set medians
# must still agree within the bound; the loader's cost is measured on
# large.
SPREAD_EXEMPT = {("small", "setup_s")}


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"run failed: {' '.join(args)} (exit {p.returncode})")
    result = json.loads(lines[-1])
    extra = {"e2e": {}, "diag": {}, "counter": {}}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "metric":
            extra["e2e"][parts[1]] = float(parts[2])
        elif len(parts) == 3 and parts[0] in ("diag", "counter"):
            extra[parts[0]][parts[1]] = float(parts[2])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
            "result": result, **extra}


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--traced", action="store_true",
                    help="also make one traced run per workload")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s, 0) for s in a.seeds.split(",")]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")

    runs = []
    for i, seed in enumerate(seeds):
        order = ["A", "B"][: a.sets]
        if i % 2 == 1:
            order.reverse()
        for s in order:
            for w in workloads:
                r = run_once(cmd, w, seed, seconds, 0)
                r["set"] = s
                runs.append(r)
                res = r["result"]
                print(f"set {s} {w:>6} seed {seed:>6}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"ref_kernel={r['diag'].get('reference_kernel_ms', 0):.1f}ms "
                      f"run={r['wall_s']:.1f}s", flush=True)

    verdict = True
    for w in workloads:
        print(f"\n== {w}")
        print(f"{'metric':<20} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>7} {'bound':>6}")
        for name, spec in bounds.items():
            medians = {}
            for s in ["A", "B"][: a.sets]:
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                medians[s] = med
                flag = ""
                if (w, name) in SPREAD_EXEMPT:
                    flag = "exempt"
                elif spread > spec["bound"]:
                    flag, verdict = "FAIL", False
                elif spread > spec["bound"] / 3:
                    flag = "over 1/3 bound"
                print(f"{name:<20} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>7.3f} {spec['bound']:>6} {flag}")
            if a.sets == 2:
                lo, hi = sorted((medians["A"], medians["B"]))
                apart = (hi - lo) / lo if lo else float("inf")
                flag = "FAIL" if apart > spec["bound"] else ""
                verdict = verdict and not flag
                print(f"{'':<20} sets apart: {apart:.3f} (bound {spec['bound']}) {flag}")
        for s in ["A", "B"][: a.sets]:
            ref = [r["diag"].get("reference_kernel_ms", 0) for r in runs
                   if r["workload"] == w and r["set"] == s]
            q1, med, q3 = quartiles(ref)
            print(f"{'reference_kernel_ms':<20} {s:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{(q3 - q1) / med if med else 0:>7.3f}   diagnostic")
        # A host that slows every run of a stretch slows the reference
        # kernel too: its correlation with a metric across runs tells a
        # slow-machine spread apart from slow code.
        mine = [r for r in runs if r["workload"] == w and r["trace"] == 0]
        ref = [r["diag"].get("reference_kernel_ms", 0) for r in mine]
        corr = []
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in mine]
            if len(set(vals)) > 1 and len(set(ref)) > 1:
                corr.append(f"{name} {statistics.correlation(ref, vals):+.2f}")
        print("correlation with the reference kernel across runs: " + ", ".join(corr))
        bad = [r for r in runs if r["workload"] == w and not r["result"]["correct"]]
        print(f"runs with failed operations: {len(bad)}")
        verdict = verdict and not bad
        # Deterministic counters must repeat exactly for a repeated seed.
        by_seed = {}
        for r in runs:
            if r["workload"] == w:
                by_seed.setdefault(r["seed"], []).append(r["counter"])
        differ = [s for s, cs in by_seed.items() if any(c != cs[0] for c in cs)]
        print(f"seeds whose counters differ between runs: {differ or 'none'}")
        verdict = verdict and not differ

    if a.traced:
        for w in workloads:
            r = run_once(cmd, w, seeds[0], seconds, 1)
            runs.append(r)
            # The traced run adds the barrier's counters; every other
            # counter must equal the untraced runs' of the same seed.
            same = all(r["counter"].get(k) == v for x in runs
                       if x["workload"] == w and x["seed"] == seeds[0] and x["trace"] == 0
                       for k, v in x["counter"].items())
            print(f"\n== {w} traced (seed {seeds[0]}): counters "
                  f"{'identical to' if same else 'DIFFER from'} the untraced runs")
            verdict = verdict and same
            for name, m in r["result"]["metrics"].items():
                print(f"layer {name:<36} {m['value']:>16.6g} {m['unit']}")
            for name, v in r["e2e"].items():
                base = statistics.median(x["result"]["metrics"][name]["value"] for x in runs
                                         if x["workload"] == w and x["trace"] == 0)
                print(f"overhead {name:<20} traced {v:>12.6g} untraced {base:>12.6g} "
                      f"({(v - base) / base:+.3f})")

    out_dir = os.path.join(ROOT, os.environ["CARGO_TARGET_DIR"], "perfbench-work")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as f:
        json.dump(runs, f, indent=1)
    print(f"\nraw results: {out}")
    print("steady" if verdict else "NOT steady")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
