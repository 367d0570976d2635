"""Steadiness check: run workloads many times, alternating, and print
each end-to-end metric's spread.

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --runs 5 --workloads btio-a,coll-small

Run ``i`` of every workload uses seed ``--seed-base + i``; the order of
the workloads rotates from one run to the next.  For each metric the
table gives the median, the quartiles and extremes, and the spread: the
distance between the first and third quartile (``statistics.quantiles``
with ``n=4``) as a share of the median.  The bounds in BENCHMARK.json
come from this output; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    args = ap.parse_args(argv)
    if args.workloads:
        names = args.workloads.split(",")
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    results = {w: [] for w in names}
    for i in range(args.runs):
        k = i % len(names)
        for w in names[k:] + names[:k]:
            res = run_once(w, args.seed_base + i, args.seconds)
            if not res["correct"]:
                raise SystemExit(f"{w} seed {args.seed_base + i}: "
                                 "output did not match the oracle")
            results[w].append(res)
            print(f"run {i} {w}: " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()),
                flush=True)
    print()
    print(f"{'workload':14s} {'metric':12s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'min':>11s} {'max':>11s} {'spread':>8s}")
    for w, rows in results.items():
        failed = {(r["failed"], r["attempted"]) for r in rows}
        for m in rows[0]["metrics"]:
            vals = [r["metrics"][m]["value"] for r in rows]
            med, q1, q3, sp = spread(vals)
            print(f"{w:14s} {m:12s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{min(vals):11.5g} {max(vals):11.5g} {sp:8.2%}")
        shares = sorted({f / a for f, a in failed})
        print(f"{w:14s} failed share per run: {shares}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
