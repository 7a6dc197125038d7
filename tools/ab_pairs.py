"""Alternating parent/change benchmark pairs, judged by section 8 of the
choosing-metrics guide.

    python tools/ab_pairs.py PARENT CHANGE --workload serve_failover --seed 7 -n 10

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``benchmarks/perf/run.py --workload W --seed S --seconds 6 --trace 0``
once in each, alternating which side goes first.  A gain is claimed only
when the change wins at least nine tenths of the pairs run (a tie counts
for neither side) and the medians differ by more than the parent's own
spread, taken as the distance between its quartiles.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its metrics plus ``sim_digest``."""
    out = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "6", "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"{checkout}: wrong outputs or failed operations")
    digest = re.search(r"sim_digest\s+(\w+)", out).group(1)
    return {"sim_digest": digest, **{k: m["value"] for k, m in doc["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent"), parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-n", "--pairs", type=int, default=10)
    parser.add_argument("--metrics", nargs="+", default=["sim_ops_per_host_s"])
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    with open(f"{args.parent}/BENCHMARK.json") as handle:
        better = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}
    runs, judged = {"parent": [], "change": []}, args.metrics[0]
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, args.seed))
        parent, change = runs["parent"][-1][judged], runs["change"][-1][judged]
        print(f"pair {pair + 1:2d} ({order[0]} first): parent {parent:.6g}  "
              f"change {change:.6g}  ({change / parent - 1:+.1%})", flush=True)
    digests = {run["sim_digest"] for side in runs.values() for run in side}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs; sim_digest "
          f"{'identical' if len(digests) == 1 else 'DIFFERS'} across all runs")
    for metric in args.metrics:
        sign = -1 if better[metric] == "lower" else 1
        parent = [run[metric] for run in runs["parent"]]
        change = [run[metric] for run in runs["change"]]
        p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
        c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
        wins = sum(sign * c > sign * p for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        moved = abs(c_med - p_med) > p_q3 - p_q1
        gain = moved and sign * c_med > sign * p_med and wins >= 0.9 * args.pairs
        print(f"{metric}: parent {p_med:.6g} [{p_q1:.6g} .. {p_q3:.6g}]  change "
              f"{c_med:.6g} [{c_q1:.6g} .. {c_q3:.6g}]  medians "
              f"{c_med / p_med - 1:+.1%}; change wins {wins}/{args.pairs}, ties "
              f"{ties}; parent IQR {p_q3 - p_q1:.6g} -> "
              f"{'gain' if gain else 'no resolvable gain'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
