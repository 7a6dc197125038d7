"""Alternating parent/change benchmark pairs, judged by section 8 of the
choosing-metrics guide.

    python tools/ab_pairs.py PARENT CHANGE --workload serve_failover --seed 7 -n 10
    python tools/ab_pairs.py PARENT CHANGE --workload all -n 10 --json OUT.json
    python tools/ab_pairs.py PARENT CHANGE --workload closed_fill --seed 7,53 -n 10

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
``benchmarks/perf/run.py --workload W --seed S --seconds 6 --trace 0``
once in each, alternating which side goes first.  A gain is claimed only
when the change wins at least nine tenths of the pairs run (a tie counts
for neither side) and the medians differ by more than the parent's own
spread, taken as the distance between its quartiles.  ``--workload all``
runs every workload of the parent's ``BENCHMARK.json`` in turn and ends
with one summary table: the no-regression table of a change that claims
a gain on one of them.  ``--seed`` takes a comma-separated list and the
whole procedure — pairs, verdicts, summary table — is repeated per seed,
so the development seed and the held-out one are one command.  ``--json``
writes every run and every verdict.

Under each verdict a second line gives both sides' medians over the
pairs the parent ran first and over those the change ran first: on a
small shared machine the side that runs second in a pair can read
higher, which alternating keeps out of the medians but not out of the
wins.  The split is printed and written to ``--json`` (``by_first``);
the verdict does not use it.

``--record PR`` appends one entry per (workload, seed) to
``BENCH_<workload>.json`` at the root of this repository: the PR number,
both checkouts' commits (``+dirty`` when a work tree has uncommitted
changes), the seed, the pairs run, whether ``sim_digest`` was identical,
and for each of ``RECORDED_METRICS`` both sides' median and quartiles,
the change of the medians, the change's wins and the verdict of the
summary table.  Entries stay in PR order; an older PR number is refused
before any pair runs.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
# What a --record entry keeps per metric (added to --metrics when absent).
RECORDED_METRICS = ("sim_ops_per_host_s", "setup_s", "peak_rss_mib")


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


def judge(metric: str, better: str, parent: List[float], change: List[float]) -> dict:
    """Section 8's verdict on one metric over the pairs run."""
    sign = -1 if better == "lower" else 1
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    moved = abs(c_med - p_med) > p_q3 - p_q1
    gain = moved and sign * c_med > sign * p_med and wins >= 0.9 * len(parent)
    return {
        "metric": metric, "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
        "delta": c_med / p_med - 1 if p_med else 0.0, "wins": wins,
        "ties": sum(c == p for p, c in zip(parent, change)),
        "parent_iqr": p_q3 - p_q1, "gain": gain,
    }


def split_by_first(firsts: List[str], parent: List[float],
                   change: List[float]) -> Dict[str, dict]:
    """Both sides' medians over the pairs each side ran first, keyed by
    that side (``firsts[i]`` ran first in pair ``i``); a side that ran
    first in no pair has no entry."""
    split = {}
    for first in ("parent", "change"):
        pairs = [i for i, side in enumerate(firsts) if side == first]
        if pairs:
            split[first] = {
                "pairs": len(pairs),
                "parent": statistics.median(parent[i] for i in pairs),
                "change": statistics.median(change[i] for i in pairs),
            }
    return split


def verdict_word(verdict: dict, better: str, bound: float) -> str:
    """The summary table's word for one judged metric."""
    sign = -1 if better == "lower" else 1
    if verdict["gain"]:
        return "gain"
    return "REGRESSION" if sign * verdict["delta"] < -bound else "within bound"


def commit_of(checkout: str) -> str:
    """``checkout``'s HEAD commit, ``+dirty`` if its work tree differs."""
    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", "-C", checkout, *argv], check=True, capture_output=True,
            text=True,
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        raise SystemExit(f"--record needs git checkouts; {checkout} is not one")
    return head + ("+dirty" if git("status", "--porcelain") else "")


def bench_path(workload: str, root: Path = ROOT) -> Path:
    return root / f"BENCH_{workload}.json"


def load_entries(path: Path) -> List[dict]:
    if not path.exists():
        return []
    with open(path) as handle:
        return json.load(handle)


def check_order(pr: int, workloads: List[str], root: Path = ROOT) -> None:
    """Refuse a PR number older than the newest entry of any file."""
    for workload in workloads:
        entries = load_entries(bench_path(workload, root))
        if entries and entries[-1]["pr"] > pr:
            raise SystemExit(
                f"{bench_path(workload, root).name} already holds PR "
                f"{entries[-1]['pr']}; entries stay in PR order"
            )


def record(result: dict, pr: int, commits: Dict[str, str], better: Dict[str, str],
           bound: Dict[str, float], root: Path = ROOT) -> None:
    """Append ``result``'s entry to its workload's ``BENCH_*.json``."""
    verdicts = {v["metric"]: v for v in result["verdicts"]}
    metrics = {}
    for name in RECORDED_METRICS:
        verdict = verdicts[name]
        metrics[name] = {
            side: dict(zip(("q1", "median", "q3"), verdict[side]))
            for side in ("parent", "change")
        }
        metrics[name].update(
            delta=verdict["delta"], wins=verdict["wins"],
            verdict=verdict_word(verdict, better[name], bound[name]),
        )
    entry = {
        "pr": pr, "parent": commits["parent"], "change": commits["change"],
        "seed": result["seed"], "pairs": result["pairs"],
        "sim_digest_identical": result["digest_identical"], "metrics": metrics,
    }
    path = bench_path(result["workload"], root)
    entries = load_entries(path)
    entries.append(entry)
    with open(path, "w") as handle:
        handle.write(json.dumps(entries, indent=1) + "\n")


def seed_list(text: str) -> List[int]:
    """``"7,53"`` -> ``[7, 53]`` (argparse reports a bad seed by name)."""
    return [int(seed) for seed in text.split(",")]


def run_pairs(args, workload: str, seed: int, better: Dict[str, str]) -> dict:
    """``args.pairs`` alternating pairs of one workload at one seed,
    printed as they finish, then judged on every metric in
    ``args.metrics``."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    firsts: List[str] = []
    judged = args.metrics[0]
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        firsts.append(order[0])
        for side in order:
            runs[side].append(run_once(getattr(args, side), workload, seed))
        parent, change = runs["parent"][-1][judged], runs["change"][-1][judged]
        print(f"pair {pair + 1:2d} ({order[0]} first): parent {parent:.6g}  "
              f"change {change:.6g}  ({change / parent - 1:+.1%})", flush=True)
    digests = {run["sim_digest"] for side in runs.values() for run in side}
    print(f"{workload} seed {seed}, {args.pairs} pairs; sim_digest "
          f"{'identical' if len(digests) == 1 else 'DIFFERS'} across all runs")
    verdicts = []
    for metric in args.metrics:
        parent = [run[metric] for run in runs["parent"]]
        change = [run[metric] for run in runs["change"]]
        verdict = judge(metric, better[metric], parent, change)
        verdict["by_first"] = split_by_first(firsts, parent, change)
        verdicts.append(verdict)
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = verdict["parent"], verdict["change"]
        print(f"{metric}: parent {p_med:.6g} [{p_q1:.6g} .. {p_q3:.6g}]  change "
              f"{c_med:.6g} [{c_q1:.6g} .. {c_q3:.6g}]  medians "
              f"{verdict['delta']:+.1%}; change wins {verdict['wins']}/{args.pairs}, "
              f"ties {verdict['ties']}; parent IQR {verdict['parent_iqr']:.6g} -> "
              f"{'gain' if verdict['gain'] else 'no resolvable gain'}")
        print("  by first side: " + "; ".join(
            f"{first} first ({half['pairs']}): parent {half['parent']:.6g} change "
            f"{half['change']:.6g} ({half['change'] / half['parent'] - 1:+.1%})"
            for first, half in verdict["by_first"].items()
        ))
    return {
        "workload": workload, "seed": seed, "pairs": args.pairs,
        "digest_identical": len(digests) == 1, "verdicts": verdicts, "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent"), parser.add_argument("change")
    parser.add_argument("--workload", required=True,
                        help="a BENCHMARK.json workload name, or 'all'")
    parser.add_argument("--seed", type=seed_list, default=[7], metavar="SEED[,SEED...]",
                        help="one table per seed (default 7)")
    parser.add_argument("-n", "--pairs", type=int, default=10)
    parser.add_argument("--metrics", nargs="+", default=["sim_ops_per_host_s"])
    parser.add_argument("--json", metavar="OUT", help="write runs and verdicts here")
    parser.add_argument("--record", type=int, metavar="PR",
                        help="append each (workload, seed) to BENCH_<workload>.json")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    if args.record is not None:
        args.metrics += [m for m in RECORDED_METRICS if m not in args.metrics]
    with open(f"{args.parent}/BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]
    if args.record is not None:
        check_order(args.record, workloads)
        commits = {side: commit_of(getattr(args, side)) for side in ("parent", "change")}
    results = []
    for seed in args.seed:
        of_seed = [run_pairs(args, workload, seed, better) for workload in workloads]
        results.extend(of_seed)
        if len(of_seed) > 1 or len(args.seed) > 1:
            print(f"\nseed {seed}\n{'workload':16s}{'metric':20s}{'parent':>12s}"
                  f"{'change':>12s}{'delta':>8s}{'wins':>7s}  verdict")
            for result in of_seed:
                for verdict in result["verdicts"]:
                    metric = verdict["metric"]
                    word = verdict_word(verdict, better[metric], bound[metric])
                    if not result["digest_identical"]:
                        word += ", sim_digest DIFFERS"
                    print(f"{result['workload']:16s}{verdict['metric']:20s}"
                          f"{verdict['parent'][1]:12.6g}{verdict['change'][1]:12.6g}"
                          f"{verdict['delta']:+8.1%}"
                          f"{verdict['wins']:4d}/{result['pairs']:<2d}  {word}")
            print(flush=True)
        if args.record is not None:
            for result in of_seed:
                record(result, args.record, commits, better, bound)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
