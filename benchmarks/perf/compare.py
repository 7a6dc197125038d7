"""Compare two result files written by ``run.py --json``.

    python benchmarks/perf/compare.py A.json B.json

A is the parent (or the first set of runs), B the change (or the second
set).  For every workload and end-to-end metric it prints both medians
and quartiles, the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the run-to-run spread (distance between the first
  and third quartile, as a share of the median) of either side is wider
  than the bound, so the files cannot settle the question;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than both spreads;
* ``same`` — anything else.

It also prints whether the two sides' ``sim_digest`` agree: a change
that only speeds the simulator up must leave them equal.  The exit code
is 1 when any verdict is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from run import quartiles  # noqa: E402


def spread(stats: Dict[str, float]) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def verdict(a: Dict[str, float], b: Dict[str, float], entry: Dict[str, object]) -> str:
    sign = 1.0 if entry["better"] == "lower" else -1.0
    if entry["bound"] == 0.0:
        # Absolute bound: any move in the bad direction is a regression.
        change = sign * (b["median"] - a["median"])
        return "worse" if change > 0 else "better" if change < 0 else "same"
    spreads = max(spread(a), spread(b))
    if spreads > entry["bound"]:
        return "unresolved"
    worsening = sign * (b["median"] - a["median"]) / a["median"]
    if worsening > entry["bound"]:
        return "worse"
    if worsening < -spreads and worsening < 0:
        return "better"
    return "same"


def by_workload(path: str) -> Dict[str, List[Dict[str, object]]]:
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    out: Dict[str, List[Dict[str, object]]] = {}
    for doc in runs:
        out.setdefault(doc["workload"], []).append(doc)
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    contract = spec.load_contract()
    entries = contract["end_to_end"] + [spec.FAILED_SHARE]
    side_a, side_b = by_workload(argv[0]), by_workload(argv[1])
    bad = 0
    for workload in spec.workload_names(contract):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            print(f"== {workload}: missing from one file, skipped ==")
            continue
        print(f"== {workload}  (A: {len(runs_a)} runs, B: {len(runs_b)} runs) ==")
        for entry in entries:
            name = entry["name"]
            a, b = (
                quartiles(
                    [d["failed_share"] if name == "failed_share" else d["end_to_end"][name]
                     for d in runs]
                )
                for runs in (runs_a, runs_b)
            )
            result = verdict(a, b, entry)
            bad += result in ("worse", "unresolved")
            print(
                f"   {name:<20} A {a['median']:>12.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                f"  B {b['median']:>12.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                f"  bound {entry['bound']:<5} {entry['better']:<6} -> {result}"
            )
        digests_a = {d["sim_digest"] for d in runs_a}
        digests_b = {d["sim_digest"] for d in runs_b}
        if len(digests_a) > 1 or len(digests_b) > 1:
            state = "NOT REPEATABLE within one file"
            bad += 1
        else:
            state = "identical" if digests_a == digests_b else "DIFFERENT"
        print(f"   sim_digest: {state}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
