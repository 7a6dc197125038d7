"""Perf observatory runner: six workloads, host vs simulated metrics.

    python benchmarks/perf/run.py --all --seed 7 [--trace] [--json OUT]
    python benchmarks/perf/run.py --workload closed_mix --seed 7 --seconds 6 --trace 0

Each workload runs in a fresh child interpreter (``PYTHONHASHSEED=0``,
one load-generating thread), one after the other.  The runner prints
every metric by name with its unit and whether it is a **host** number
(what the simulator costs) or a **sim** number (what the modelled
hardware does), checks the outputs, and exits non-zero on any
correctness failure.  With ``--workload`` the last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

The model has no reference-hardware results in this repository: every
sim number is the output of an unvalidated model and carries no error
figure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

SRC = spec.ROOT / "src"
OUT = HERE / "out"
HISTORY = HERE / "history"
CHILD_TIMEOUT_S = 170


# --------------------------------------------------------------------------
# Child: run one workload in this process
# --------------------------------------------------------------------------

def child_main(args: argparse.Namespace) -> int:
    from hostspeed import SpeedSampler

    with SpeedSampler() as speed:
        started = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads
        from layertrace import LayerTrace

        import_wall_s = time.perf_counter() - started
    import_s = speed.at_reference_speed(import_wall_s)
    trace = LayerTrace() if args.trace else None
    result = workloads.run_workload(
        args.workload, args.scale, args.seed, args.seconds, trace, args.corrupt
    )
    metrics = workloads.end_to_end(result)
    # Imports are part of set-up: on the serving workloads the fleet
    # builds alone take ~30 ms, less than this machine resolves.
    metrics["setup_s"] += import_s
    metrics["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    attempted = result["attempted"]
    host = result["host"]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "sizes": result["sizes"],
        "loop": result["loop"],
        "caches": result["caches"],
        "attempted": attempted,
        "wrong": result["wrong"],
        "sim_refused": result["sim_refused"],
        # Simulated refusals are counted over the statistics windows,
        # wrong outputs over everything that ran.
        "failed_share": result["sim_refused"] / result["sim_attempted"]
        + result["wrong"] / attempted,
        "checks": result["checks"],
        "end_to_end": metrics,
        "host": {key: host[key] for key in (
            "window_min", "window_max", "raw_ops_per_host_s", "windows"
        )},
        "latency": workloads.latency_summary_us(result),
        "latency_samples": len(result["latency_ns"]),
        "sim_digest": result["sim_digest"],
        "schemes": result["schemes"],
    }
    if trace is not None:
        doc["per_layer"] = workloads.per_layer(result, trace)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}.trace.npz"
        trace.save(str(path))
        doc["trace_file"] = str(path.relative_to(spec.ROOT))
    print(json.dumps(doc))
    return 0


def run_child(
    workload: str, seed: int, seconds: float, trace: int, scale: str,
    corrupt: bool = False,
) -> Dict[str, object]:
    """Start one fresh interpreter for one workload and wait for it."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    ]
    if corrupt:
        command.append("--corrupt")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, cwd=str(spec.ROOT),
    )
    if done.returncode != 0:
        raise SystemExit(
            f"workload {workload} failed: child exited with {done.returncode} "
            "(an exception escaped the workload; see the traceback above)"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Parent: report, judge, record
# --------------------------------------------------------------------------

def is_correct(doc: Dict[str, object]) -> bool:
    return doc["wrong"] == 0 and all(doc["checks"].values())


def print_report(doc: Dict[str, object], contract, notes) -> None:
    end_to_end = spec.metric_table(contract, "end_to_end")
    print(f"== {doc['workload']}  seed={doc['seed']}  scale={doc['scale']} ==")
    print(f"   loop: {doc['loop']}; caches: {doc['caches']}")
    print(f"   sizes: {doc['sizes']}")
    host = doc["host"]
    rows = list(doc["end_to_end"].items()) + [("failed_share", doc["failed_share"])]
    for name, value in rows:
        entry = end_to_end.get(name, spec.FAILED_SHARE)
        extra = ""
        if name == "sim_ops_per_host_s":
            extra = (
                f"  (median of {host['windows']} windows at reference machine "
                f"speed; min {host['window_min']:.1f}, max {host['window_max']:.1f}; "
                f"unscaled {host['raw_ops_per_host_s']:.1f})"
            )
        elif name == "sim_tail_us":
            extra = f"  (slowest 1% of {doc['latency_samples']} samples)"
        print(
            f"   {name:<22}{value:>16.6g} {entry['unit']:<7} "
            f"[{notes[name]['kind']}]{extra}"
        )
    for name, value in doc["latency"].items():
        print(f"   {name:<22}{value:>16.6g} us      [sim]  (not in the contract)")
    print(f"   sim_digest            {doc['sim_digest']}")
    checks = ", ".join(
        f"{name}={'ok' if ok else 'FAILED'}" for name, ok in doc["checks"].items()
    )
    print(
        f"   attempted {doc['attempted']}, wrong outputs {doc['wrong']}, "
        f"simulated shed+failed {doc['sim_refused']}; checks: {checks}"
    )
    if "per_layer" in doc:
        per_layer = spec.metric_table(contract, "per_layer")
        print(f"   -- per-layer (traced window; spans in {doc['trace_file']}) --")
        for name, value in doc["per_layer"].items():
            unit = per_layer[name]["unit"]
            print(f"   {name:<36}{value:>16.6g} {unit:<7} [{notes[name]['kind']}]")
    print(
        "   sim numbers come from an unvalidated model: the repository holds "
        "no reference-hardware results, so no error figure is given."
    )


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def record_history(docs: List[Dict[str, object]], contract) -> None:
    """Append this invocation's runs to ``history/<workload>.json``."""
    HISTORY.mkdir(exist_ok=True)
    for workload in spec.workload_names(contract):
        runs = [d for d in docs if d["workload"] == workload]
        if not runs:
            continue
        entry = {
            "date": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "scale": runs[0]["scale"],
            "seed": runs[0]["seed"],
            "sizes": runs[0]["sizes"],
            "runs": len(runs),
            "end_to_end": {
                name: quartiles([d["end_to_end"][name] for d in runs])
                for name in runs[0]["end_to_end"]
            },
            "failed_share": runs[0]["failed_share"],
            "sim_digest": runs[0]["sim_digest"],
        }
        path = HISTORY / f"{workload}.json"
        history = json.loads(path.read_text()) if path.exists() else []
        history.append(entry)
        path.write_text(json.dumps(history, indent=1) + "\n")


def parent_main(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(
            f"benchmarks/perf/run.py: the simulator's sources are missing "
            f"({SRC / 'repro'}); nothing to measure.",
            file=sys.stderr,
        )
        return 2
    contract = spec.load_contract()
    notes = spec.load_notes()
    names = spec.workload_names(contract)
    if args.all:
        selected = names
    elif args.workload in names:
        selected = [args.workload]
    else:
        print(f"unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    docs: List[Dict[str, object]] = []
    for _ in range(args.repeat):
        for workload in selected:
            doc = run_child(workload, args.seed, seconds, args.trace, args.scale)
            docs.append(doc)
            print_report(doc, contract, notes)
    correct = all(is_correct(doc) for doc in docs)
    if args.json:
        meta = {
            "date": datetime.date.today().isoformat(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": seconds,
            "scale": args.scale,
            "repeat": args.repeat,
        }
        Path(args.json).write_text(json.dumps({"meta": meta, "runs": docs}, indent=1))
    if args.record:
        record_history(docs, contract)
    if not args.all:
        last = docs[-1]
        section = "per_layer" if args.trace else "end_to_end"
        table = spec.metric_table(contract, section)
        print(json.dumps({
            "correct": correct,
            "attempted": last["attempted"],
            "failed": last["wrong"] + sum(not ok for ok in last["checks"].values()),
            "metrics": {
                name: {"value": last[section][name], "unit": entry["unit"]}
                for name, entry in table.items()
            },
        }))
    if not correct:
        print("CORRECTNESS FAILURE (see the checks above)", file=sys.stderr)
        return 1
    return 0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="run one workload (the driver's form)")
    which.add_argument("--all", action="store_true", help="run all six workloads")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="measured time per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: trace one window per workload and print the per-layer metrics",
    )
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"),
        help="tiny is for test_perf.py only",
    )
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--json", help="write every run's document to this file")
    parser.add_argument(
        "--record", action="store_true",
        help="append this invocation's medians to history/<workload>.json",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
