"""Command-line interface: regenerate any of the paper's results.

Examples::

    python -m repro fig2                  # Figure 2 at default scale
    python -m repro table1 --quick        # faster, smaller run
    python -m repro fig5 --csv out.csv    # also dump rows as CSV
    python -m repro all --smoke           # every experiment, CI-sized
    python -m repro profile serve --smoke # cProfile a run, top-N by cumtime

What can be named, and what ``--quick`` / ``--smoke`` / ``--plot`` do for
it, comes from the registry in :mod:`repro.bench.experiments`.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS, Plot, Rows, run_sweep
from repro.bench.plots import line_plot, scheme_bars
from repro.bench.reporting import format_table, rows_to_csv


def _add_size_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick", action="store_true", help="smaller/faster run (coarser numbers)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=(
            "the experiment's CI-sized grid: seconds, not minutes, still "
            "driving every code path of the full run (wins over --quick)"
        ),
    )


def _size(args: argparse.Namespace) -> str:
    return "smoke" if args.smoke else "quick" if args.quick else "full"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the evaluation of 'Can ZNS SSDs be Better Storage "
            "Devices for Persistent Cache?' (HotStorage '24)."
        ),
        epilog="experiments:\n" + "\n".join(
            f"  {name:<11} {exp.title}" for name, exp in sorted(EXPERIMENTS.items())
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which result to regenerate",
    )
    _add_size_flags(parser)
    parser.add_argument(
        "--csv", metavar="PATH", help="also write result rows to a CSV file"
    )
    parser.add_argument(
        "--max-rows", type=int, default=40,
        help="max rows to print per experiment (fig3 emits thousands)",
    )
    parser.add_argument(
        "--plot", action="store_true",
        help="also render an ASCII chart of each result's shape",
    )
    return parser


def render_plot(plot: Plot, rows: Rows) -> str:
    """The ASCII chart a registry entry's :class:`Plot` describes."""
    if plot.line_of is not None:
        column, wanted = plot.line_of
        series = [row[plot.value] for row in rows if row[column] == wanted]
        return line_plot(series, title=plot.title)
    labeled = [
        {**row, "label": "/".join(f"{row[column]}" for column in plot.labels)}
        for row in rows
    ]
    return scheme_bars(labeled, plot.value, label_key="label", title=plot.title)


def _run_profile(argv: List[str]) -> int:
    """``repro profile <experiment> [--smoke]``: cProfile one run.

    Perf work should start from data, not guesses — this prints the
    top-N functions by cumulative time for exactly the code path the
    named experiment runs.
    """
    import cProfile
    import pstats

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one experiment under cProfile and print hot functions.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS),
        help="which experiment to profile",
    )
    _add_size_flags(parser)
    parser.add_argument(
        "--top", type=int, default=25,
        help="how many functions to print (default 25)",
    )
    parser.add_argument(
        "--sort", choices=("cumulative", "tottime"), default="cumulative",
        help="stat ordering (default cumulative)",
    )
    args = parser.parse_args(argv)
    profiler = cProfile.Profile()
    started = time.time()
    profiler.enable()
    rows = run_sweep(args.experiment, _size(args))
    profiler.disable()
    elapsed = time.time() - started
    print(
        f"profiled {args.experiment} ({_size(args)}): "
        f"{len(rows)} result rows in {elapsed:.2f}s wall clock\n"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


def run(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "profile":
        return _run_profile(argv[1:])
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    all_rows: List[dict] = []
    # One memo per invocation: under `all`, a projection (table1) reuses
    # the rows its source experiment (fig4) just produced.
    memo: dict = {}
    for name in names:
        started = time.time()
        print(f"running {name} ...", flush=True)
        rows = run_sweep(name, _size(args), memo)
        elapsed = time.time() - started
        shown = rows[: args.max_rows]
        print(format_table(shown, title=EXPERIMENTS[name].title))
        if len(rows) > len(shown):
            print(f"... ({len(rows) - len(shown)} more rows)")
        if args.plot:
            print()
            print(render_plot(EXPERIMENTS[name].plot, rows))
        print(f"({elapsed:.1f}s wall clock)\n")
        for row in rows:
            all_rows.append({"experiment": name, **row})
    if args.csv:
        columns = sorted({key for row in all_rows for key in row})
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(rows_to_csv(all_rows, columns=columns) + "\n")
        print(f"wrote {len(all_rows)} rows to {args.csv}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(run())
