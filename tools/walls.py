"""Wall time of the tier-1 suite and of ``repro all --smoke``, parent and
change, appended to ``BENCH_walls.json``.

    python tools/walls.py PARENT CHANGE --record PR

PARENT and CHANGE are two git checkouts of this repository.  In each,
one after the other, the tool times the tier-1 suite
(``python -m pytest -q`` with ``src`` on the path) and counts the tests
it passed, then times ``python -m repro all --smoke``.  A run that fails
stops the tool before anything is written.  ``--record PR`` appends one
entry to ``BENCH_walls.json`` at the root of this repository: the PR
number, both commits (``+dirty`` when a work tree has uncommitted
changes) and, for each side, the two walls and the test count.  Entries
stay in PR order; an older PR number is refused before anything runs.
Without ``--record`` the entry is only printed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_pairs import commit_of, load_entries  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WALLS = "BENCH_walls.json"
SIDE_FIELDS = ("tier1_wall_s", "tier1_tests", "smoke_wall_s")


def _timed(checkout: str, argv) -> "tuple[float, str]":
    env = {**os.environ, "PYTHONPATH": "src"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv)} failed\n{done.stdout[-2000:]}")
    return wall, done.stdout


def measure(checkout: str) -> Dict[str, float]:
    """One side's tier-1 wall and test count and smoke wall."""
    tier1_wall, out = _timed(
        checkout, ["-m", "pytest", "-o", "addopts=", "-q", "-p", "no:cacheprovider"]
    )
    passed = re.search(r"(\d+) passed", out)
    if passed is None or re.search(r"\d+ (failed|error)", out):
        raise SystemExit(f"{checkout}: the tier-1 suite did not pass cleanly")
    smoke_wall, _ = _timed(checkout, ["-m", "repro", "all", "--smoke"])
    return {
        "tier1_wall_s": round(tier1_wall, 2),
        "tier1_tests": int(passed.group(1)),
        "smoke_wall_s": round(smoke_wall, 2),
    }


def check_order(pr: int, root: Path = ROOT) -> None:
    entries = load_entries(root / WALLS)
    if entries and pr < entries[-1]["pr"]:
        raise SystemExit(
            f"PR order: {WALLS} already holds PR {entries[-1]['pr']}, newer than {pr}"
        )


def record(entry: dict, root: Path = ROOT) -> None:
    path = root / WALLS
    entries = load_entries(path)
    entries.append(entry)
    with open(path, "w") as handle:
        handle.write(json.dumps(entries, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent"), parser.add_argument("change")
    parser.add_argument("--record", type=int, metavar="PR",
                        help=f"append the entry to {WALLS} under this PR number")
    args = parser.parse_args()
    if args.record is not None:
        check_order(args.record)
    entry = {
        "pr": args.record,
        "parent": commit_of(args.parent),
        "change": commit_of(args.change),
        "sides": {"parent": measure(args.parent), "change": measure(args.change)},
    }
    print(json.dumps(entry, indent=1))
    if args.record is not None:
        record(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
