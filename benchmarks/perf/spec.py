"""The benchmark's contract, loaded from the two JSON files that define it.

``BENCHMARK.json`` (repo root) names the workloads and every metric with
its unit, direction and regression bound.  ``metrics.json`` (beside this
file) adds what the root file's fixed schema has no room for: whether a
number is **host** (what the simulator costs) or **sim** (what the
modelled hardware does), its definition, and for each per-layer metric
which end-to-end metric it should move on which workload.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_contract() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def load_notes() -> Dict[str, Dict[str, str]]:
    with open(HERE / "metrics.json") as handle:
        return json.load(handle)


def metric_table(contract: Dict[str, object], section: str) -> Dict[str, Dict[str, object]]:
    """``end_to_end`` or ``per_layer`` entries keyed by metric name."""
    return {entry["name"]: entry for entry in contract[section]}


def workload_names(contract: Dict[str, object]) -> List[str]:
    return [entry["name"] for entry in contract["workloads"]]


# Reported beside the end-to-end metrics and judged by compare.py, but
# not listed in BENCHMARK.json: its healthy value is 0, and the root
# file's bounds are shares of the parent's median.
FAILED_SHARE = {
    "name": "failed_share",
    "unit": "ratio",
    "better": "lower",
    "bound": 0.0,
}
