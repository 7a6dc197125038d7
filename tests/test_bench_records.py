"""The checked-in ``BENCH_<workload>.json`` files and the tool that
appends to them (``tools/ab_pairs.py --record PR``), and
``BENCH_walls.json`` with its tool (``tools/walls.py --record PR``).

Every entry of every file has the schema ``record`` writes (plus, at
most, a hand-written ``note`` string), and a file's entries are in PR
order.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)
_spec = importlib.util.spec_from_file_location("walls", ROOT / "tools" / "walls.py")
walls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(walls)

COMMIT = re.compile(r"[0-9a-f]{40}(\+dirty)?")
BETTER = {"sim_ops_per_host_s": "higher", "setup_s": "lower", "peak_rss_mib": "lower"}
BOUND = {"sim_ops_per_host_s": 0.25, "setup_s": 0.25, "peak_rss_mib": 0.15}
VERDICTS = {"gain", "within bound", "REGRESSION"}
BENCH_FILES = sorted(p for p in ROOT.glob("BENCH_*.json") if p.name != walls.WALLS)


def _workloads():
    with open(ROOT / "BENCHMARK.json") as handle:
        return {w["name"]: w for w in json.load(handle)["workloads"]}


def check_entries(entries: list) -> None:
    assert isinstance(entries, list) and entries
    for entry in entries:
        # A "note" is added by hand, to tell apart passes of one PR.
        assert set(entry) - {"note"} == {
            "pr", "parent", "change", "seed", "pairs", "sim_digest_identical",
            "metrics",
        }, entry
        assert type(entry.get("note", "")) is str
        assert type(entry["pr"]) is int and entry["pr"] > 0
        assert COMMIT.fullmatch(entry["parent"]), entry["parent"]
        assert COMMIT.fullmatch(entry["change"]), entry["change"]
        assert type(entry["seed"]) is int
        assert type(entry["pairs"]) is int and entry["pairs"] >= 2
        assert type(entry["sim_digest_identical"]) is bool
        assert set(entry["metrics"]) == set(ab_pairs.RECORDED_METRICS)
        for metric in entry["metrics"].values():
            assert set(metric) == {"parent", "change", "delta", "wins", "verdict"}
            for side in ("parent", "change"):
                assert set(metric[side]) == {"q1", "median", "q3"}
                assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
            assert metric["delta"] == pytest.approx(
                metric["change"]["median"] / metric["parent"]["median"] - 1
            )
            assert 0 <= metric["wins"] <= entry["pairs"]
            assert metric["verdict"] in VERDICTS
    prs = [entry["pr"] for entry in entries]
    assert prs == sorted(prs), f"entries out of PR order: {prs}"


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_schema_and_pr_order(path):
    workload = path.stem[len("BENCH_"):]
    assert workload in _workloads(), f"{path.name} names no BENCHMARK.json workload"
    with open(path) as handle:
        text = handle.read()
    entries = json.loads(text)
    check_entries(entries)
    assert text == json.dumps(entries, indent=1) + "\n", "not the tool's layout"


def _result(workload: str, seed: int, base: float) -> dict:
    """What ``run_pairs`` returns, for four made-up pairs."""
    verdicts = []
    for metric in ab_pairs.RECORDED_METRICS:
        parent = [base, base * 1.01, base * 0.99, base * 1.02]
        change = [v * 1.3 for v in parent]
        verdicts.append(ab_pairs.judge(metric, BETTER[metric], parent, change))
    return {"workload": workload, "seed": seed, "pairs": 4,
            "digest_identical": True, "verdicts": verdicts}


def test_record_appends_in_pr_order_and_writes_the_checked_schema(tmp_path):
    commits = {"parent": "a" * 40, "change": "b" * 40 + "+dirty"}
    for pr, seed in ((3, 7), (3, 11), (5, 7)):
        ab_pairs.record(_result("lsm_secondary", seed, 100.0), pr, commits, BETTER,
                        BOUND, root=tmp_path)
    path = tmp_path / "BENCH_lsm_secondary.json"
    entries = json.loads(path.read_text())
    check_entries(entries)
    assert [(e["pr"], e["seed"]) for e in entries] == [(3, 7), (3, 11), (5, 7)]
    metrics = entries[0]["metrics"]
    assert metrics["sim_ops_per_host_s"]["verdict"] == "gain"
    assert metrics["setup_s"]["verdict"] == "REGRESSION"  # +30% where lower is better
    assert metrics["peak_rss_mib"]["wins"] == 0
    ab_pairs.check_order(5, ["lsm_secondary"], root=tmp_path)
    with pytest.raises(SystemExit, match="PR order"):
        ab_pairs.check_order(4, ["lsm_secondary"], root=tmp_path)


def test_split_by_first_on_a_synthetic_pair_list(monkeypatch, capsys):
    """Each side's median over the pairs each side ran first, printed and
    kept in the verdict as ``by_first``; the verdict itself is unchanged.
    Here the side that runs second reads 3 higher, as on a busy machine."""
    parent = [10.0, 24.0, 12.0, 22.0, 11.0, 23.0]
    change = [13.0, 21.0, 15.0, 19.0, 14.0, 20.0]
    firsts = ["parent", "change"] * 3
    assert ab_pairs.split_by_first(firsts, parent, change) == {
        "parent": {"pairs": 3, "parent": 11.0, "change": 14.0},
        "change": {"pairs": 3, "parent": 23.0, "change": 20.0},
    }
    assert ab_pairs.split_by_first(["change"] * 2, [1.0, 2.0], [3.0, 4.0]) == {
        "change": {"pairs": 2, "parent": 1.5, "change": 3.5},
    }
    # run_pairs alternates, parent first in the first pair.
    values = {"parent": iter(parent), "change": iter(change)}
    ran = []

    def run_once(checkout, workload, seed):
        ran.append(checkout)
        return {"sim_digest": "d", "setup_s": next(values[checkout])}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    args = argparse.Namespace(parent="parent", change="change", pairs=6,
                              metrics=["setup_s"])
    result = ab_pairs.run_pairs(args, "lsm_secondary", 7, BETTER)
    assert ran == ["parent", "change", "change", "parent"] * 3
    verdict = result["verdicts"][0]
    assert verdict.pop("by_first") == ab_pairs.split_by_first(firsts, parent, change)
    assert verdict == ab_pairs.judge("setup_s", "lower", parent, change)
    out = capsys.readouterr().out
    assert ("by first side: parent first (3): parent 11 change 14 (+27.3%); "
            "change first (3): parent 23 change 20 (-13.0%)") in out


def check_walls(entries: list) -> None:
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert set(entry) == {"pr", "parent", "change", "sides"}, entry
        assert type(entry["pr"]) is int and entry["pr"] > 0
        assert COMMIT.fullmatch(entry["parent"]), entry["parent"]
        assert COMMIT.fullmatch(entry["change"]), entry["change"]
        assert set(entry["sides"]) == {"parent", "change"}
        for side in entry["sides"].values():
            assert set(side) == set(walls.SIDE_FIELDS)
            assert type(side["tier1_tests"]) is int and side["tier1_tests"] > 0
            assert side["tier1_wall_s"] > 0 and side["smoke_wall_s"] > 0
    prs = [entry["pr"] for entry in entries]
    assert prs == sorted(prs), f"entries out of PR order: {prs}"


def test_walls_file_schema_and_pr_order():
    text = (ROOT / walls.WALLS).read_text()
    entries = json.loads(text)
    check_walls(entries)
    assert text == json.dumps(entries, indent=1) + "\n", "not the tool's layout"


def test_walls_record_appends_in_pr_order(tmp_path):
    side = {"tier1_wall_s": 80.5, "tier1_tests": 1300, "smoke_wall_s": 11.2}
    for pr in (3, 5):
        walls.check_order(pr, root=tmp_path)
        walls.record({"pr": pr, "parent": "a" * 40, "change": "b" * 40 + "+dirty",
                      "sides": {"parent": side, "change": side}}, root=tmp_path)
    check_walls(json.loads((tmp_path / walls.WALLS).read_text()))
    with pytest.raises(SystemExit, match="PR order"):
        walls.check_order(4, root=tmp_path)
