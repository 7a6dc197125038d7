"""The experiment registry: one entry point, typed rejections, and every
experiment's rows pinned against the commit before the sweeps were
folded into one fleet cell (``golden_sweep_rows.json``)."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.bench.experiments import EXPERIMENTS, run_sweep, sweep_cells
from repro.bench.fleet import FleetCell, fleet_row, run_fleet_cell
from repro.errors import ConfigError

# Rows of all 14 experiments at the registry's smoke sizes, dumped from
# the parent commit's run_* functions with the same kwargs — old column
# names, old shapes.  The declared differences, complete:
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_sweep_rows.json").read_text(encoding="utf-8")
)
RENAMED = {
    "rerouted_web": "web_rerouted",
    "rerouted_batch": "batch_rerouted",
    "cluster_waf_app_max": "waf_app_max",
    "cluster_waf_device_max": "waf_device_max",
}
# `serve` alone emitted one row per (scheme, load, tenant); it now emits
# one per (scheme, load) with the tenant's columns prefixed by its name.
SERVE_CELL_COLUMNS = ("scheme", "offered_total_kops", "num_shards")


def _serve_rows_reshaped(tenant_rows):
    cells = {}
    for old in tenant_rows:
        cell = cells.setdefault((old["scheme"], old["offered_total_kops"]), {})
        for column, value in old.items():
            if column in SERVE_CELL_COLUMNS or column.startswith("cluster_"):
                assert cell.setdefault(RENAMED.get(column, column), value) == value
            elif column != "tenant":
                cell[f"{old['tenant']}_{column}"] = value
    return list(cells.values())


def test_registry_names_all_fourteen_experiments():
    assert sorted(EXPERIMENTS) == sorted(GOLDEN)
    assert len(EXPERIMENTS) == 14


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_smoke_rows_equal_rows_pinned_from_parent(name, sweep_rows):
    rows = sweep_rows(name)
    if name == "serve":
        pinned = _serve_rows_reshaped(GOLDEN[name])
        # The new table prints a selection of the per-tenant columns;
        # every one it prints is pinned.
        assert all(set(row) <= set(want) for row, want in zip(rows, pinned))
        pinned = [{c: want[c] for c in row} for row, want in zip(rows, pinned)]
    else:
        pinned = [
            {RENAMED.get(column, column): value for column, value in old.items()}
            for old in GOLDEN[name]
        ]
    assert len(rows) == len(pinned)
    for index, (row, want) in enumerate(zip(rows, pinned)):
        assert list(row) == list(want), (name, index)  # same columns, same order
        for column, value in want.items():
            assert row[column] == value, (name, index, column)


def test_every_registered_override_is_an_axis_or_a_cell_field():
    for exp in EXPERIMENTS.values():
        assert set(exp.quick) <= exp.params, exp.name
        assert set(exp.smoke) <= exp.params, exp.name


def test_cell_rejects_unknown_preset_and_unpaired_bumps():
    with pytest.raises(ConfigError):
        FleetCell(shards=("Region-Cache",), reclaim="aggressive")
    with pytest.raises(ConfigError):
        FleetCell(shards=("Region-Cache",), bumps=(0.3, 0.5))


def test_sweep_cells_refuses_a_closed_loop_experiment():
    with pytest.raises(ConfigError):
        sweep_cells("fig2")


def test_mixed_fleet_is_the_general_case():
    """Per-shard scheme tuple: a Region+Zone fleet runs through the same
    cell, and the gc_* fold takes the first shard that reclaims."""
    (_, cell), *_ = sweep_cells(
        "serve", "smoke", schemes=("Zone-Cache",), num_shards=1
    )
    mixed = replace(cell, shards=("Zone-Cache", "Region-Cache"), seed=8)
    row = fleet_row(run_fleet_cell(mixed))
    assert row["num_shards"] == 2
    assert row["gc_layer"] == "ztl"
    assert row["cluster_served"] > 0


# --- CLI: everything derived from the registry --------------------------------


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_smoke_flag_reaches_every_experiment(name, monkeypatch, capsys):
    """Regression: ``--smoke`` fell through to the *full-scale* run for
    every experiment without a smoke twin (fig2..fig5, table1, table2)."""
    calls = []

    def fake_run_sweep(name, size, memo=None):
        calls.append((name, size))
        return [{"scheme": "x"}]

    monkeypatch.setattr(cli, "run_sweep", fake_run_sweep)
    assert cli.run([name, "--smoke"]) == 0
    assert calls == [(name, "smoke")]
    assert EXPERIMENTS[name].title in capsys.readouterr().out


def test_fig2_smoke_through_the_cli_is_the_pinned_grid(sweep_rows, monkeypatch, tmp_path):
    """``repro fig2 --smoke`` returns the 12-zone rows the fig2 goldens
    pin (read through the session memo: the grid is computed once)."""
    monkeypatch.setattr(
        cli, "run_sweep", lambda name, size, memo=None: sweep_rows(name, size)
    )
    out = tmp_path / "fig2.csv"
    assert cli.run(["fig2", "--smoke", "--csv", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + len(GOLDEN["fig2"])
    header = lines[0].split(",")
    cache_mib = [line.split(",")[header.index("cache_mib")] for line in lines[1:]]
    assert cache_mib == ["36", "48", "36", "36"]  # 9 of 12 zones; Zone-Cache all 12


def test_all_runs_the_projection_off_its_source(monkeypatch, capsys):
    """``repro all`` hands one memo to every run, so table1 reuses the
    fig4 rows instead of repeating the OP sweep."""
    memos = []
    monkeypatch.setattr(
        cli, "run_sweep", lambda name, size, memo=None: memos.append(memo) or []
    )
    assert cli.run(["all", "--smoke"]) == 0
    assert len(memos) == 14 and all(memo is memos[0] for memo in memos)
    assert memos[0] is not None


def test_table1_reuses_memoized_fig4_rows():
    fig4 = [
        {"scheme": "Region-Cache", "op_ratio": 0.1, "waf_app": 1.5},
        {"scheme": "Zone-Cache", "op_ratio": 0.0, "waf_app": 1.0},
    ]
    rows = run_sweep("table1", "smoke", {("fig4", "smoke"): fig4})
    assert rows == [{"scheme": "Region-Cache", "op_ratio": 0.1, "waf": 1.5}]


def test_parser_choices_and_help_come_from_the_registry():
    parser = cli.build_parser()
    text = parser.format_help()
    for name, exp in EXPERIMENTS.items():
        assert name in text and exp.title in text
    assert parser.parse_args(["fault", "--smoke"]).experiment == "fault"


def test_plot_renders_for_every_registered_spec(sweep_rows):
    for name in ("fig3", "gc-qos", "table2"):
        chart = cli.render_plot(EXPERIMENTS[name].plot, sweep_rows(name))
        assert EXPERIMENTS[name].plot.title in chart
