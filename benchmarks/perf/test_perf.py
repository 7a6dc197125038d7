"""Self-tests of the perf observatory at ``--scale tiny``.

    python -m pytest benchmarks/perf -q

Not part of the tier-1 collection (``testpaths = ["tests"]``).  Every
workload runs once, traced, in a module-scoped fixture; the other tests
add the few extra runs they need, so the whole file stays under 30 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from array import array

import pytest

import run
import spec
from layertrace import CLIENT, LAYER_NAMES, LayerTrace

sys.path.insert(0, str(run.SRC))

SEED = 7
SECONDS = 0.05  # tiny windows: the SIM_WINDOWS minimum decides the length
CONTRACT = spec.load_contract()
WORKLOADS = spec.workload_names(CONTRACT)


def tiny(workload: str, seed: int = SEED, trace: int = 0, corrupt: bool = False):
    return run.run_child(workload, seed, SECONDS, trace, "tiny", corrupt)


@pytest.fixture(scope="module")
def traced():
    return {workload: tiny(workload, trace=1) for workload in WORKLOADS}


def test_names_match_benchmark_json(traced):
    notes = spec.load_notes()
    end_to_end = set(spec.metric_table(CONTRACT, "end_to_end"))
    per_layer = set(spec.metric_table(CONTRACT, "per_layer"))
    assert set(traced) == set(WORKLOADS)
    assert end_to_end | per_layer | {"failed_share"} == set(notes)
    for doc in traced.values():
        assert set(doc["end_to_end"]) == end_to_end
        assert set(doc["per_layer"]) == per_layer
        assert all(doc["checks"].values()), doc["checks"]
        assert doc["wrong"] == 0


def test_driver_command_prints_the_contract_line():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "serve_steady",
             "--seed", "3", "--seconds", str(SECONDS), "--trace", str(trace),
             "--scale", "tiny"],
            stdout=subprocess.PIPE, text=True, cwd=str(spec.ROOT),
        )
        assert done.returncode == 0
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        expected = spec.metric_table(CONTRACT, section)
        assert set(last["metrics"]) == set(expected)
        for name, metric in last["metrics"].items():
            assert metric["unit"] == expected[name]["unit"]


def test_digest_is_a_function_of_the_seed_not_of_tracing(traced):
    for workload in WORKLOADS:
        untraced = tiny(workload)
        assert untraced["sim_digest"] == traced[workload]["sim_digest"], workload
    assert tiny("closed_fill", seed=SEED + 1)["sim_digest"] != (
        traced["closed_fill"]["sim_digest"]
    )


def test_layer_self_times_add_up_to_the_traced_wall(traced):
    for workload, doc in traced.items():
        layers = doc["per_layer"]
        shares = sum(layers[f"{name}.host_share"] for name in LAYER_NAMES + (CLIENT,))
        assert shares == pytest.approx(1.0, abs=0.01), workload
        assert layers[f"{CLIENT}.host_self_s"] >= 0.0, workload
        assert layers["trace.spans"] > 0
        assert layers["trace.overhead_ratio"] > 0.0


def test_self_time_counts_nested_same_layer_calls_once():
    # engine(0..100) -> backend(10..60) -> backend(20..50) -> device(30..40)
    trace = LayerTrace()
    trace.func_names = ["E.set", "B.write_region", "Z.write_region", "D.write"]
    trace.func_layers = ["engine", "backend", "backend", "device"]
    trace.func = array("q", [0, 1, 2, 3])
    trace.start = array("q", [0, 10, 20, 30])
    trace.end = array("q", [100, 60, 50, 40])
    trace.parent = array("q", [-1, 0, 1, 2])
    trace.nbytes = array("q", [0, 64, 0, 0])
    summary = trace.summary(wall_ns=120)
    assert summary["engine"]["host_self_s"] == pytest.approx(50e-9)
    assert summary["backend"]["host_self_s"] == pytest.approx(40e-9)
    assert summary["backend"]["calls"] == 1  # the inner call is not outermost
    assert summary["device"]["host_self_s"] == pytest.approx(10e-9)
    assert summary[CLIENT]["host_self_s"] == pytest.approx(20e-9)
    assert sum(layer["host_share"] for layer in summary.values()) == pytest.approx(1.0)
    assert trace.bytes_by_function("backend", "write_region") == 64
    assert trace.op_ids().tolist() == [0, 0, 0, 0]


def test_wrappers_are_gone_after_the_context_exits():
    from repro.cache.engine import HybridCache
    from repro.serve.arrivals import PoissonArrivals

    targets = [
        (HybridCache, "get"),
        (HybridCache, "crash_recover"),
        (PoissonArrivals, "next_arrival_ns"),
    ]
    before = [cls.__dict__[name] for cls, name in targets]
    with LayerTrace():
        for (cls, name), original in zip(targets, before):
            assert cls.__dict__[name] is not original
    assert [cls.__dict__[name] for cls, name in targets] == before
    with pytest.raises(RuntimeError):
        with LayerTrace():
            raise RuntimeError("a failing workload must not leave wrappers behind")
    assert [cls.__dict__[name] for cls, name in targets] == before


def test_oracle_turns_corrupted_gets_into_failed_ops():
    doc = tiny("closed_mix", corrupt=True)
    assert doc["wrong"] > 0
    assert doc["failed_share"] > 0
    assert doc["checks"]["oracle"] is False
    assert not run.is_correct(doc)
