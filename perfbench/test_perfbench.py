"""Tests of the benchmark itself: inputs, oracle and metric names.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, cli_argv, make_inputs, write_inputs  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _edges(text):
    return [
        tuple(int(x) for x in line.split())
        for line in text.splitlines() if not line.startswith("#")
    ]


# -- the generator -----------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_writes_identical_bytes(workload, tmp_path):
    write_inputs(workload, 7, tmp_path / "a")
    write_inputs(workload, 7, tmp_path / "b")
    for name in ("graph.txt", "input.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seeds_give_different_inputs(workload):
    seen = {json.dumps(make_inputs(workload, seed)) for seed in range(1, 11)}
    assert len(seen) == 10


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_simple_connected_graphs(workload):
    text, params = make_inputs(workload, 3)
    edges = _edges(text)
    n = params["nodes"]
    assert len(set(edges)) == len(edges)
    assert all(0 <= u < v < n for u, v in edges)
    assert 0 <= params["root"] < n
    from repro.graphs import Graph
    from repro.graphs.properties import is_connected

    assert is_connected(Graph(n, edges))


def test_grid_workloads_share_inputs_per_seed():
    assert make_inputs("event-cfp-grid", 5) == make_inputs("shard-ckpt-grid", 5)


def test_only_chaos_gets_a_fault_seed_and_only_shard_a_checkpoint_dir():
    for name, spec in WORKLOADS.items():
        _text, params = make_inputs(name, 1)
        assert ("fault_seed" in params) == (spec.command == "chaos")
    with pytest.raises(ValueError):
        cli_argv("shard-ckpt-grid", {"graph": "g", "root": 0})


# -- the oracle --------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A real driver run of ``repro bc`` on a 4x4 grid, traced."""
    from repro.graphs import grid_graph, write_edge_list

    work = tmp_path_factory.mktemp("small")
    graph = work / "graph.txt"
    write_edge_list(grid_graph(4, 4), graph)
    argv = ["bc", "--file", str(graph), "--root", "5", "--protocol",
            "hua-bc", "--arithmetic", "lfloat", "--engine", "event"]
    result = run.spawn(argv, work, work / "trace", timeout=60)
    exact = oracle.reference(graph, work / "cache")
    return result, exact, work


def test_driver_run_passes_every_check(small_run):
    result, exact, _work = small_run
    assert oracle.run_failures(result.record, "event", exact) == []
    assert 0 < oracle.bc_err_ratio(result.record, exact) <= 1


def test_reference_is_cached(small_run):
    _result, exact, work = small_run
    assert len(list((work / "cache").glob("brandes-*.json"))) == 1
    assert oracle.reference(work / "graph.txt", work / "cache") == exact


def test_oracle_rejects_a_perturbed_betweenness_map(small_run):
    from repro.arithmetic.errors import theorem1_bound

    result, exact, _work = small_run
    record = dict(result.record)
    bound = theorem1_bound(record["precision"], record["nodes"], record["diameter"])
    hub = max(range(len(exact)), key=lambda v: exact[v])
    bc = list(record["betweenness"])
    bc[hub] *= 1 + 2 * bound
    record["betweenness"] = bc
    assert "betweenness outside the Theorem 1 bound" in oracle.run_failures(
        record, "event", exact
    )


def test_oracle_rejects_a_zero_that_is_not_zero():
    assert oracle.max_relative_error([0.5], [Fraction(0)]) == float("inf")


def test_oracle_rejects_the_wrong_engine(small_run):
    result, exact, _work = small_run
    failures = oracle.run_failures(result.record, "bulk", exact)
    assert any(reason.startswith("engine event ran") for reason in failures)


def test_oracle_rejects_runs_that_do_not_repeat(small_run):
    result, exact, _work = small_run
    first = dict(result.record, bits=result.record["bits"] + 1)
    assert oracle.run_failures(result.record, "event", exact, first) == [
        "bits differs between runs"
    ]


def test_oracle_rejects_failed_and_incomplete_runs(small_run):
    result, exact, _work = small_run
    record = dict(result.record, exit_code=1, complete=False)
    failures = oracle.run_failures(record, "event", exact)
    assert "exit code 1" in failures and "incomplete result" in failures
    assert oracle.run_failures(None, "event", exact) == ["no result record"]


# -- metric names ------------------------------------------------------

def test_end_to_end_names_match_benchmark_json(small_run):
    result, _exact, _work = small_run
    metrics = run.end_to_end([result], attempted=1, failed=0)
    assert set(metrics) == {entry["name"] for entry in DECLARED["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_per_layer_names_match_benchmark_json(small_run):
    result, exact, work = small_run
    result.layers = run.per_layer(result, run._worker_files(work / "trace"), exact)
    metrics = run.layer_metrics([result], [result], goodput=0.0)
    assert set(metrics) == {entry["name"] for entry in DECLARED["per_layer"]}
    assert set(run.LAYER_MOVES) == set(metrics)
    assert metrics["protocols.step_calls"] > 0
    assert metrics["engines.bulk.run_s"] == 0
    assert metrics["shard.runtime.barriers"] == 0
    assert metrics["faults.injector.injected"] == 0
    assert 0.5 < metrics["trace.accounted_fraction"] <= 1.0


def test_benchmark_json_declares_every_workload():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert DECLARED["paths"] == ["perfbench"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-ba",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
