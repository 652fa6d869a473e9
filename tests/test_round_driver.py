"""The round driver: every engine makes the same outer-loop decisions.

Sweep, event, the bulk replay and the shard coordinator all run through
``repro.congest.kernel.drive_rounds``, so a run cut short by its round
limit must look the same on each of them, counters included, and the
scheduling counters of a profiled run must agree between the event
engine and the shard coordinator.
"""

from __future__ import annotations

import pytest

from repro.arithmetic.context import make_context
from repro.congest import Simulator
from repro.congest.options import DEFAULT_CONGEST_FACTOR, RunOptions
from repro.core.config import ProtocolConfig
from repro.exceptions import (
    CongestViolationError,
    SimulationNotTerminatedError,
)
from repro.faults import CrashWindow, FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.transport import (
    RESILIENT_CONGEST_FACTOR,
    make_resilient_factory,
)
from repro.graphs import grid_graph, path_graph
from repro.obs.telemetry import Telemetry
from repro.protocols import get_protocol

_FAULTS = FaultPlan(
    seed=3,
    drop_rate=0.05,
    duplicate_rate=0.02,
    delay_rate=0.05,
    crashes=(CrashWindow(5, 10, 30),),
)


def _simulator(
    graph, engine, max_rounds=None, plan=None, telemetry=None, strict=False,
    factor=DEFAULT_CONGEST_FACTOR,
):
    """A hua-bc simulator on ``engine`` (shard runs on 2 workers)."""
    ctx = make_context("lfloat", graph.num_nodes)
    factory = get_protocol("hua-bc").build_factory(
        0, ctx, config=ProtocolConfig()
    )
    injector = None
    if plan is not None:
        factory = make_resilient_factory(factory)
        factor = RESILIENT_CONGEST_FACTOR
        injector = FaultInjector(plan, arith=ctx)
    return Simulator(
        graph,
        factory,
        options=RunOptions(
            engine=engine,
            workers=2 if engine == "shard" else 1,
            strict=strict,
            congest_factor=factor,
        ),
        max_rounds=max_rounds,
        faults=injector,
        telemetry=telemetry,
        protocol="hua-bc",
    )


def _cut_short(graph, engine, max_rounds, plan=None):
    sim = _simulator(graph, engine, max_rounds, plan)
    with pytest.raises(SimulationNotTerminatedError) as info:
        sim.run()
    return info.value, sim


@pytest.mark.parametrize(
    "graph", [path_graph(12), grid_graph(4, 4)], ids=lambda g: g.name
)
@pytest.mark.parametrize("max_rounds", [5, 30, 60])
def test_round_limit_parity_across_engines(graph, max_rounds):
    seen = {}
    for engine in ("sweep", "event", "bulk", "shard"):
        err, sim = _cut_short(graph, engine, max_rounds)
        assert sim.engine == engine
        stats = sim.stats
        seen[engine] = (
            err.round_number,
            err.round_limit,
            err.pending_nodes,
            stats.message_count,
            stats.bit_count,
            len(stats.round_series),
        )
    assert err.round_limit == max_rounds
    assert err.round_number == max_rounds + 1
    assert err.pending_nodes
    for engine in ("event", "bulk", "shard"):
        assert seen[engine] == seen["sweep"], engine


def _outcome(graph, engine, max_rounds):
    """A run's result or, when the round limit cuts it short, where."""
    sim = _simulator(graph, engine, max_rounds)
    try:
        stats = sim.run()
    except SimulationNotTerminatedError as err:
        stats = sim.stats
        return ("cut", err.round_number, err.pending_nodes,
                stats.message_count, len(stats.round_series))
    return ("done", stats.rounds, (), stats.message_count,
            len(stats.round_series))


@pytest.mark.parametrize(
    "graph", [path_graph(12), grid_graph(4, 4)], ids=lambda g: g.name
)
@pytest.mark.parametrize("slack", [-2, -1, 0])
def test_round_limit_at_the_last_round_agrees_across_engines(graph, slack):
    rounds = _simulator(graph, "event").run().rounds
    seen = {
        engine: _outcome(graph, engine, rounds + slack)
        for engine in ("sweep", "event", "bulk", "shard")
    }
    for engine in ("event", "bulk", "shard"):
        assert seen[engine] == seen["sweep"], engine


@pytest.mark.parametrize(
    "graph", [path_graph(12), grid_graph(4, 4)], ids=lambda g: g.name
)
def test_quiescence_wins_over_the_round_limit(graph):
    # rounds 0..R-1 all ran and the run is quiescent at round R, so a
    # limit of R - 1 still lets it terminate; R - 2 cuts a node short.
    reference = _simulator(graph, "event").run()
    rounds = reference.rounds
    for engine in ("sweep", "event", "bulk", "shard"):
        sim = _simulator(graph, engine, rounds - 1)
        stats = sim.run()
        assert sim.engine == engine
        assert stats.rounds == rounds, engine
        assert stats.summary() == reference.summary(), engine
        assert stats.round_series == reference.round_series, engine
        err, _sim = _cut_short(graph, engine, rounds - 2)
        assert err.round_number == rounds - 1, engine
        assert err.pending_nodes, engine


@pytest.mark.parametrize(
    "graph", [path_graph(10), grid_graph(4, 4)], ids=lambda g: g.name
)
@pytest.mark.parametrize("max_rounds", [40, 120])
def test_round_limit_under_faults_keeps_fault_counters(graph, max_rounds):
    seen = {}
    for engine in ("sweep", "event", "shard"):
        err, sim = _cut_short(graph, engine, max_rounds, _FAULTS)
        stats = sim.stats
        seen[engine] = (
            err.round_number,
            err.pending_nodes,
            stats.faults.as_dict(),
            stats.message_count,
            stats.bit_count,
        )
        if engine == "shard":
            assert stats.shard["workers"] == 2
            assert stats.shard["cross_messages"] > 0
    faults = seen["sweep"][2]
    assert faults["crash_rounds"] > 0
    assert faults["dropped"] > 0
    for engine in ("event", "shard"):
        assert seen[engine] == seen["sweep"], engine


@pytest.mark.parametrize("factor", [2, 4])
def test_strict_violation_leaves_equal_partial_stats(factor):
    # A round enters the series once it has run, so the round that
    # raises is absent on every engine.
    graph = grid_graph(5, 6)
    seen = {}
    for engine in ("sweep", "event", "bulk", "shard"):
        sim = _simulator(graph, engine, strict=True, factor=factor)
        with pytest.raises(CongestViolationError) as info:
            sim.run()
        err = info.value
        stats = sim.stats
        seen[engine] = (
            err.round_number,
            err.sender,
            err.receiver,
            stats.message_count,
            len(stats.round_series),
        )
    assert seen["sweep"][4] == seen["sweep"][0]
    for engine in ("event", "bulk", "shard"):
        assert seen[engine] == seen["sweep"], engine


_SCHEDULING = (
    "engine.active_node_steps",
    "engine.passive_rounds",
    "engine.fast_forwarded_rounds",
)


def test_scheduling_counters_event_matches_shard():
    graph = grid_graph(5, 5)
    seen = {}
    for engine in ("event", "shard"):
        telemetry = Telemetry(profile=True)
        stats = _simulator(graph, engine, telemetry=telemetry).run()
        profiler = telemetry.profiler
        seen[engine] = (
            stats.rounds,
            {name: profiler.count(name) for name in _SCHEDULING},
        )
        assert profiler.calls("engine.step") > 0
    counters = seen["event"][1]
    assert counters["engine.active_node_steps"] > 0
    assert counters["engine.fast_forwarded_rounds"] > 0
    assert seen["shard"] == seen["event"]
