"""Invariant monitors under fire: injected violations must be flagged.

The monitors' value rests on actually firing when an invariant breaks,
so these tests are mutation-style: tiny purpose-built protocols inject
exactly the traffic the paper's lemmas forbid — a node sending
aggregation values for two sources in one round (Lemma 4), a message
far beyond the per-edge bit budget (Lemmas 3–5) — and a fabricated
result carries an L-float error outside the Theorem 1 envelope.  Each
monitor must flag its violation in ``record`` mode, warn in ``warn``
mode, and raise in ``raise`` mode; and a clean full-protocol run must
come back with every verdict OK.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.arithmetic.context import make_context
from repro.centrality import brandes_betweenness
from repro.congest import Message, NodeAlgorithm, Simulator
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.wire import AggValue
from repro.exceptions import InvariantViolationError
from repro.graphs import figure1_graph, karate_club_graph, path_graph
from repro.obs import (
    AggregationCollisionMonitor,
    BandwidthMonitor,
    LFloatErrorMonitor,
    Telemetry,
    default_monitors,
)

_ARITH = make_context("exact", 8)


# ----------------------------------------------------------------------
# injection protocols
# ----------------------------------------------------------------------
class _CollidingAggSender(NodeAlgorithm):
    """Node 0 sends aggregation values for two sources in one round —
    exactly the collision Lemma 4 proves the real schedule avoids."""

    def on_round(self, ctx, inbox):
        if ctx.node_id == 0:
            if ctx.round_number == 1:
                ctx.send(1, AggValue(3, Fraction(1)))
                ctx.send(1, AggValue(4, Fraction(1)))
                self.done = True
        else:
            self.done = True


class _LegalAggSender(NodeAlgorithm):
    """Fan-out of one source's value to two predecessors: legitimate."""

    def on_round(self, ctx, inbox):
        if ctx.node_id == 1:
            if ctx.round_number == 1:
                ctx.send(0, AggValue(3, Fraction(1)))
                ctx.send(2, AggValue(3, Fraction(1)))
                self.done = True
        else:
            self.done = True


class _OversizedMessage(Message):
    """A message an order of magnitude past any O(log N) budget."""

    def payload_bits(self, wire):
        return 100_000


class _OversizedSender(NodeAlgorithm):
    def on_round(self, ctx, inbox):
        if ctx.node_id == 0 and ctx.round_number == 0:
            ctx.send(1, _OversizedMessage())
        self.done = True


def _run_injection(node_class, monitor, strict=False):
    graph = path_graph(3)
    simulator = Simulator(
        graph,
        lambda node_id, neighbors: node_class(node_id, neighbors),
        options=RunOptions(engine="sweep", strict=strict),
        telemetry=Telemetry(monitors=[monitor]),
    )
    simulator.run()
    return monitor


# ----------------------------------------------------------------------
# Lemma 4: aggregation collisions
# ----------------------------------------------------------------------
def test_collision_monitor_flags_duplicate_source_send():
    monitor = _run_injection(
        _CollidingAggSender, AggregationCollisionMonitor()
    )
    verdict = monitor.verdict()
    assert verdict.status == "VIOLATED"
    assert verdict.violation_count == 1
    assert "sources 3 and 4" in verdict.violations[0]
    assert verdict.detail["max_sources_per_node_round"] == 2


def test_collision_monitor_accepts_same_source_fanout():
    monitor = _run_injection(_LegalAggSender, AggregationCollisionMonitor())
    verdict = monitor.verdict()
    assert verdict.status == "OK"
    assert verdict.checked == 1  # one node-round with aggregation sends


def test_collision_monitor_raise_mode_aborts_the_run():
    with pytest.raises(InvariantViolationError) as excinfo:
        _run_injection(
            _CollidingAggSender, AggregationCollisionMonitor("raise")
        )
    assert excinfo.value.monitor == "lemma4_aggregation_collision"


def test_collision_monitor_warn_mode_warns_and_continues():
    with pytest.warns(RuntimeWarning, match="lemma4"):
        monitor = _run_injection(
            _CollidingAggSender, AggregationCollisionMonitor("warn")
        )
    assert monitor.violation_count == 1


# ----------------------------------------------------------------------
# Lemmas 3–5: bandwidth budget
# ----------------------------------------------------------------------
def test_bandwidth_monitor_flags_oversized_message():
    monitor = _run_injection(_OversizedSender, BandwidthMonitor())
    verdict = monitor.verdict()
    assert verdict.status == "VIOLATED"
    assert verdict.detail["max_edge_bits_per_round"] > verdict.detail["budget_bits"]
    assert "budget" in verdict.violations[0]


def test_bandwidth_monitor_raise_mode():
    with pytest.raises(InvariantViolationError):
        _run_injection(_OversizedSender, BandwidthMonitor("raise"))


def test_bandwidth_monitor_custom_budget_stricter_than_simulator():
    # A factor-1 budget is tighter than the simulator's default 32:
    # the protocol's real messages overflow it while the run proceeds.
    telemetry = Telemetry(monitors=[BandwidthMonitor(congest_factor=1)])
    distributed_betweenness(
        figure1_graph(), arithmetic="exact", telemetry=telemetry
    )
    (verdict,) = telemetry.verdicts()
    assert verdict.status == "VIOLATED"
    assert verdict.detail["budget_bits"] < verdict.detail["max_edge_bits_per_round"]


# ----------------------------------------------------------------------
# Theorem 1: L-float error envelope
# ----------------------------------------------------------------------
def _fake_result(graph, scale):
    reference = brandes_betweenness(graph, exact=True)
    return SimpleNamespace(
        graph=graph,
        diameter=3,
        arithmetic="lfloat-8",
        betweenness={v: float(value) * scale for v, value in reference.items()},
    )


def test_lfloat_monitor_flags_error_beyond_envelope():
    monitor = LFloatErrorMonitor()
    monitor.finalize(_fake_result(figure1_graph(), scale=2.0))
    verdict = monitor.verdict()
    assert verdict.status == "VIOLATED"
    assert verdict.detail["max_relative_error"] > verdict.detail["theorem1_bound"]


def test_lfloat_monitor_accepts_exact_values():
    monitor = LFloatErrorMonitor()
    monitor.finalize(_fake_result(figure1_graph(), scale=1.0))
    assert monitor.verdict().status == "OK"


def test_lfloat_monitor_skips_exact_arithmetic_runs():
    telemetry = Telemetry(monitors=[LFloatErrorMonitor()])
    distributed_betweenness(
        figure1_graph(), arithmetic="exact", telemetry=telemetry
    )
    (verdict,) = telemetry.verdicts()
    assert verdict.skipped
    assert verdict.status == "SKIPPED"
    assert verdict.ok


# ----------------------------------------------------------------------
# acceptance: a clean run passes every monitor, even in raise mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["sweep", "event"])
def test_clean_run_passes_all_monitors(engine):
    telemetry = Telemetry(monitors=default_monitors("raise"))
    result = distributed_betweenness(
        karate_club_graph(),
        arithmetic="lfloat",
        options=RunOptions(engine=engine),
        telemetry=telemetry,
    )
    assert telemetry.all_ok()
    by_name = {v.monitor: v for v in telemetry.verdicts()}
    collision = by_name["lemma4_aggregation_collision"]
    assert collision.status == "OK" and collision.checked > 0
    bandwidth = by_name["bandwidth_budget"]
    assert bandwidth.detail["max_edge_bits_per_round"] <= bandwidth.detail["budget_bits"]
    assert (
        bandwidth.detail["max_edge_bits_per_round"]
        == result.stats.max_edge_bits_per_round
    )
    lfloat = by_name["theorem1_lfloat_error"]
    assert lfloat.status == "OK"
    assert lfloat.detail["max_relative_error"] <= lfloat.detail["theorem1_bound"]
