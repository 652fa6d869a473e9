"""Tests for the CONGEST simulator: semantics, budgets, statistics."""

import pytest

from repro.congest import (
    IntMessage,
    NodeAlgorithm,
    PayloadMessage,
    Simulator,
    TokenMessage,
    TYPE_TAG_BITS,
    WireFormat,
    int_bits,
    run_protocol,
)
from repro.congest.options import RunOptions
from repro.exceptions import (
    CongestViolationError,
    SimulationNotTerminatedError,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    eccentricity,
    karate_club_graph,
    path_graph,
    star_graph,
)


class FloodNode(NodeAlgorithm):
    """Classic flood: node 0 starts; everyone records first-hear round."""

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.heard_round = None

    def on_round(self, ctx, inbox):
        if ctx.round_number == 0 and self.node_id == 0:
            self.heard_round = 0
            ctx.broadcast(TokenMessage("flood"))
            self.done = True
        if self.heard_round is None and inbox:
            self.heard_round = ctx.round_number
            ctx.broadcast(TokenMessage("flood"))
            self.done = True


class ChattyNode(NodeAlgorithm):
    """Sends one oversized message — must trip strict mode."""

    def on_round(self, ctx, inbox):
        if ctx.round_number == 0 and self.neighbors:
            ctx.send(self.neighbors[0], PayloadMessage("blob", bits=10**6))
        self.done = True


class SilentNode(NodeAlgorithm):
    """Never terminates — must trip the round limit."""

    def on_round(self, ctx, inbox):
        pass


class CounterNode(NodeAlgorithm):
    """Each node sends its id to every neighbor once, then sums inbox."""

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.total = 0

    def on_round(self, ctx, inbox):
        if ctx.round_number == 0:
            ctx.broadcast(IntMessage(self.node_id))
        for sender, message in inbox:
            assert isinstance(message, IntMessage)
            assert message.value == sender
            self.total += message.value
        if ctx.round_number >= 1:
            self.done = True


class TestFlooding:
    @pytest.mark.parametrize(
        "graph",
        [path_graph(8), cycle_graph(9), star_graph(6), complete_graph(5),
         karate_club_graph()],
        ids=lambda g: g.name,
    )
    def test_flood_rounds_equal_distance(self, graph):
        nodes, stats = run_protocol(graph, FloodNode)
        from repro.graphs import bfs_distances

        dist = bfs_distances(graph, 0)
        for node in nodes:
            assert node.heard_round == dist[node.node_id]
        # the run ends one round after the last broadcast fades
        assert stats.rounds <= eccentricity(graph, 0) + 2


class TestBudgets:
    def test_strict_violation_raises(self):
        with pytest.raises(CongestViolationError) as err:
            run_protocol(
                path_graph(3),
                ChattyNode,
                options=RunOptions(engine="sweep", strict=True),
            )
        assert err.value.bits_used >= 10**6
        assert "CONGEST violation" in str(err.value)

    def test_lenient_mode_allows(self):
        nodes, stats = run_protocol(
            path_graph(3),
            ChattyNode,
            options=RunOptions(engine="sweep", strict=False),
        )
        assert stats.max_edge_bits_per_round >= 10**6

    def test_budget_scales_with_factor(self):
        sim_small = Simulator(
            path_graph(4),
            FloodNode,
            options=RunOptions(engine="sweep", congest_factor=1),
        )
        sim_large = Simulator(
            path_graph(4),
            FloodNode,
            options=RunOptions(engine="sweep", congest_factor=64),
        )
        assert sim_large.bit_budget == 64 * sim_small.bit_budget

    def test_round_limit(self):
        with pytest.raises(SimulationNotTerminatedError):
            run_protocol(path_graph(3), SilentNode, max_rounds=10)


class TestDelivery:
    def test_messages_delivered_next_round_sorted(self):
        nodes, _stats = run_protocol(cycle_graph(5), CounterNode)
        for node in nodes:
            assert node.total == sum(node.neighbors)

    def test_send_to_non_neighbor_rejected(self):
        class BadNode(NodeAlgorithm):
            def on_round(self, ctx, inbox):
                if self.node_id == 0:
                    ctx.send(2, TokenMessage())
                self.done = True

        with pytest.raises(ValueError):
            run_protocol(path_graph(3), BadNode)

    def test_deterministic_stats(self):
        _n1, s1 = run_protocol(karate_club_graph(), FloodNode)
        _n2, s2 = run_protocol(karate_club_graph(), FloodNode)
        assert s1.summary() == s2.summary()


class TestStats:
    def test_bit_accounting(self):
        nodes, stats = run_protocol(path_graph(2), CounterNode)
        # two IntMessages: value 0 costs a 1-bit varint, value 1 a
        # 4-bit varint, each after a TYPE_TAG
        assert stats.message_count == 2
        assert stats.bit_count == (TYPE_TAG_BITS + 1) + (TYPE_TAG_BITS + 4)

    def test_cut_tracking(self):
        graph = path_graph(4)
        sim = Simulator(graph, FloodNode, cut={0, 1})
        stats = sim.run()
        # flood crosses edge (1, 2) exactly twice (wave + echo back)
        assert stats.cut is not None
        assert stats.cut.messages == 2
        assert stats.cut.bits == 2 * TYPE_TAG_BITS
        assert stats.cut.max_bits_in_round() == TYPE_TAG_BITS
        assert "cut_bits" in stats.summary()

    def test_worst_edge_recorded(self):
        _nodes, stats = run_protocol(star_graph(4), FloodNode)
        assert stats.worst_edge is not None

    def test_round_series_length(self):
        _nodes, stats = run_protocol(path_graph(5), FloodNode)
        assert len(stats.round_series) == stats.rounds or (
            len(stats.round_series) == stats.rounds + 1
        )


class TestWireFormat:
    def test_id_bits(self):
        assert WireFormat(2).id_bits == 1
        assert WireFormat(1024).id_bits == 10
        assert WireFormat(1025).id_bits == 11

    def test_round_horizon(self):
        wf = WireFormat(16, round_horizon=100)
        assert wf.round_bits == 7

    def test_invalid(self):
        with pytest.raises(ValueError):
            WireFormat(0)

    def test_int_bits(self):
        assert int_bits(0) == 1
        assert int_bits(255) == 8
        with pytest.raises(ValueError):
            int_bits(-1)

    def test_message_bit_sizes(self):
        wf = WireFormat(100)
        assert TokenMessage().bit_size(wf) == TYPE_TAG_BITS
        # 7 travels as the varint of 8: 3-bit gamma length + 5 more bits
        assert IntMessage(7).bit_size(wf) == TYPE_TAG_BITS + 8
        assert PayloadMessage(None, 12).bit_size(wf) == TYPE_TAG_BITS + 12

    def test_message_reprs(self):
        assert "flood" in repr(TokenMessage("flood"))
        assert "7" in repr(IntMessage(7))
        assert "12" in repr(PayloadMessage(None, 12))


class TestBudgetFloorAndWireOverride:
    def test_budget_floor_for_tiny_networks(self):
        """O(log N) hides an additive constant: at N = 2 the budget
        floors at factor * 4 bits so a float-carrying message fits."""
        from repro.graphs import Graph

        tiny = Simulator(
            Graph(2, [(0, 1)]),
            FloodNode,
            options=RunOptions(engine="sweep", congest_factor=32),
        )
        assert tiny.bit_budget == 32 * 4
        big = Simulator(
            complete_graph(64),
            FloodNode,
            options=RunOptions(engine="sweep", congest_factor=32),
        )
        assert big.bit_budget == 32 * 6

    def test_wire_override(self):
        wf = WireFormat(1024, round_horizon=50)
        sim = Simulator(path_graph(4), FloodNode, wire=wf)
        assert sim.wire is wf
        assert sim.bit_budget == 32 * 10

    def test_default_max_rounds_scales_with_n(self):
        small = Simulator(path_graph(4), FloodNode)
        large = Simulator(path_graph(40), FloodNode)
        assert large.max_rounds > small.max_rounds
