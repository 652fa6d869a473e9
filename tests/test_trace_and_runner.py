"""Tests for the tracer, the experiment runner, and the two-party framework."""

import pytest

from repro.analysis import ExperimentRunner
from repro.congest import Tracer
from repro.core import distributed_betweenness
from repro.wire import AggValue, BfsWave, DfsToken
from repro.graphs import cycle_graph, path_graph
from repro.lowerbound import (
    ExchangeEverythingDisjointness,
    deterministic_disjointness_bound,
    encode_family,
    family_pair,
    simulate_gadget_protocol,
)


class TestTracer:
    def run_traced(self, graph, **kwargs):
        tracer = Tracer(**kwargs)
        result = distributed_betweenness(
            graph, arithmetic="lfloat", tracer=tracer
        )
        return tracer, result

    def test_records_everything_by_default(self, karate):
        tracer, result = self.run_traced(karate)
        assert len(tracer) == result.stats.message_count
        assert sum(s["bits"] for s in tracer.summary().values()) == (
            result.stats.bit_count
        )

    def test_phase_ordering_visible(self, karate):
        """Tree build < BFS waves < done reports < aggregation."""
        tracer, _ = self.run_traced(karate)
        tree_first, tree_last = tracer.rounds_active("TreeWave")
        wave_first, wave_last = tracer.rounds_active("BfsWave")
        agg_first, agg_last = tracer.rounds_active("AggValue")
        start_first, _ = tracer.rounds_active("AggStart")
        assert tree_first == 0
        assert tree_last < wave_first
        assert wave_last < agg_first
        assert start_first < agg_first
        assert agg_last > agg_first

    def test_type_filter(self, karate):
        tracer, _ = self.run_traced(karate, message_types=(DfsToken,))
        assert tracer.message_types() == ["DfsToken"]
        # DFS walks each tree edge twice: 2 * (N - 1) token hops
        assert len(tracer) == 2 * (karate.num_nodes - 1)

    def test_node_filter(self):
        graph = path_graph(6)
        tracer = Tracer(nodes={0})
        distributed_betweenness(graph, arithmetic="exact", tracer=tracer)
        assert all(
            e.sender == 0 or e.receiver == 0 for e in tracer.deliveries()
        )

    def test_max_events_truncation(self, karate):
        tracer, _ = self.run_traced(karate, max_events=100)
        assert len(tracer) == 100
        assert tracer.truncated

    def test_counts_per_round(self):
        graph = cycle_graph(8)
        tracer = Tracer(message_types=(BfsWave,))
        distributed_betweenness(graph, arithmetic="exact", tracer=tracer)
        counts = tracer.counts_per_round("BfsWave")
        # every node broadcasts each wave once: N sources * N nodes * deg 2
        assert sum(counts.values()) == 8 * 8 * 2

    def test_timeline_renders(self, karate):
        tracer, _ = self.run_traced(karate)
        art = tracer.timeline(width=40)
        assert "BfsWave" in art
        assert "AggValue" in art
        assert "rounds 0.." in art

    def test_timeline_empty(self):
        assert "no traced traffic" in Tracer().timeline()

    def test_rounds_active_unknown_type(self, karate):
        tracer, _ = self.run_traced(karate, message_types=(AggValue,))
        assert tracer.rounds_active("TreeWave") == (-1, -1)


class TestExperimentRunner:
    def test_collects_records(self):
        runner = ExperimentRunner(arithmetic="exact")
        records = runner.run_family("path", [path_graph(6), path_graph(10)])
        assert [r.num_nodes for r in records] == [6, 10]
        assert all(r.family == "path" for r in records)
        assert records[0].rounds > 0

    def test_fit_rounds(self):
        runner = ExperimentRunner()
        runner.run_family(
            "cycle", [cycle_graph(n) for n in (8, 16, 24, 32)]
        )
        fit = runner.fit_rounds("cycle")
        assert fit.r_squared > 0.99
        assert 4 < fit.slope < 12

    def test_custom_metrics(self):
        runner = ExperimentRunner(
            arithmetic="exact",
            metrics={"rpn": lambda result: result.rounds / result.graph.num_nodes},
        )
        runner.run_family("path", [path_graph(8)])
        assert "rpn" in runner.records[0].extra

    def test_table_and_families(self):
        runner = ExperimentRunner()
        runner.run_family("a", [path_graph(5)])
        runner.run_family("b", [cycle_graph(5)])
        assert runner.families() == ["a", "b"]
        table = runner.table()
        assert "path-5" in table and "cycle-5" in table
        assert "cycle-5" not in runner.table(family="a")

    def test_csv_export(self, tmp_path):
        runner = ExperimentRunner(arithmetic="exact")
        runner.run_family("path", [path_graph(5)])
        path = tmp_path / "runs.csv"
        text = runner.to_csv(path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0].startswith("family,graph_name,num_nodes")
        assert "path-5" in lines[1]


class TestTwoParty:
    def test_trivial_protocol_answers_correctly(self):
        for intersect in (True, False):
            x, y, m = family_pair(4, m=6, seed=9, force_intersection=intersect)
            protocol = ExchangeEverythingDisjointness(x, y, m)
            answer, bits = protocol.run()
            assert answer == intersect
            assert bits <= protocol.worst_case_bits

    def test_encode_family_ranks_in_range(self):
        import math

        x, _, m = family_pair(5, m=6, seed=1)
        ranks = encode_family(x, m)
        assert all(0 <= r < math.comb(m, m // 2) for r in ranks)
        assert len(set(ranks)) == len(ranks)  # distinct subsets

    def test_theorem4_bound_growth(self):
        small = deterministic_disjointness_bound(8)
        large = deterministic_disjointness_bound(64)
        assert large > small > 0
        # Omega(n log n): at n = 64 the bound exceeds 64 * 6 * 0.5
        assert large > 64 * 6 * 0.5

    def test_bound_degenerate(self):
        assert deterministic_disjointness_bound(0) == 0.0

    def test_gadget_simulation_report(self):
        x, y, m = family_pair(3, m=6, seed=2, force_intersection=True)
        report = simulate_gadget_protocol(x, y, m)
        assert report.outcome.correct
        assert report.simulation_bits > 0
        # the distributed simulation is wildly less communication-
        # efficient than the trivial protocol — the whole point of the
        # lower bound is that it *cannot* be better than Omega(n log n),
        # not that it is good
        assert report.simulation_bits > report.trivial_protocol_bits
        assert report.disjointness_lower_bound_bits > 0

    def test_width_check(self):
        from repro.lowerbound.two_party import _check_width

        with pytest.raises(ValueError):
            _check_width(8, 3)
        _check_width(7, 3)


class TestTraceJson:
    def test_to_json_roundtrip(self):
        import json

        graph = path_graph(4)
        tracer = Tracer()
        result = distributed_betweenness(
            graph, arithmetic="exact", tracer=tracer
        )
        payload = json.loads(tracer.to_json())
        assert payload["schema"] == "repro-trace-v1"
        assert not payload["truncated"]
        assert len(payload["events"]) == result.stats.message_count
        rounds = [e[0] for e in payload["events"]]
        assert rounds == sorted(rounds)
        assert all(len(e) == 5 for e in payload["events"])
