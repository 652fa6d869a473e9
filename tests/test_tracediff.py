"""Trace-diff forensics: pinpointing the first divergence between runs.

The simulator's id-order round stepping makes delivery streams fully
deterministic, so two traces of the same run are byte-identical and any
disagreement has a well-defined *first* divergent delivery.  These
tests corrupt traces in controlled ways and check the diff machinery
names the exact delivery, round, edge — and, for payload-capturing
traces, the decoded message *field* — where execution forked.
"""

import dataclasses
import json

from repro.cli import main
from repro.congest.options import RunOptions
from repro.congest.trace import Tracer
from repro.core import distributed_betweenness
from repro.graphs import figure1_graph, path_graph
from repro.obs import (
    chrome_trace,
    diff_report,
    first_divergence,
    round_frame_diff,
    write_chrome_trace,
)


def corrupt(tracer, index, **changes):
    """Swap one recorded delivery for a mutated copy (events are frozen)."""
    tracer._events[index] = dataclasses.replace(tracer._events[index], **changes)


def traced_run(graph, engine="sweep", capture_payloads=True, arithmetic="exact"):
    tracer = Tracer(capture_payloads=capture_payloads)
    distributed_betweenness(
        graph,
        options=RunOptions(engine=engine),
        arithmetic=arithmetic,
        tracer=tracer,
    )
    return tracer


class TestFirstDivergence:
    def test_identical_runs_have_no_divergence(self):
        graph = figure1_graph()
        a = traced_run(graph)
        b = traced_run(graph)
        assert first_divergence(a, b) is None
        assert "traces are identical" in diff_report(a, b)

    def test_engine_equivalence_is_an_empty_diff(self):
        graph = path_graph(7)
        a = traced_run(graph, engine="sweep")
        b = traced_run(graph, engine="event")
        assert first_divergence(a, b) is None

    def test_corrupted_payload_pinpoints_field(self):
        """A flipped frame word names the decoded field that changed."""
        graph = figure1_graph()
        a = traced_run(graph)
        b = traced_run(graph)
        victim_index = next(
            i for i, e in enumerate(b.deliveries())
            if e.message_type == "BfsWave" and e.word is not None
        )
        victim = b.deliveries()[victim_index]
        corrupt(b, victim_index, word=victim.word ^ 0b1)
        divergence = first_divergence(a, b, arithmetic="exact")
        assert divergence is not None
        assert divergence.index == victim_index
        assert divergence.kind == "payload"
        assert divergence.round_number == victim.round_number
        assert divergence.sender == victim.sender
        assert divergence.receiver == victim.receiver
        assert divergence.message_type == "BfsWave"
        # The flipped low bit lands in a concrete wire field, and the
        # two decoded values are reported.
        assert divergence.field is not None
        assert divergence.value_a != divergence.value_b
        assert divergence.field in divergence.describe()

    def test_metadata_divergence_reports_field_name(self):
        graph = figure1_graph()
        a = traced_run(graph, capture_payloads=False)
        b = traced_run(graph, capture_payloads=False)
        victim = b.deliveries()[10]
        corrupt(b, 10, bits=victim.bits + 7)
        divergence = first_divergence(a, b)
        assert divergence.index == 10
        assert divergence.kind == "bits"
        assert divergence.value_b == divergence.value_a + 7

    def test_truncated_trace_is_a_length_divergence(self):
        graph = figure1_graph()
        a = traced_run(graph, capture_payloads=False)
        b = traced_run(graph, capture_payloads=False)
        del b._events[50:]
        divergence = first_divergence(a, b)
        assert divergence.kind == "length"
        assert divergence.index == 50
        assert "ends here" in divergence.describe()

    def test_without_arithmetic_payload_degrades_to_raw_words(self):
        """SIGMA/PSI frames need an arithmetic context to decode; without
        one the divergence still lands on the right delivery, reported
        as raw frame words."""
        graph = figure1_graph()
        a = traced_run(graph)
        b = traced_run(graph)
        victim_index = next(
            i for i, e in enumerate(b.deliveries())
            if e.message_type == "AggValue" and e.word is not None
        )
        victim = b.deliveries()[victim_index]
        corrupt(b, victim_index, word=victim.word ^ 0b1)
        divergence = first_divergence(a, b)  # no arithmetic given
        assert divergence.index == victim_index
        assert divergence.kind == "payload"
        assert divergence.field is None
        assert divergence.value_a == victim.word ^ 0b1 or (
            divergence.value_a != divergence.value_b
        )


class TestRoundFrameDiff:
    def test_divergent_round_renders_per_edge(self):
        graph = figure1_graph()
        a = traced_run(graph)
        b = traced_run(graph)
        victim = b.deliveries()[8]
        corrupt(b, 8, word=(victim.word or 0) ^ 0b1)
        rows = round_frame_diff(
            a, b, victim.round_number, arithmetic="exact"
        )
        assert rows
        edges = [row["edge"] for row in rows]
        assert edges == sorted(edges)
        flagged = [row for row in rows if not row["same"]]
        assert (victim.sender, victim.receiver) in [
            row["edge"] for row in flagged
        ]
        for row in rows:
            assert row["a"]["messages"] >= 1
            assert row["a"]["bits"] >= 1

    def test_report_marks_divergent_edges(self):
        graph = figure1_graph()
        a = traced_run(graph)
        b = traced_run(graph)
        victim = b.deliveries()[8]
        corrupt(b, 8, word=(victim.word or 0) ^ 0b1)
        report = diff_report(a, b, arithmetic="exact", context=2)
        assert "FIRST DIVERGENCE:" in report
        assert "* edge" in report
        assert "last 2 agreeing deliveries:" in report


class TestTraceSerialization:
    def test_payload_roundtrip_preserves_words_and_wire(self, tmp_path):
        tracer = traced_run(figure1_graph())
        text = tracer.to_json()
        loaded = Tracer.from_json(text)
        assert loaded.wire is not None
        assert [e.word for e in loaded.deliveries()] == [
            e.word for e in tracer.deliveries()
        ]
        assert first_divergence(tracer, loaded) is None

    def test_plain_trace_roundtrip_has_no_words(self):
        tracer = traced_run(figure1_graph(), capture_payloads=False)
        payload = json.loads(tracer.to_json())
        assert "wire" not in payload
        assert all(len(row) == 5 for row in payload["events"])
        loaded = Tracer.from_json(tracer.to_json())
        assert all(e.word is None for e in loaded.deliveries())

    def test_from_json_accepts_legacy_five_column_rows(self):
        tracer = traced_run(figure1_graph(), capture_payloads=False)
        loaded = Tracer.from_json(tracer.to_json())
        assert len(loaded.deliveries()) == len(tracer.deliveries())
        assert first_divergence(tracer, loaded) is None


class TestCliTraceDiff:
    def run(self, *argv):
        return main(list(argv))

    def test_engine_pair_mode_exits_zero_on_equivalence(self, capsys):
        assert self.run(
            "trace", "diff", "--graph", "path:6", "--engines", "sweep,event"
        ) == 0
        assert "identical" in capsys.readouterr().out

    def test_file_mode_pinpoints_corruption(self, tmp_path, capsys):
        graph = figure1_graph()
        a = traced_run(graph, arithmetic="lfloat")
        b = traced_run(graph, arithmetic="lfloat")
        victim_index = next(
            i for i, e in enumerate(b.deliveries())
            if e.message_type == "BfsWave" and e.word is not None
        )
        victim = b.deliveries()[victim_index]
        corrupt(b, victim_index, word=victim.word ^ 0b1)
        path_a = tmp_path / "a.trace.json"
        path_b = tmp_path / "b.trace.json"
        path_a.write_text(a.to_json())
        path_b.write_text(b.to_json())
        assert self.run(
            "trace", "diff", str(path_a), str(path_b),
            "--arithmetic", "lfloat",
        ) == 1
        out = capsys.readouterr().out
        assert "FIRST DIVERGENCE:" in out
        assert "round {}".format(victim.round_number) in out

    def test_trace_out_writes_loadable_trace(self, tmp_path, capsys):
        out_path = tmp_path / "run.trace.json"
        assert self.run(
            "trace", "--graph", "path:5", "--payloads",
            "--trace-out", str(out_path),
        ) == 0
        loaded = Tracer.from_json(out_path.read_text())
        assert loaded.deliveries()
        assert loaded.wire is not None


class TestChromeTrace:
    def _rows(self):
        from repro.obs import Telemetry

        telemetry = Telemetry.with_streaming(progress=True, console=False)
        subscriber = telemetry.bus.subscribe(capacity=100_000)
        distributed_betweenness(
            path_graph(10),
            options=RunOptions(engine="event"),
            telemetry=telemetry,
        )
        telemetry.bus.close()
        return subscriber.drain()

    def test_phase_spans_and_metadata(self):
        payload = chrome_trace(self._rows())
        events = payload["traceEvents"]
        assert payload["displayTimeUnit"] == "ms"
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for span in spans:
            assert span["ts"] >= 0
            assert span["dur"] >= 0
        names = {e["name"] for e in spans}
        assert "tree_build" in names
        counters = [e for e in events if e["ph"] == "C"]
        assert counters  # progress heartbeats become counter tracks

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._rows(), str(path))
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == count
        assert count > 0
