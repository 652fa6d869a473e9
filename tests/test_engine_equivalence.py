"""Differential suite: every engine must match the sweep engine bit for bit.

The sweep engine (`engine="sweep"`) is the assumption-free reference:
every node is stepped every round.  The event engine skips idle nodes
and fast-forwards idle rounds, relying on the active-set invariant
(`docs/simulator.md`).  The bulk engine replaces the round loop
entirely with a closed-form numpy schedule (`docs/simulator.md`,
"Bulk engine") and only supports the lfloat protocol envelope.  These
tests run the full betweenness protocol — and smaller purpose-built
protocols exercising self-wakes, passive messages and inbox ordering —
under all engines and require *identical* outputs: betweenness values,
rounds, per-round traffic series, worst edge, everything.
"""

import pytest

from repro.analysis.runner import run_many
from repro.congest import (
    IntMessage,
    NodeAlgorithm,
    Simulator,
    TokenMessage,
    run_protocol,
)
from repro.core import distributed_betweenness
from repro.faults import CrashWindow, FaultPlan
from repro.graphs import (
    balanced_tree,
    connected_erdos_renyi_graph,
    cycle_graph,
    figure1_graph,
    grid_graph,
    path_graph,
)


def _fingerprint(result):
    """Every observable of a protocol run, in comparable form."""
    return {
        "betweenness": sorted(result.betweenness.items()),
        "diameter": result.diameter,
        "rounds": result.rounds,
        "start_times": sorted(result.start_times.items()),
        "summary": result.stats.summary(),
        "round_series": result.stats.round_series,
        "worst_edge": result.stats.worst_edge,
    }


GRAPHS = [
    figure1_graph(),
    path_graph(9),
    cycle_graph(10),
    balanced_tree(2, 3),
    connected_erdos_renyi_graph(14, 0.25, seed=1),
    connected_erdos_renyi_graph(16, 0.2, seed=2),
    connected_erdos_renyi_graph(18, 0.15, seed=3),
]


def _engines_for(arithmetic):
    """The engines able to run a given arithmetic on this machine.

    The bulk engine's capability envelope only admits the shared-lfloat
    protocol (exact sigma/psi values are unbounded rationals, not
    vectorizable), so the exact rows stay a two-way comparison; without
    numpy installed (CI's fallback leg) the lfloat rows do too.
    """
    from repro.engines import numpy_available

    engines = ["sweep", "event"]
    if arithmetic == "lfloat" and numpy_available():
        engines.append("bulk")
    return tuple(engines)


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize("arithmetic", ["exact", "lfloat"])
def test_engines_identical_on_betweenness(graph, arithmetic):
    runs = {
        engine: _fingerprint(
            distributed_betweenness(graph, arithmetic=arithmetic, engine=engine)
        )
        for engine in _engines_for(arithmetic)
    }
    reference = runs.pop("sweep")
    for engine, fingerprint in runs.items():
        assert fingerprint == reference, engine


@pytest.mark.parametrize("arithmetic", ["exact", "lfloat"])
def test_engines_identical_through_codec_path(arithmetic):
    """The frame-audit path (every message materialized through the wire
    codec) must not perturb results: every engine, audited, matches the
    unaudited reference bit for bit.  For the bulk engine the audit
    forces the per-send replay path, so this also differentials replay
    against the vectorized fast path."""
    graph = connected_erdos_renyi_graph(16, 0.25, seed=5)
    reference = _fingerprint(
        distributed_betweenness(graph, arithmetic=arithmetic, engine="sweep")
    )
    for engine in _engines_for(arithmetic) + ("shard",):
        audited = distributed_betweenness(
            graph,
            arithmetic=arithmetic,
            engine=engine,
            frame_audit=True,
            workers=2,
        )
        assert _fingerprint(audited) == reference, engine


@pytest.mark.parametrize("strict", [True, False])
def test_engines_identical_nonstrict_and_strict(strict):
    graph = connected_erdos_renyi_graph(15, 0.3, seed=7)
    runs = [
        _fingerprint(
            distributed_betweenness(
                graph,
                arithmetic="lfloat",
                strict=strict,
                engine=engine,
                workers=2,
            )
        )
        for engine in _engines_for("lfloat") + ("shard",)
    ]
    assert all(run == runs[0] for run in runs[1:])


CRASH_CASES = [
    (
        path_graph(8),
        FaultPlan(
            seed=3,
            crashes=(CrashWindow(4, 6, None), CrashWindow(5, 6, None)),
        ),
    ),
    (cycle_graph(10), FaultPlan(seed=1, crashes=(CrashWindow(4, 10, 30),))),
    (
        grid_graph(4, 4),
        FaultPlan(
            seed=2,
            crashes=(CrashWindow(5, 8, 20), CrashWindow(10, 12, None)),
        ),
    ),
    (
        grid_graph(3, 4),
        FaultPlan(
            seed=4,
            crashes=(
                CrashWindow(5, 8, 20),
                CrashWindow(5, 15, 30),
                CrashWindow(6, 3, None),
            ),
        ),
    ),
]


@pytest.mark.parametrize(
    "graph, plan", CRASH_CASES, ids=[g.name for g, _plan in CRASH_CASES]
)
def test_engines_identical_under_crashes(graph, plan):
    """Stalls and crash accounting mean the same on every engine: the
    stall round, the round count and every fault counter, including
    ``crash_rounds`` and ``recoveries``."""
    runs = {}
    for name, engine, kwargs in (
        ("sweep", "sweep", {}),
        ("event", "event", {}),
        ("shard-2", "shard", {"workers": 2}),
        ("shard-4-block", "shard", {"workers": 4, "partitioner": "block"}),
    ):
        result = distributed_betweenness(
            graph,
            arithmetic="lfloat",
            engine=engine,
            faults=plan,
            resilient=True,
            **kwargs,
        )
        runs[name] = (
            _fingerprint(result),
            result.rounds,
            result.completeness.stalled_round,
            result.stats.faults.as_dict(),
        )
    reference = runs.pop("sweep")
    for name, run in runs.items():
        assert run == reference, name


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        Simulator(path_graph(3), _InboxRecorder, engine="turbo")


# ----------------------------------------------------------------------
# inbox determinism (the simulator no longer sorts inboxes per round —
# sender order must hold by construction under both engines)
# ----------------------------------------------------------------------
class _InboxRecorder(NodeAlgorithm):
    """Round 0: everyone broadcasts its id.  Then record arrival order."""

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.seen = []

    def on_round(self, ctx, inbox):
        if ctx.round_number == 0:
            ctx.broadcast(IntMessage(self.node_id))
            return
        if inbox:
            self.seen.append([sender for sender, _ in inbox])
        self.done = True


@pytest.mark.parametrize("engine", ["sweep", "event"])
def test_inbox_is_sender_sorted_without_sorting(engine):
    graph = connected_erdos_renyi_graph(20, 0.3, seed=11)
    nodes, _stats = run_protocol(graph, _InboxRecorder, engine=engine)
    for node in nodes:
        assert node.seen, "every node has neighbors, so it heard from them"
        for senders in node.seen:
            assert senders == sorted(senders)
            assert senders == sorted(node.neighbors)


# ----------------------------------------------------------------------
# self-wakes: a timer-driven protocol only correct under the wake contract
# ----------------------------------------------------------------------
class _TimerChain(NodeAlgorithm):
    """Node i fires a token to node i+1 at round 3*(i+1); pure timers.

    Between the firing rounds every node is silent, so the event engine
    fast-forwards — but only if `wake_at` is honored exactly.
    """

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.fired_at = None
        self.received_at = None

    def on_round(self, ctx, inbox):
        for sender, _message in inbox:
            self.received_at = ctx.round_number
        my_round = 3 * (self.node_id + 1)
        if ctx.round_number == my_round:
            if self.node_id + 1 in ctx.neighbors:
                ctx.send(self.node_id + 1, TokenMessage())
            self.fired_at = ctx.round_number
            self.done = True
        elif ctx.round_number < my_round:
            ctx.wake_at(my_round)


def test_wake_at_timers_match_sweep():
    graph = path_graph(6)
    results = {}
    for engine in ("sweep", "event"):
        nodes, stats = run_protocol(graph, _TimerChain, engine=engine)
        results[engine] = (
            [(n.fired_at, n.received_at) for n in nodes],
            stats.rounds,
            stats.summary(),
            stats.round_series,
        )
    assert results["sweep"] == results["event"]
    # The timers actually fired on schedule, not merely consistently.
    fired = [f for f, _ in results["event"][0]]
    assert fired == [3 * (i + 1) for i in range(6)]


def test_wake_at_rejects_non_future_rounds():
    class _BadWake(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            ctx.wake_at(ctx.round_number)  # not strictly in the future

    with pytest.raises(ValueError, match="not after the current round"):
        Simulator(path_graph(2), _BadWake, engine="event").run()


# ----------------------------------------------------------------------
# passive messages: delivered (and billed) without scheduling a step
# ----------------------------------------------------------------------
class _EchoCollector(NodeAlgorithm):
    """Node 0 broadcasts; neighbors echo; echoes are declared passive.

    The echoes must still appear in the traffic statistics and must be
    present in node 0's inbox at its next (self-scheduled) step.
    """

    def __init__(self, node_id, neighbors):
        super().__init__(node_id, neighbors)
        self.echoes = 0
        self.steps = []

    def on_round(self, ctx, inbox):
        self.steps.append(ctx.round_number)
        for _sender, message in inbox:
            if self.node_id == 0:
                self.echoes += 1
            elif 0 in ctx.neighbors:
                ctx.send(0, IntMessage(message.value + 1))
        if self.node_id != 0:
            self.done = True  # passive helpers; done nodes still step
        elif self.node_id == 0:
            if ctx.round_number == 0:
                ctx.broadcast(IntMessage(7))
                ctx.wake_at(4)  # collect echoes well after they land
            if ctx.round_number >= 4:
                self.done = True

    def message_wakes(self, sender, message):
        # Echoes returning to the root are handled without state changes
        # that affect the protocol's sends — safe to defer.
        return self.node_id != 0


@pytest.mark.parametrize("engine", ["sweep", "event"])
def test_passive_messages_are_billed_but_deferred(engine):
    graph = path_graph(3)  # node 0 - 1 - 2; only node 1 echoes to 0
    nodes, stats = run_protocol(graph, _EchoCollector, engine=engine)
    root = nodes[0]
    assert root.echoes == 1
    # Broadcast (1 msg) + echo (1 msg) billed identically on both engines.
    assert stats.summary()["messages"] == 2
    if engine == "event":
        # The echo arrives in round 2 but is passive: the root is not
        # stepped again until its registered wake at round 4.
        assert root.steps == [0, 4]


def test_event_engine_skips_idle_nodes_but_rounds_match():
    """Same rounds as sweep even though most steps are skipped."""
    graph = path_graph(40)
    fingerprints = {}
    for engine in _engines_for("lfloat"):
        result = distributed_betweenness(graph, arithmetic="lfloat", engine=engine)
        fingerprints[engine] = _fingerprint(result)
    reference = fingerprints.pop("sweep")
    for engine, fingerprint in fingerprints.items():
        assert fingerprint == reference, engine
    # Sanity: the run is long enough that skipping matters.
    assert reference["rounds"] > 400


# ----------------------------------------------------------------------
# dispatcher: engine="auto" resolution and graceful degradation
# ----------------------------------------------------------------------
def test_auto_resolves_to_bulk_with_numpy():
    """With numpy importable (tier-1 w/ extras), auto means bulk."""
    pytest.importorskip("numpy")
    from repro.engines import reset_probe

    reset_probe()
    result = distributed_betweenness(figure1_graph(), arithmetic="lfloat")
    assert result.stats.engine == "bulk"


def test_auto_without_numpy_falls_back_to_event(monkeypatch):
    """Absent numpy, auto degrades to the event engine — same results."""
    import sys

    from repro.engines import reset_probe

    reference = _fingerprint(
        distributed_betweenness(figure1_graph(), arithmetic="lfloat", engine="sweep")
    )
    monkeypatch.setitem(sys.modules, "numpy", None)
    reset_probe()
    try:
        result = distributed_betweenness(figure1_graph(), arithmetic="lfloat")
        assert result.stats.engine == "event"
        assert _fingerprint(result) == reference
    finally:
        monkeypatch.undo()
        reset_probe()


def test_auto_falls_back_to_event_for_exact_arithmetic():
    """Exact arithmetic is outside the bulk envelope; auto must not pick it."""
    result = distributed_betweenness(figure1_graph(), arithmetic="exact")
    assert result.stats.engine == "event"


def test_explicit_bulk_rejects_exact_arithmetic():
    pytest.importorskip("numpy")
    from repro.exceptions import EngineCapabilityError

    with pytest.raises(EngineCapabilityError, match="L-float"):
        distributed_betweenness(
            figure1_graph(), arithmetic="exact", engine="bulk"
        )


def test_explicit_bulk_without_numpy_raises(monkeypatch):
    import sys

    from repro.engines import reset_probe
    from repro.exceptions import EngineCapabilityError

    monkeypatch.setitem(sys.modules, "numpy", None)
    reset_probe()
    try:
        with pytest.raises(EngineCapabilityError, match="numpy"):
            distributed_betweenness(
                figure1_graph(), arithmetic="lfloat", engine="bulk"
            )
    finally:
        monkeypatch.undo()
        reset_probe()


def test_auto_chaos_run_never_imports_numpy():
    """A fault plan rules bulk out before the numpy probe: a chaos run
    under ``--engine auto`` finishes without numpy ever being imported."""
    import os
    import subprocess
    import sys

    import repro

    script = (
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['chaos', '--graph', 'cycle:12', '--drop', '0.05',"
        " '--dup', '0.02', '--engine', 'auto', '--seed', '3'])\n"
        "assert code == 0, code\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# parallel runner: fan-out must not change results
# ----------------------------------------------------------------------
def test_run_many_parallel_matches_serial():
    graphs = [path_graph(8), cycle_graph(9), connected_erdos_renyi_graph(10, 0.3, seed=5)]
    serial = run_many(graphs, family="grid", processes=1)
    parallel = run_many(graphs, family="grid", processes=2)
    assert [r.__dict__ for r in serial] == [r.__dict__ for r in parallel]
    assert [r.graph_name for r in serial] == [g.name for g in graphs]


def test_run_many_empty_batch():
    assert run_many([], family="none") == []


# ----------------------------------------------------------------------
# tracer streams: both engines must emit the identical delivery sequence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.name)
def test_tracer_streams_identical_across_engines(graph):
    """Send-for-send equality, not just aggregate equality.

    Nodes act in id order and channels are FIFO under both engines, so
    the full (round, sender, receiver, type, bits) event sequence — not
    merely its totals — must be reproduced by the event engine.
    """
    from repro.congest import Tracer

    streams = {}
    for engine in _engines_for("lfloat"):
        tracer = Tracer()
        distributed_betweenness(
            graph, arithmetic="lfloat", engine=engine, tracer=tracer
        )
        assert not tracer.truncated
        streams[engine] = tracer.deliveries()
    reference = streams.pop("sweep")
    for engine, stream in streams.items():
        assert stream == reference, engine


def test_tracer_json_round_trip_preserves_stream():
    from repro.congest import Tracer

    tracer = Tracer()
    distributed_betweenness(figure1_graph(), arithmetic="exact", tracer=tracer)
    clone = Tracer.from_json(tracer.to_json())
    assert clone.deliveries() == tracer.deliveries()
    assert clone.truncated == tracer.truncated
    assert clone.summary() == tracer.summary()
    assert clone.timeline() == tracer.timeline()


def test_tracer_from_json_rejects_unknown_schema():
    from repro.congest import Tracer

    with pytest.raises(ValueError):
        Tracer.from_json('{"schema": "not-a-trace", "events": []}')
