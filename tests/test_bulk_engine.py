"""Bulk-engine unit tests: int64 L-float kernels, capability envelope,
protocol-variant equivalence, ledger laziness, CLI resolution.

The cross-engine differential matrix lives in
``test_engine_equivalence.py``; this file covers the bulk engine's own
moving parts — the vectorized arithmetic kernels against the scalar
:class:`~repro.arithmetic.lfloat.LFloat` reference, the dispatcher's
capability rejections with their reasons, and the lazily materialized
node ledgers the fast path leaves behind.
"""

import pickle
import random

import pytest

np = pytest.importorskip("numpy")

from repro.arithmetic import make_context
from repro.arithmetic.lfloat import LFloat, Rounding
from repro.congest import Simulator
from repro.core import distributed_betweenness
from repro.core.config import ProtocolConfig
from repro.core.node import make_node_factory
from repro.engines import bulk_capability, reset_probe
from repro.engines.lfmath import bit_length, lf_add, lf_mul, lf_reciprocal
from repro.exceptions import EngineCapabilityError
from repro.graphs import (
    Graph,
    balanced_tree,
    barabasi_albert_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    diamond_chain_graph,
    figure1_graph,
    grid_graph,
    path_graph,
    watts_strogatz_graph,
)


# ----------------------------------------------------------------------
# lfmath kernels vs the scalar LFloat reference (randomized)
# ----------------------------------------------------------------------
def _random_lfloats(rng, L, count, lim=None):
    """Random valid L-floats: normalized mantissa or zero, mixed signs
    of exponent, in (mantissa, exponent) lanes plus scalar twins."""
    ms, es, scalars = [], [], []
    # Exponents stay clear of the +/-(2**L - 1) legality bound so that
    # results (add shifts by one, reciprocal negates and adds one) stay
    # representable too.  Callers combining two operands (mul sums the
    # exponents) pass a tighter lim.
    if lim is None:
        lim = min(20, (1 << L) - 2)
    for _ in range(count):
        if rng.random() < 0.1:
            m, e = 0, 0
        else:
            m = rng.randrange(1 << (L - 1), 1 << L)
            e = rng.randrange(-lim, lim + 1)
        ms.append(m)
        es.append(e)
        scalars.append(LFloat(m, e, L))
    return np.array(ms, dtype=np.int64), np.array(es, dtype=np.int64), scalars


@pytest.mark.parametrize("L", [4, 8, 17, 30])
@pytest.mark.parametrize("mode", list(Rounding))
def test_lf_mul_matches_scalar(L, mode):
    rng = random.Random(1000 + L)
    lim = min(10, ((1 << L) - 2) // 2)
    ma, ea, sa = _random_lfloats(rng, L, 200, lim=lim)
    mb, eb, sb = _random_lfloats(rng, L, 200, lim=lim)
    rm, re = lf_mul(ma, ea, mb, eb, L, mode.value)
    for i in range(len(sa)):
        want = sa[i].mul(sb[i], mode)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


@pytest.mark.parametrize("L", [4, 8, 17, 30])
@pytest.mark.parametrize("mode", list(Rounding))
def test_lf_add_matches_scalar(L, mode):
    rng = random.Random(2000 + L)
    ma, ea, sa = _random_lfloats(rng, L, 200)
    mb, eb, sb = _random_lfloats(rng, L, 200)
    # Force exponent ties into the sample: the adder breaks them by
    # operand order, the classic off-by-one spot.
    ea[:40] = eb[:40]
    sa[:40] = [
        LFloat(int(m), int(e), L) for m, e in zip(ma[:40], ea[:40])
    ]
    rm, re = lf_add(ma, ea, mb, eb, L, mode.value)
    for i in range(len(sa)):
        want = sa[i].add(sb[i], mode)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


@pytest.mark.parametrize("L", [4, 8, 17, 30])
def test_lf_reciprocal_matches_scalar(L):
    rng = random.Random(3000 + L)
    m, e, scalars = _random_lfloats(rng, L, 200)
    nonzero = m != 0
    m, e = m[nonzero], e[nonzero]
    scalars = [s for s in scalars if s.mantissa != 0]
    rm, re = lf_reciprocal(m, e, L)
    for i, s in enumerate(scalars):
        want = s.reciprocal(Rounding.FLOOR)
        assert (int(rm[i]), int(re[i])) == (want.mantissa, want.exponent), i


def test_bit_length_matches_int_bit_length():
    values = np.array(
        [0, 1, 2, 3, 4, 7, 8, 255, 256, (1 << 31) - 1, 1 << 31, (1 << 62) - 1],
        dtype=np.int64,
    )
    got = bit_length(values)
    want = [int(v).bit_length() for v in values]
    assert got.tolist() == want


# ----------------------------------------------------------------------
# capability envelope: every rejection carries a usable reason
# ----------------------------------------------------------------------
def _expect_rejection(match, graph=None, **kwargs):
    with pytest.raises(EngineCapabilityError, match=match):
        distributed_betweenness(
            graph if graph is not None else figure1_graph(),
            arithmetic=kwargs.pop("arithmetic", "lfloat"),
            engine="bulk",
            **kwargs
        )


def test_bulk_rejects_exact_arithmetic():
    _expect_rejection("L-float", arithmetic="exact")


def test_bulk_rejects_oversized_precision():
    _expect_rejection(r"precision 31", arithmetic="lfloat-31")


def test_bulk_rejects_fault_injection():
    from repro.faults import FaultPlan

    _expect_rejection("fault injection", faults=FaultPlan(drop_rate=0.5))


def test_bulk_rejects_single_node_graph():
    arith = make_context("lfloat", 1)
    with pytest.raises(EngineCapabilityError, match="two nodes"):
        Simulator(Graph(1, name="k1"), make_node_factory(0, arith), engine="bulk")


def test_bulk_rejects_disconnected_graph():
    # The pipeline validates connectivity before building a simulator, so
    # hit the dispatcher's own check through the Simulator constructor.
    graph = Graph(4, [(0, 1), (2, 3)], name="two-islands")
    arith = make_context("lfloat", 4)
    with pytest.raises(EngineCapabilityError, match="not connected"):
        Simulator(graph, make_node_factory(0, arith), engine="bulk")


def test_bulk_rejects_out_of_range_sources():
    _expect_rejection(
        "outside the graph",
        config=ProtocolConfig(sources=frozenset({0, 99})),
    )


def test_bulk_rejects_non_protocol_nodes():
    from repro.congest import NodeAlgorithm

    class _Custom(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            self.done = True

    with pytest.raises(EngineCapabilityError, match="BetweennessNode"):
        Simulator(path_graph(3), _Custom, engine="bulk")


def test_auto_reports_capable_for_stock_runs():
    arith = make_context("lfloat", 5)
    sim = Simulator(path_graph(5), make_node_factory(0, arith), engine="sweep")
    capable, reason = bulk_capability(sim)
    assert capable, reason


# ----------------------------------------------------------------------
# protocol variants through the bulk schedule
# ----------------------------------------------------------------------
def _fp(result):
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        sorted(result.start_times.items()),
        result.stats.summary(),
        result.stats.round_series,
    )


VARIANT_GRAPHS = [
    figure1_graph(),
    balanced_tree(2, 3),
    connected_erdos_renyi_graph(16, 0.2, seed=2),
]


@pytest.mark.parametrize("graph", VARIANT_GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant",
    ["stress", "subset-sources", "no-aggregate", "cut", "root-shift"],
)
def test_bulk_matches_sweep_on_variants(graph, variant):
    n = graph.num_nodes
    kwargs = {
        "stress": {"config": ProtocolConfig(unit="stress")},
        "subset-sources": {
            "config": ProtocolConfig(sources=frozenset({0, n // 2, n - 1}))
        },
        "no-aggregate": {"config": ProtocolConfig(aggregate=False)},
        "cut": {"cut": set(range(n // 2))},
        "root-shift": {"root": 3},
    }[variant]
    runs = {
        engine: _fp(
            distributed_betweenness(
                graph, arithmetic="lfloat", engine=engine, **kwargs
            )
        )
        for engine in ("sweep", "bulk")
    }
    assert runs["sweep"] == runs["bulk"]


# ----------------------------------------------------------------------
# lazy ledgers: the fast path defers per-source record construction
# ----------------------------------------------------------------------
def test_bulk_ledger_is_lazy_then_complete():
    graph = cycle_graph(8)
    bulk = distributed_betweenness(graph, arithmetic="lfloat", engine="bulk")
    sweep = distributed_betweenness(graph, arithmetic="lfloat", engine="sweep")
    for b_node, s_node in zip(bulk.nodes, sweep.nodes):
        assert sorted(b_node.ledger.sources()) == sorted(s_node.ledger.sources())
        for s in s_node.ledger.sources():
            b_rec, s_rec = b_node.ledger.get(s), s_node.ledger.get(s)
            assert (b_rec.start_time, b_rec.dist, tuple(b_rec.preds)) == (
                s_rec.start_time,
                s_rec.dist,
                tuple(s_rec.preds),
            )
            assert repr(b_rec.sigma) == repr(s_rec.sigma)
            assert repr(b_rec.psi) == repr(s_rec.psi)


def test_bulk_ledger_survives_pickling():
    graph = figure1_graph()
    result = distributed_betweenness(graph, arithmetic="lfloat", engine="bulk")
    node = result.nodes[2]
    clone = pickle.loads(pickle.dumps(node.ledger))
    assert sorted(clone.sources()) == sorted(node.ledger.sources())
    for s in node.ledger.sources():
        assert clone.get(s).dist == node.ledger.get(s).dist
        assert repr(clone.get(s).sigma) == repr(node.ledger.get(s).sigma)


# ----------------------------------------------------------------------
# CLI: the report prints the engine that actually ran
# ----------------------------------------------------------------------
def test_cli_report_shows_resolved_engine(capsys):
    from repro.cli import main

    reset_probe()
    assert main(["report", "--graph", "figure1"]) == 0
    out = capsys.readouterr().out
    assert "engine=bulk" in out


def test_cli_engine_choices_include_auto():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["bc", "--graph", "figure1", "--engine", "warp"])


# ----------------------------------------------------------------------
# the factored reduction: wider differential zoo
# ----------------------------------------------------------------------
ZOO_GRAPHS = [
    barabasi_albert_graph(64, 3, seed=5),
    grid_graph(7, 8),
    watts_strogatz_graph(72, 4, 0.2, seed=3),
]


@pytest.mark.parametrize("graph", ZOO_GRAPHS, ids=lambda g: g.name)
@pytest.mark.parametrize(
    "variant", ["cut", "subset-sources", "no-aggregate", "strict"]
)
def test_bulk_matches_event_on_tie_heavy_families(graph, variant):
    """Broadcast-heavy families with many worst-edge ties: every stats
    field, the per-round series and the cut's per-round map agree."""
    n = graph.num_nodes
    kwargs = {
        "cut": {"cut": set(range(0, n, 3)), "strict": False},
        "subset-sources": {
            "config": ProtocolConfig(sources=frozenset(range(1, n, 4))),
            "strict": False,
        },
        "no-aggregate": {
            "config": ProtocolConfig(aggregate=False), "strict": False,
        },
        "strict": {"strict": True},
    }[variant]
    runs = {
        engine: distributed_betweenness(
            graph, arithmetic="lfloat", engine=engine, **kwargs
        )
        for engine in ("event", "bulk")
    }
    assert runs["bulk"].stats.engine == "bulk"
    assert _fp(runs["event"]) == _fp(runs["bulk"])
    if variant == "cut":
        assert (
            runs["event"].stats.cut.bits_per_round
            == runs["bulk"].stats.cut.bits_per_round
        )


def _brute_force_stats(inv, cut=None):
    """Expand an inventory send by send and bill it like the sweep."""
    from repro.congest.stats import CutTracker, SimulationStats

    n = inv.n_nodes
    sends = []
    for r, u, slot, bits in zip(
        inv.b_round.tolist(), inv.b_snd.tolist(),
        inv.b_slot.tolist(), inv.b_bits.tolist(),
    ):
        for j, w in enumerate(inv.indices[inv.indptr[u]:inv.indptr[u + 1]]):
            sends.append(((((r * n + u) * 16 + slot) * n + j), r, u, int(w), bits))
    for row in zip(
        inv.p_rank.tolist(), inv.p_round.tolist(), inv.p_snd.tolist(),
        inv.p_tgt.tolist(), inv.p_bits.tolist(),
    ):
        sends.append(row)
    sends.sort()
    stats = SimulationStats()
    if cut is not None:
        stats.cut = CutTracker(cut)
    i = 0
    for r in range(inv.rounds):
        stats.start_round()
        load = {}
        while i < len(sends) and sends[i][1] == r:
            _rank, _r, u, w, bits = sends[i]
            entry = load.setdefault((u, w), [0, 0])
            entry[0] += 1
            entry[1] += bits
            i += 1
        if load:
            stats.observe_round(r, load)
    return stats


def _random_inventory(rng, widths, n=10, rounds=6, events=70, rows=50):
    """A random factored inventory with colliding broadcasts and rows."""
    from repro.engines.bulk import Inventory

    graph = connected_erdos_renyi_graph(n, 0.3, seed=rng.randrange(1000))
    nbrs = [sorted(graph.neighbors(v)) for v in range(n)]
    indptr = np.cumsum([0] + [len(x) for x in nbrs])
    indices = np.array([w for x in nbrs for w in x], dtype=np.int64)
    b_keys = rng.sample(
        [(r, u, s) for r in range(rounds) for u in range(n) for s in (0, 4, 6)],
        events,
    )
    seqs = {}
    p_rows = []
    for _ in range(rows):
        r, u = rng.randrange(rounds), rng.randrange(n)
        slot = rng.choice((1, 2, 3, 5, 7, 8, 9, 10))
        seq = seqs[r, u, slot] = seqs.get((r, u, slot), -1) + 1
        w = rng.choice(nbrs[u])
        p_rows.append((r, u, w, rng.choice(widths),
                       ((r * n + u) * 16 + slot) * n + seq))
    b = np.array([(r, u, s, rng.choice(widths)) for r, u, s in b_keys])
    p = np.array(p_rows, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    return Inventory(
        n, rounds, indptr, indices, b[:, 0], b[:, 1], b[:, 2], b[:, 3],
        p[:, 0], p[:, 1], p[:, 2], p[:, 3], p[:, 4], empty, empty, empty,
    )


# Shapes that put ties at the maximum in each group class: one bit
# width on dense and sparse inventories, two widths on a sparse one.
RANDOM_SHAPES = {
    "dense-16": ((16,), dict(n=10, rounds=6, events=70, rows=50)),
    "sparse-16": ((16,), dict(n=12, rounds=8, events=50, rows=40)),
    "sparse-8-16": ((8, 16), dict(n=10, rounds=6, events=40, rows=30)),
}


@pytest.mark.parametrize("shape", sorted(RANDOM_SHAPES))
def test_populate_stats_matches_per_send_billing(shape):
    """The factored reduction against send-by-send ``observe_round`` on
    random inventories: mixed, broadcast-only and point-to-point-only
    groups, several broadcasts per node-round, ties at the maximum."""
    from repro.congest.stats import CutTracker, SimulationStats
    from repro.engines.bulk import populate_stats

    widths, size = RANDOM_SHAPES[shape]
    for seed in range(40):
        rng = random.Random(seed)
        inv = _random_inventory(rng, widths, **size)
        left = frozenset(rng.sample(range(inv.n_nodes), inv.n_nodes // 2))
        expected = _brute_force_stats(inv, cut=left)
        stats = SimulationStats()
        stats.cut = CutTracker(left)
        assert populate_stats(stats, inv) is not None
        assert stats.summary() == expected.summary(), seed
        assert stats.round_series == expected.round_series, seed
        assert stats.cut.bits_per_round == expected.cut.bits_per_round, seed
        # Over budget: no stats mutation, the caller must replay.
        fresh = SimulationStats()
        budget = expected.max_edge_bits_per_round - 1
        assert populate_stats(fresh, inv, budget) is None
        assert fresh.summary() == SimulationStats().summary()


# ----------------------------------------------------------------------
# Lemma 4 on the fast path
# ----------------------------------------------------------------------
def test_bulk_fast_path_rejects_colliding_aggregation_schedule(monkeypatch):
    from repro.engines import bulk
    from repro.exceptions import ProtocolError

    real = bulk._inventory

    def forged(plan, sim, token_sends):
        inv = real(plan, sim, token_sends)
        rounds = inv.agg_round.copy()
        assert inv.agg_snd[0] == inv.agg_snd[1] == 0
        rounds[1] = rounds[0]  # node 0's first two sends share a round
        return inv._replace(agg_round=rounds)

    monkeypatch.setattr(bulk, "_inventory", forged)
    with pytest.raises(
        ProtocolError, match=r"node 0: sources \d+ and \d+ share send round "
        r"\d+ — Lemma 4 violated",
    ):
        distributed_betweenness(
            figure1_graph(), arithmetic="lfloat", engine="bulk"
        )


# ----------------------------------------------------------------------
# strict mode: a budget breach raises at the same send as the sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "graph",
    [barabasi_albert_graph(40, 3, seed=1), grid_graph(5, 6)],
    ids=lambda g: g.name,
)
@pytest.mark.parametrize("factor", [1, 2, 3, 4, 6])
def test_bulk_strict_violation_matches_sweep(graph, factor):
    from repro.exceptions import CongestViolationError

    raised = {}
    for engine in ("sweep", "bulk"):
        with pytest.raises(CongestViolationError) as info:
            distributed_betweenness(
                graph, arithmetic="lfloat", engine=engine, strict=True,
                congest_factor=factor,
            )
        err = info.value
        raised[engine] = (
            err.round_number, err.sender, err.receiver, err.bits_used,
            err.bits_allowed,
        )
    assert raised["bulk"] == raised["sweep"]


# ----------------------------------------------------------------------
# the sampling audit
# ----------------------------------------------------------------------
_BROADCAST_TYPES = {"TreeWave", "BfsWave"}


def test_bulk_audit_samples_every_group_class(monkeypatch):
    from repro.engines import bulk

    frames = []
    real = bulk.encode_frame

    def recording(messages, wire):
        frames.append({type(m).__name__ for m in messages})
        return real(messages, wire)

    monkeypatch.setattr(bulk, "encode_frame", recording)
    distributed_betweenness(
        barabasi_albert_graph(60, 3, seed=2), arithmetic="lfloat",
        engine="bulk",
    )
    assert len(frames) >= 64
    assert any(kinds <= _BROADCAST_TYPES for kinds in frames)
    assert any(kinds & _BROADCAST_TYPES and kinds - _BROADCAST_TYPES
               for kinds in frames)
    assert any(not kinds & _BROADCAST_TYPES for kinds in frames)


@pytest.mark.parametrize("kind", range(9))
def test_bulk_audit_catches_overbilled_kind(monkeypatch, kind):
    """Overbilling any one message kind by a single bit must trip the
    fast path's audit — every kind's first send is in the sample."""
    from repro.engines import bulk
    from repro.exceptions import WireCodecError

    real = bulk._billed_widths

    def overbilled(wire, n_nodes, L):
        widths = real(wire, n_nodes, L)
        widths[kind] += 1
        return widths

    monkeypatch.setattr(bulk, "_billed_widths", overbilled)
    with pytest.raises(WireCodecError, match="charged"):
        distributed_betweenness(
            barabasi_albert_graph(60, 3, seed=2), arithmetic="lfloat",
            engine="bulk", strict=False,
        )


# ----------------------------------------------------------------------
# sigma: exact integers until a settled sum reaches 2**L, then L-floats
# ----------------------------------------------------------------------
def _exact_switch_level(graph, sources, L):
    """(first BFS level with a path count >= 2**L, BFS depth), exactly."""
    switch = None
    depth = 0
    for s in sources:
        sigma = {s: 1}
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            arrived = {}
            for v in frontier:
                for u in graph.neighbors(v):
                    if u not in sigma:
                        arrived[u] = arrived.get(u, 0) + sigma[v]
            if not arrived:
                break
            depth = max(depth, level)
            if max(arrived.values()) >= 1 << L and (
                switch is None or level < switch
            ):
                switch = level
            sigma.update(arrived)
            frontier = list(arrived)
    return switch, depth


SWITCH_CASES = [
    (grid_graph(7, 7), None),  # path counts cross 2**8 mid-BFS
    (diamond_chain_graph(10), None),  # sigma = 2**k: crosses deep
    (grid_graph(7, 7), frozenset({0, 10, 24, 48})),
]


@pytest.mark.parametrize(
    "graph,sources",
    SWITCH_CASES,
    ids=["grid-7x7", "diamonds-10", "grid-7x7-subset"],
)
def test_bulk_sigma_switch_to_lfloat_is_bit_identical(
    monkeypatch, graph, sources
):
    """The bulk BFS carries sigma as exact integers and converts to
    ceil-rounded L-floats at the first level whose settled sum reaches
    2**L; results, stats and ledgers stay identical to sweep and event
    across the switch."""
    from repro.engines import bulk

    L = 8
    config = ProtocolConfig(sources=sources)
    modes = []
    fold = bulk._ordered_fold

    def spy(*args):
        modes.append(args[-1])
        return fold(*args)

    monkeypatch.setattr(bulk, "_ordered_fold", spy)
    runs = {
        engine: distributed_betweenness(
            graph, arithmetic="lfloat-{}".format(L), engine=engine,
            config=config,
        )
        for engine in ("sweep", "event", "bulk")
    }
    assert runs["bulk"].stats.engine == "bulk"
    switch, depth = _exact_switch_level(
        graph, sorted(sources or range(graph.num_nodes)), L
    )
    assert switch is not None and 1 < switch <= depth
    # One ceil fold per level from the switch on, none before it.
    assert modes.count("ceil") == depth - switch + 1
    reference = _fp(runs["sweep"])
    for engine in ("event", "bulk"):
        assert _fp(runs[engine]) == reference, engine
        for node, ref in zip(runs[engine].nodes, runs["sweep"].nodes):
            assert sorted(node.ledger.sources()) == sorted(ref.ledger.sources())
            for s in ref.ledger.sources():
                got, want = node.ledger.get(s), ref.ledger.get(s)
                assert repr(got.sigma) == repr(want.sigma), (engine, s)
                assert tuple(got.preds) == tuple(want.preds)


# ----------------------------------------------------------------------
# the prefix-sliced ordered fold vs a scalar left-fold
# ----------------------------------------------------------------------
def _fold_case(rng, L, singletons):
    """Random groups over a row pool: zero lanes, empty groups, and one
    100-row group among many singletons (the heavy-tailed BA shape)."""
    counts = [1] * singletons + [0] * 50 + [100] + [
        rng.randrange(2, 8) for _ in range(40)
    ]
    rng.shuffle(counts)
    firsts, pos = [], 0
    for c in counts:
        firsts.append(pos)
        pos += c
    src_m, src_e, src = _random_lfloats(rng, L, pos)
    acc_m, acc_e, acc = _random_lfloats(rng, L, len(counts))
    return (
        acc_m, acc_e, acc, src_m, src_e, src,
        np.array(firsts, dtype=np.int64), np.array(counts, dtype=np.int64),
    )


# L >= 8: at L = 4 a 100-row ceil fold can outgrow the exponent range.
@pytest.mark.parametrize("L", [8, 17, 30])
@pytest.mark.parametrize("mode", list(Rounding))
def test_ordered_fold_matches_scalar_left_fold(L, mode):
    from repro.engines.bulk import _ordered_fold

    rng = random.Random(4000 + L)
    acc_m, acc_e, acc, src_m, src_e, src, first, counts = _fold_case(
        rng, L, singletons=3000
    )
    out_m, out_e = _ordered_fold(
        acc_m.copy(), acc_e.copy(), src_m, src_e, first, counts, L, mode.value
    )
    for g, (f, c) in enumerate(zip(first.tolist(), counts.tolist())):
        want = acc[g]
        for row in src[f: f + c]:
            want = want.add(row, mode)
        assert (int(out_m[g]), int(out_e[g])) == (
            want.mantissa, want.exponent
        ), (g, c)


def test_ordered_fold_handles_no_groups_and_no_rows():
    from repro.engines.bulk import _ordered_fold

    empty = np.empty(0, dtype=np.int64)
    assert [a.size for a in _ordered_fold(
        empty, empty, empty, empty, empty, empty, 8, "floor"
    )] == [0, 0]
    acc = np.array([0, 200], dtype=np.int64)
    out_m, out_e = _ordered_fold(
        acc.copy(), acc.copy(), empty, empty,
        np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), 8, "ceil",
    )
    assert out_m.tolist() == [0, 200] and out_e.tolist() == [0, 200]


@pytest.mark.parametrize("L", [4, 8, 30])
def test_lf_from_int_matches_scalar(L):
    from repro.engines.lfmath import lf_from_int

    rng = random.Random(5000 + L)
    values = [0, 1, 2, 3, (1 << L) - 1] + [
        rng.randrange(1 << L) for _ in range(200)
    ]
    m, e = lf_from_int(np.array(values, dtype=np.int64), L)
    for i, x in enumerate(values):
        want = LFloat.from_int(x, L, Rounding.CEIL)
        assert (int(m[i]), int(e[i])) == (want.mantissa, want.exponent), x
