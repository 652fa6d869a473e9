"""High-level entry points for the distributed algorithm.

:func:`distributed_betweenness` runs the complete two-phase protocol of
the paper (Algorithms 2 + 3, with the phase-0 tree/census preamble) on
the CONGEST simulator and returns a :class:`DistributedBCResult`
bundling the per-node betweenness values, the learned diameter, the BFS
start times, and the full traffic statistics.

:func:`distributed_apsp` and :func:`distributed_closeness` reuse the
counting phase only: after Algorithm 2 every node holds its complete
row of the distance matrix, from which closeness and graph centrality
follow with *zero* extra communication — the O(N)-round centrality
computations the paper's introduction attributes to the APSP results of
[6], [7], [8].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from repro.arithmetic.context import (
    ArithmeticContext,
    ExactContext,
    make_context,
)
from repro.congest.simulator import DEFAULT_CONGEST_FACTOR, Simulator
from repro.congest.stats import SimulationStats
from repro.core.config import UNIT_STRESS, ProtocolConfig
from repro.core.node import BetweennessNode, make_node_factory
from repro.exceptions import ProtocolError, SimulationStalledError
from repro.graphs.graph import Graph
from repro.graphs.properties import require_connected

ModeSpec = Union[str, ArithmeticContext]


@dataclass(frozen=True)
class CompletenessReport:
    """Per-source completeness of a (possibly faulted) run.

    A source s is *complete* when every node v != s executed its
    scheduled Algorithm 3 send for s — at which point psi_s(v), and
    hence delta_s·(v), is final everywhere.  A clean run is complete
    for every source; a run cut short by
    :class:`~repro.exceptions.SimulationStalledError` degrades to the
    bounded-partial betweenness over ``complete_sources`` only (exact
    for that subset) instead of returning silently wrong totals.
    """

    #: True iff every expected source is complete (clean runs).
    complete: bool
    #: Sources whose dependencies are final at every node.
    complete_sources: Tuple[int, ...]
    #: Expected sources the run lost (their contribution is missing).
    affected_sources: Tuple[int, ...]
    #: Nodes that had not terminated when the run ended.
    unfinished_nodes: Tuple[int, ...]
    #: Nodes inside a crash window when the run ended.
    crashed_nodes: Tuple[int, ...]
    #: Round at which the stall detector ended the run (None if clean).
    stalled_round: Optional[int]

    @property
    def coverage(self) -> float:
        """Fraction of expected sources that completed (1.0 if clean)."""
        total = len(self.complete_sources) + len(self.affected_sources)
        if total == 0:
            return 1.0
        return len(self.complete_sources) / total


@dataclass
class DistributedBCResult:
    """Everything a run of the distributed algorithm produced.

    Attributes
    ----------
    betweenness:
        ``node -> CB(node)`` as floats (undirected convention: each
        unordered pair counted once, matching the paper's Figure 1).
    betweenness_exact:
        Exact rationals when the run used exact arithmetic, else None.
    diameter:
        The network diameter D computed by the protocol itself (None
        only for a partial result whose run stalled before the
        diameter broadcast).
    start_times:
        ``s -> T_s``: the global round at which s's BFS launched.
    rounds:
        Total synchronous rounds until every node terminated.
    stats:
        Full traffic statistics (bits, per-edge maxima, optional cut).
    arithmetic:
        Name of the arithmetic context used.
    root:
        The BFS(u0)/DFS root node u0.
    """

    graph: Graph
    betweenness: Dict[int, float]
    betweenness_exact: Optional[Dict[int, Fraction]]
    diameter: Optional[int]
    start_times: Dict[int, int]
    rounds: int
    stats: SimulationStats
    arithmetic: str
    root: int
    nodes: List[BetweennessNode] = field(repr=False, default_factory=list)
    #: per-source completeness; ``completeness.complete`` is False only
    #: for partial results recovered from a stalled faulted run.
    completeness: Optional[CompletenessReport] = None
    #: registry name of the protocol that produced this result (see
    #: :mod:`repro.protocols`); stamped into telemetry metadata and
    #: history run keys.
    protocol: str = "hua-bc"

    def normalized(self) -> Dict[int, float]:
        """Betweenness divided by (N-1)(N-2)/2."""
        n = self.graph.num_nodes
        pairs = (n - 1) * (n - 2) / 2.0
        if pairs <= 0:
            return {v: 0.0 for v in self.betweenness}
        return {v: value / pairs for v, value in self.betweenness.items()}

    def _node_index(self) -> Dict[int, BetweennessNode]:
        """``node_id -> node`` map, built once on first use.

        Accessors like :meth:`dependency` are often called in O(N^2)
        loops (one query per pair); a linear scan per call would make
        them quadratic in aggregate.
        """
        index = self.__dict__.get("_nodes_by_id")
        if index is None:
            index = {node.node_id: node for node in self.nodes}
            self.__dict__["_nodes_by_id"] = index
        return index

    def distances(self) -> Dict[int, Dict[int, int]]:
        """The full APSP matrix: ``v -> {s: d(s, v)}`` from node ledgers."""
        return {
            v: node.ledger.distances()
            for v, node in self._node_index().items()
        }

    def dependency(self, source: int, node: int):
        """delta_{source·}(node) as computed by the protocol."""
        candidate = self._node_index().get(node)
        if candidate is None:
            raise KeyError(node)
        return candidate.aggregation.dependencies().get(source)


def distributed_betweenness(
    graph: Graph,
    arithmetic: ModeSpec = "lfloat",
    root: Optional[int] = 0,
    strict: bool = True,
    congest_factor: int = DEFAULT_CONGEST_FACTOR,
    cut=None,
    config: Optional[ProtocolConfig] = None,
    tracer=None,
    telemetry=None,
    engine: str = "auto",
    frame_audit: bool = False,
    faults=None,
    resilient: bool = False,
    protocol=None,
    workers: int = 1,
    partitioner: str = "greedy",
    supervision=None,
) -> DistributedBCResult:
    """Compute every node's betweenness with the paper's algorithm.

    Parameters
    ----------
    graph:
        Undirected, unweighted, **connected** graph.
    arithmetic:
        ``"exact"`` for arbitrary-precision reference arithmetic (may
        violate CONGEST on shortest-path-count-heavy graphs — the
        paper's "Large Value Challenge"), ``"lfloat"`` for the Section
        VI floating point with an automatically chosen L, ``"lfloat-<L>"``
        for an explicit L, or a ready :class:`ArithmeticContext`.
    root:
        The vertex u0 hosting the global BFS tree and the DFS token
        (the paper picks it at random; any vertex is correct).  Pass
        ``None`` to elect the root inside the model via the O(D)-round
        minimum-id leader election
        (:func:`repro.congest.primitives.elect_root`); the election's
        rounds are *not* included in ``result.rounds``.
    strict, congest_factor:
        Per-edge bandwidth enforcement, see
        :class:`~repro.congest.simulator.Simulator`.
    cut:
        Optional node set for cut-traffic accounting (Section IX
        experiments).
    config:
        Advanced protocol knobs (source/target subsets, stress unit,
        counting-only); defaults to the paper's exact algorithm.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` (duck-typed —
        this module does not import ``repro.obs``).  Wired into the
        simulator (metrics, monitors, profiling) and the root node
        (protocol-state phase marks); after the run its
        ``finalize_run(result)`` hook fires so post-run monitors (the
        Theorem 1 error check) can judge the collected result.
    engine:
        Simulator execution engine.  ``"auto"`` (default) resolves to
        the fastest capable backend via
        :mod:`repro.engines.dispatcher`: the vectorized ``"bulk"``
        engine when numpy is available and the run fits its envelope,
        else ``"event"``.  ``"event"`` steps only active nodes;
        ``"sweep"`` steps every node every round (the assumption-free
        reference); ``"bulk"`` executes whole rounds as numpy array
        ops.  All engines produce bit-identical results (the
        differential suite enforces it); explicit ``"bulk"`` raises
        :class:`~repro.exceptions.EngineCapabilityError` outside its
        envelope.  The resolved name is reported in
        ``result.stats`` consumers via ``Simulator.engine``.
    frame_audit:
        When True, every per-edge per-round frame is materialized
        through the :mod:`repro.wire` codec and length-checked against
        the billed bits (see
        :class:`~repro.congest.simulator.Simulator`).  Incompatible
        with ``resilient`` (transport envelopes are honestly sized but
        unregistered in the 4-bit tag space).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` (or pre-built
        :class:`~repro.faults.injector.FaultInjector`) subjecting the
        run to message drop/duplication/delay/corruption, crash windows
        and link outages.  ``None`` (the default) is a zero-cost fast
        path producing output bit-identical to a faultless build.  A
        run the stall detector cuts short returns a **partial** result:
        betweenness restricted to the sources named complete in
        ``result.completeness`` (exact for that subset) instead of
        raising.
    resilient:
        Run every node behind the ack/retransmit transport
        (:class:`~repro.faults.transport.ResilientNode`).  Under any
        recoverable fault plan the recovered betweenness is exactly the
        fault-free answer.  When ``congest_factor`` is left at its
        default it is raised to
        :data:`~repro.faults.transport.RESILIENT_CONGEST_FACTOR` to
        fund the transport's constant per-edge overhead.
    protocol:
        Registered protocol name (or
        :class:`~repro.protocols.Protocol` descriptor) to run:
        ``"hua-bc"`` (the paper's Algorithms 2–3, the default) or any
        rival registered in :mod:`repro.protocols` (e.g. ``"cfp-bc"``).
        The descriptor supplies the node factory, the engine capability
        flags and the result extractor; the chosen name is recorded in
        ``result.protocol``.
    workers:
        Worker-process count for ``engine="shard"`` — the node set is
        partitioned across processes and only cross-shard traffic
        crosses process boundaries (as encoded wire frames), so rounds,
        bits, messages and betweenness stay bit-identical to the
        single-process engines.  Ignored by every other engine;
        ``"auto"`` never resolves to the sharded runtime.  See
        ``docs/sharding.md``.
    partitioner:
        Shard partitioning strategy (``"greedy"`` or ``"block"``); see
        :mod:`repro.shard.partition`.
    supervision:
        A :class:`repro.shard.supervisor.SupervisionConfig` making the
        shard coordinator supervise its workers: heartbeat watchdog,
        respawn-with-rollback on dead/hung workers, round-boundary
        checkpoints, resume.  Requires ``engine="shard"``.  Supervision
        never changes any output — a recovered or resumed run is
        bit-identical to an uninterrupted one.  See
        ``docs/recovery.md``.  A run paused by
        ``SupervisionConfig.stop_after`` raises
        :class:`~repro.exceptions.CheckpointPause`.

    Returns
    -------
    DistributedBCResult

    Examples
    --------
    >>> from repro.graphs import figure1_graph
    >>> result = distributed_betweenness(figure1_graph(), arithmetic="exact")
    >>> result.betweenness_exact[1]
    Fraction(7, 2)
    >>> result.diameter
    3
    """
    require_connected(graph)
    if root is None:
        from repro.congest.primitives import elect_root

        root, _election_rounds = elect_root(
            graph, strict=strict, congest_factor=congest_factor
        )
    if not graph.has_node(root):
        raise KeyError(root)
    ctx = make_context(arithmetic, graph.num_nodes)
    config = config or ProtocolConfig()
    injector = None
    if faults is not None:
        from repro.faults.injector import FaultInjector

        if hasattr(faults, "deliveries"):
            injector = faults
            if injector.arith is None:
                injector.arith = ctx
            if injector.tracer is None:
                injector.tracer = tracer
        else:
            injector = FaultInjector(faults, arith=ctx, tracer=tracer)
    from repro.protocols import get_protocol

    proto = get_protocol(protocol)
    node_factory = proto.build_factory(
        root, ctx, config=config, telemetry=telemetry
    )
    if resilient:
        if not proto.fault_wrappable:
            raise ProtocolError(
                "protocol {!r} opted out of the resilient transport "
                "(fault_wrappable=False)".format(proto.name)
            )
        from repro.faults.transport import (
            RESILIENT_CONGEST_FACTOR,
            make_resilient_factory,
        )

        node_factory = make_resilient_factory(node_factory)
        if congest_factor == DEFAULT_CONGEST_FACTOR:
            congest_factor = RESILIENT_CONGEST_FACTOR
    simulator = Simulator(
        graph,
        node_factory,
        strict=strict,
        congest_factor=congest_factor,
        cut=cut,
        tracer=tracer,
        telemetry=telemetry,
        engine=engine,
        frame_audit=frame_audit,
        faults=injector,
        protocol=proto,
        workers=workers,
        partitioner=partitioner,
        supervision=supervision,
    )
    try:
        stats = simulator.run()
    except SimulationStalledError as stall:
        nodes = _protocol_nodes(simulator, resilient, proto.node_class)
        result = _collect_partial(
            graph, nodes, simulator.stats, ctx, root, stall,
            protocol=proto.name,
        )
        if telemetry is not None:
            telemetry.finalize_run(result)
        return result
    nodes = _protocol_nodes(simulator, resilient, proto.node_class)
    if proto.extract is not None:
        result = proto.extract(simulator, graph, ctx, root)
    else:
        result = _collect(graph, nodes, stats, ctx, root, protocol=proto.name)
    if telemetry is not None:
        telemetry.finalize_run(result)
    return result


def _protocol_nodes(
    simulator: Simulator, resilient: bool, node_class=BetweennessNode
) -> List[BetweennessNode]:
    """The protocol nodes of a run, unwrapped from any transport."""
    raw = simulator.nodes
    if resilient:
        raw = [getattr(node, "inner", node) for node in raw]
    return [node for node in raw if isinstance(node, node_class)]


def _collect(
    graph: Graph,
    nodes: List[BetweennessNode],
    stats: SimulationStats,
    ctx: ArithmeticContext,
    root: int,
    protocol: str = "hua-bc",
) -> DistributedBCResult:
    exact = isinstance(ctx, ExactContext)
    betweenness: Dict[int, float] = {}
    betweenness_exact: Optional[Dict[int, Fraction]] = {} if exact else None
    diameter: Optional[int] = None
    start_times: Dict[int, int] = {}
    for node in nodes:
        raw = node.betweenness_raw
        if exact:
            value = Fraction(raw) / 2
            betweenness_exact[node.node_id] = value
            betweenness[node.node_id] = float(value)
        else:
            betweenness[node.node_id] = ctx.to_float(raw) / 2.0
        if node.diameter is not None:
            if diameter is not None and diameter != node.diameter:
                raise ProtocolError(
                    "nodes disagree on the diameter: {} vs {}".format(
                        diameter, node.diameter
                    )
                )
            diameter = node.diameter
        if node.counting.own_start_time is not None:
            start_times[node.node_id] = node.counting.own_start_time
        elif node.config.is_source(node.node_id):
            raise ProtocolError(
                "node {} never started its BFS".format(node.node_id)
            )
    if diameter is None:
        raise ProtocolError("no node learned the diameter")
    completeness = CompletenessReport(
        complete=True,
        complete_sources=tuple(sorted(start_times)),
        affected_sources=(),
        unfinished_nodes=(),
        crashed_nodes=(),
        stalled_round=None,
    )
    return DistributedBCResult(
        graph=graph,
        betweenness=betweenness,
        betweenness_exact=betweenness_exact,
        diameter=diameter,
        start_times=start_times,
        rounds=stats.rounds,
        stats=stats,
        arithmetic=ctx.name,
        root=root,
        nodes=nodes,
        completeness=completeness,
        protocol=protocol,
    )


def _collect_partial(
    graph: Graph,
    nodes: List[BetweennessNode],
    stats: SimulationStats,
    ctx: ArithmeticContext,
    root: int,
    stall: SimulationStalledError,
    protocol: str = "hua-bc",
) -> DistributedBCResult:
    """Graceful degradation: the bounded-partial result of a stalled run.

    A source counts as complete only when **every** other node executed
    its scheduled aggregation send for it; summing dependencies over
    that subset is exact for the subset (the per-source telescoping is
    independent), so the returned betweenness is a true lower-coverage
    answer rather than a silently wrong total.  The guarantee is sharp
    under the resilient transport (whose fence gating makes "sent"
    imply "psi final"); for raw runs under lossy plans it is
    best-effort — see ``docs/fault-model.md``.
    """
    exact = isinstance(ctx, ExactContext)
    stats.rounds = stall.round_number
    expected = sorted(
        node.node_id
        for node in nodes
        if node.config.is_source(node.node_id)
    )
    sent_by_node = {node.node_id: node.sent_sources() for node in nodes}
    complete = [
        source
        for source in expected
        if all(
            source in sent
            for owner, sent in sent_by_node.items()
            if owner != source
        )
    ]
    complete_set = frozenset(complete)
    betweenness: Dict[int, float] = {}
    betweenness_exact: Optional[Dict[int, Fraction]] = {} if exact else None
    diameter: Optional[int] = None
    start_times: Dict[int, int] = {}
    for node in nodes:
        raw = node.partial_betweenness_raw(complete_set)
        if exact:
            value = Fraction(raw) / 2
            betweenness_exact[node.node_id] = value
            betweenness[node.node_id] = float(value)
        else:
            betweenness[node.node_id] = ctx.to_float(raw) / 2.0
        if diameter is None and node.diameter is not None:
            diameter = node.diameter
        if node.counting.own_start_time is not None:
            start_times[node.node_id] = node.counting.own_start_time
    completeness = CompletenessReport(
        complete=False,
        complete_sources=tuple(complete),
        affected_sources=tuple(
            source for source in expected if source not in complete_set
        ),
        unfinished_nodes=stall.pending_nodes,
        crashed_nodes=stall.crashed_nodes,
        stalled_round=stall.round_number,
    )
    return DistributedBCResult(
        graph=graph,
        betweenness=betweenness,
        betweenness_exact=betweenness_exact,
        diameter=diameter,
        start_times=start_times,
        rounds=stats.rounds,
        stats=stats,
        arithmetic=ctx.name,
        root=root,
        nodes=nodes,
        completeness=completeness,
        protocol=protocol,
    )


# ----------------------------------------------------------------------
# counting-phase-only byproducts
# ----------------------------------------------------------------------
@dataclass
class DistributedAPSPResult:
    """Output of the counting phase: per-node distance rows and stats."""

    graph: Graph
    distances: Dict[int, Dict[int, int]]
    diameter: int
    rounds: int
    stats: SimulationStats

    def closeness(self) -> Dict[int, float]:
        """CC(v) = 1 / sum_s d(s, v), computed locally per node (Eq. 1)."""
        out = {}
        for v, row in self.distances.items():
            total = sum(row.values())
            out[v] = 1.0 / total if total else 0.0
        return out

    def graph_centrality(self) -> Dict[int, float]:
        """CG(v) = 1 / max_s d(s, v), computed locally per node (Eq. 2)."""
        out = {}
        for v, row in self.distances.items():
            ecc = max(row.values()) if row else 0
            out[v] = 1.0 / ecc if ecc else 0.0
        return out

    def eccentricities(self) -> Dict[int, int]:
        """ecc(v) per node."""
        return {
            v: max(row.values()) if row else 0
            for v, row in self.distances.items()
        }


def distributed_apsp(
    graph: Graph,
    root: int = 0,
    strict: bool = True,
    congest_factor: int = DEFAULT_CONGEST_FACTOR,
    engine: str = "auto",
    **kwargs,
) -> DistributedAPSPResult:
    """Run Algorithm 2 alone (the Holzer–Wattenhofer-style APSP core).

    The aggregation phase is skipped: nodes terminate as soon as the
    completion broadcast reaches them, so the round count reflects the
    counting phase plus O(D) control rounds.  Remaining keyword
    arguments (``telemetry``, ``frame_audit``, ...) are forwarded to
    :func:`distributed_betweenness`.
    """
    result = distributed_betweenness(
        graph,
        arithmetic="exact",
        root=root,
        strict=strict,
        congest_factor=congest_factor,
        config=ProtocolConfig(aggregate=False),
        engine=engine,
        **kwargs,
    )
    return DistributedAPSPResult(
        graph=graph,
        distances=result.distances(),
        diameter=result.diameter,
        rounds=result.rounds,
        stats=result.stats,
    )


def distributed_closeness(
    graph: Graph, root: int = 0, **kwargs
) -> Dict[int, float]:
    """Distributed closeness centrality (Eq. 1) in O(N) rounds."""
    return distributed_apsp(graph, root=root, **kwargs).closeness()


def distributed_graph_centrality(
    graph: Graph, root: int = 0, **kwargs
) -> Dict[int, float]:
    """Distributed graph centrality (Eq. 2) in O(N) rounds."""
    return distributed_apsp(graph, root=root, **kwargs).graph_centrality()


# ----------------------------------------------------------------------
# protocol-family variants (footnote 3 and related-work directions)
# ----------------------------------------------------------------------
def distributed_stress(
    graph: Graph,
    arithmetic: ModeSpec = "exact",
    root: int = 0,
    **kwargs,
) -> "DistributedStressResult":
    """Distributed stress centrality (Eq. 3) in O(N) rounds.

    Footnote 3 of the paper: "the stress centrality can also be
    computed in a similar way".  The aggregation recursion runs with
    unit term 1 instead of 1/sigma, so ``psi_s(v)`` counts shortest-path
    continuations and ``sigma_sv * psi_s(v)`` is the number of shortest
    paths through v.  With exact arithmetic (the default) the output is
    exactly integral.

    Note that stress counts, like sigma, can be exponential; L-float
    arithmetic is supported for CONGEST-tight runs at the usual O(2^-L)
    relative error.
    """
    result = distributed_betweenness(
        graph,
        arithmetic=arithmetic,
        root=root,
        config=ProtocolConfig(unit=UNIT_STRESS),
        **kwargs,
    )
    if result.betweenness_exact is not None:
        stress = {v: int(value) for v, value in result.betweenness_exact.items()}
    else:
        stress = {v: value for v, value in result.betweenness.items()}
    return DistributedStressResult(
        graph=graph,
        stress=stress,
        diameter=result.diameter,
        rounds=result.rounds,
        stats=result.stats,
        arithmetic=result.arithmetic,
    )


@dataclass
class DistributedStressResult:
    """Output of :func:`distributed_stress`."""

    graph: Graph
    #: node -> CS(node); exact ints under exact arithmetic.
    stress: Dict[int, Union[int, float]]
    diameter: int
    rounds: int
    stats: SimulationStats
    arithmetic: str


@dataclass
class SampledBCResult:
    """Output of :func:`distributed_sampled_betweenness`."""

    graph: Graph
    #: node -> extrapolated betweenness estimate (N/k scaling applied).
    estimate: Dict[int, float]
    pivots: Tuple[int, ...]
    diameter_bound: int
    rounds: int
    stats: SimulationStats
    arithmetic: str


def distributed_sampled_betweenness(
    graph: Graph,
    num_samples: int,
    seed: int = 0,
    arithmetic: ModeSpec = "lfloat",
    root: int = 0,
    telemetry=None,
    **kwargs,
) -> SampledBCResult:
    """Approximate distributed BC from a sampled pivot set.

    The distributed analogue of Brandes–Pich sampling (and of the
    approach sketched in Holzer's thesis [15]): only ``num_samples``
    pivot nodes root a BFS in the counting phase, the aggregation runs
    over those sources alone, and each node extrapolates
    ``CB(v) ≈ (N / k) * sum over sampled s of delta_s·(v) / 2``.

    Fewer sources mean proportionally fewer messages; the round count
    stays O(N) (the DFS token still tours the tree), which is why the
    paper's *exact* O(N) algorithm dominates in this model — this
    variant exists to measure exactly that trade-off.

    ``telemetry`` reaches the simulator and the root node exactly as in
    :func:`distributed_betweenness`; its post-run ``finalize_run`` sees
    the inner (unscaled) :class:`DistributedBCResult`.  Remaining
    keyword arguments are forwarded to :func:`distributed_betweenness`.
    """
    import random as _random

    require_connected(graph)
    n = graph.num_nodes
    if not 1 <= num_samples <= n:
        raise ValueError("need 1 <= num_samples <= N")
    rng = _random.Random(seed)
    pivots = tuple(sorted(rng.sample(range(n), num_samples)))
    result = distributed_betweenness(
        graph,
        arithmetic=arithmetic,
        root=root,
        config=ProtocolConfig(sources=frozenset(pivots)),
        telemetry=telemetry,
        **kwargs,
    )
    scale = n / float(num_samples)
    estimate = {v: value * scale for v, value in result.betweenness.items()}
    return SampledBCResult(
        graph=graph,
        estimate=estimate,
        pivots=pivots,
        diameter_bound=result.diameter,
        rounds=result.rounds,
        stats=result.stats,
        arithmetic=result.arithmetic,
    )
