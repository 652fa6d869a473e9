"""The synchronous CONGEST-model network simulator.

Semantics (matching Section III-A of the paper):

* Execution proceeds in globally synchronized rounds ``0, 1, 2, ...``.
* A message enqueued in round ``t`` is delivered at the start of round
  ``t + 1``; channels are reliable and FIFO.
* Within a round a node first receives, then computes (for free), then
  sends — so a node at distance ℓ from a BFS source settles *and*
  forwards the wave in round ``T_s + ℓ``, exactly the timing the paper's
  Lemma 4 arithmetic assumes.
* In **strict mode** the simulator enforces the CONGEST bandwidth
  restriction: the bits enqueued on one directed edge in one round may
  not exceed ``congest_factor * ceil(log2 N)``; an overflow raises
  :class:`~repro.exceptions.CongestViolationError`.  The factor models
  the O(·) constant; the paper's algorithm needs only a small constant
  because at most one BFS wave, one aggregation message, one token and
  one control message share an edge per round.

The simulator is deterministic: nodes act in id order, and each inbox
lists messages in sender-id order (senders act in id order, so the
in-flight lists are sender-sorted by construction — no per-round sort is
needed), so every run (and therefore every benchmark table) is exactly
reproducible.

Two execution engines share these semantics — they are the two
active-set policies of one :class:`~repro.congest.kernel.RoundKernel`
driven by one loop:

* ``engine="sweep"`` (the default) calls ``on_round`` on **every** node
  **every** round, exactly like a lockstep hardware network would.  It
  makes no assumptions about the node algorithm and is the reference
  for differential testing, tracing and debugging.
* ``engine="event"`` only steps **active** nodes: nodes with a
  newly delivered *waking* message, plus nodes that registered an
  explicit self-wake via :meth:`RoundContext.wake_at`.  Rounds in which
  no node is active are fast-forwarded without touching any node.  The
  paper's pipelined schedule (Lemma 4) leaves most nodes idle in most
  rounds, so this drops the O(N * rounds) Python-level sweep to the
  protocol's true activity volume.  **Contract:** a node stepped with
  an empty inbox outside its registered wake rounds must not change
  state or send — protocols whose idle ``on_round`` has side effects
  (e.g. counting quiet rounds) must either register wakes or use the
  sweep engine.

  Receivers can additionally declare individual arrivals *passive* via
  :meth:`NodeAlgorithm.message_wakes`: a passive message is delivered
  (it lands in the node's inbox and counts toward the round's traffic
  and edge budgets exactly as under the sweep engine) but does not by
  itself cause a step — it is processed in batch at the node's next
  step.  This is only sound for messages whose handling neither
  mutates state nor sends (pure acknowledgements / broadcast echoes);
  the betweenness protocol uses it for the BFS-wave echoes that ripple
  back from already-settled nodes, which dominate the active-step
  count on high-diameter graphs.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, List, Optional, Tuple

from repro.congest.kernel import RoundKernel
from repro.congest.node import NodeAlgorithm, NodeFactory
from repro.congest.stats import CutTracker, SimulationStats
from repro.exceptions import SimulationNotTerminatedError
from repro.wire import WireFormat
from repro.graphs.graph import Graph

#: Default per-edge budget multiplier: budget = factor * ceil(log2 N).
#: The pipeline's worst round stacks a BFS wave (id + round stamp +
#: distance + a 2L+1-bit float), a token and a control message, all
#: O(log N); 32 covers L = 3 log2 N comfortably while still catching the
#: Theta(N)-bit messages of exact arithmetic on path-count-heavy graphs.
DEFAULT_CONGEST_FACTOR = 32

#: Recognized execution engines (see the module docstring).  ``"auto"``
#: resolves to the fastest capable engine at construction time via
#: :func:`repro.engines.resolve_engine`; ``"bulk"`` is the vectorized
#: numpy backend and ``"shard"`` the multi-process runtime of
#: :mod:`repro.shard` (both raise
#: :class:`~repro.exceptions.EngineCapabilityError` when the run falls
#: outside their envelope).  ``"auto"`` never resolves to ``"shard"``
#: — multi-process execution is an explicit opt-in.
ENGINES = ("sweep", "event", "bulk", "shard", "auto")


class Simulator:
    """Run a :class:`NodeAlgorithm` on every node of a graph.

    Parameters
    ----------
    graph:
        The communication topology.
    node_factory:
        Called as ``node_factory(node_id, neighbors)`` for every node.
    strict:
        Enforce the per-edge bit budget (default True).
    congest_factor:
        Budget multiplier c in ``c * ceil(log2 N)`` bits per directed
        edge per round.
    max_rounds:
        Safety valve; exceeded ⇒ :class:`SimulationNotTerminatedError`.
        Defaults to ``20 * N + 1000``, far above the paper's O(N) bound.
    cut:
        Optional node set: traffic crossing the induced 2-partition is
        tallied in ``stats.cut`` (used by the Section IX experiments).
    wire:
        Override the :class:`WireFormat` (defaults to one sized for the
        graph).
    tracer:
        Optional :class:`~repro.congest.trace.Tracer` recording every
        delivery for post-run inspection.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` (duck-typed —
        this module does not import ``repro.obs``).  When given, the
        simulator calls ``on_run_start(self)`` before the first round,
        ``on_send(round, sender, receiver, message, bits)`` per enqueued
        message (only if ``telemetry.wants_sends``), ``on_round_end(
        round, edge_load)`` after each round with traffic (with the
        reusable accounting buffer, before it is cleared), and
        ``on_run_end(stats)`` after termination.  If
        ``telemetry.profiler`` is set, the engines additionally time
        their delivery/step sections and count scheduling events.  The
        disabled path (``None``, the default) costs one identity check
        per hook site, mirroring ``tracer``.
    engine:
        ``"sweep"`` (default) steps every node every round; ``"event"``
        steps only nodes with pending messages or registered wakes and
        fast-forwards idle rounds.  Both engines produce identical
        results for protocols honoring the wake contract (see the
        module docstring).
    frame_audit:
        When True, the simulator additionally *materializes* every
        per-edge per-round frame through the wire codec
        (:func:`repro.wire.encode_frame` coalesces the edge's messages
        into one bit string) and verifies its length equals the bits
        the accounting charged; a disagreement raises
        :class:`~repro.exceptions.WireCodecError`.  This turns the
        bandwidth numbers from "trusted bookkeeping" into "checked
        against real encoded frames" at the cost of encoding every
        message, so it is off by default.  (Incompatible with resilient
        transport runs, whose envelopes are honestly sized but live
        outside the 4-bit tag registry.)
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` or pre-built
        :class:`~repro.faults.injector.FaultInjector`.  When given,
        every send is routed through the injector's delivery pipeline
        (drop / duplicate / delay / corrupt / link-down), nodes inside
        crash windows are skipped instead of stepped, and a per-round
        stall check converts a starved run into
        :class:`~repro.exceptions.SimulationStalledError`.  ``None``
        (the default) is a zero-cost fast path: one identity check per
        hook site, and the run is bit-identical to a faultless build.
    protocol:
        Optional protocol name or :class:`~repro.protocols.Protocol`
        descriptor identifying the algorithm the node factory builds.
        When omitted it is inferred from the constructed nodes' exact
        class (``None`` for unregistered custom algorithms).  The
        engine dispatcher, the progress estimator and the telemetry
        metadata consult it instead of probing for the stock node.
    workers:
        Number of worker processes for ``engine="shard"`` (ignored by
        the single-process engines).  Shard 0 runs inside this process;
        the rest are forked children exchanging encoded wire frames per
        round.  See ``docs/sharding.md``.
    partitioner:
        Node-partitioning strategy for ``engine="shard"``: ``"greedy"``
        (default, graph-growing edge-cut minimizer) or ``"block"``
        (contiguous id ranges).
    supervision:
        A :class:`repro.shard.supervisor.SupervisionConfig` turning the
        shard coordinator into a supervisor (heartbeat watchdog, worker
        respawn, round-boundary checkpoints, resume).  Requires
        ``engine="shard"``; see ``docs/recovery.md``.
    """

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        strict: bool = True,
        congest_factor: int = DEFAULT_CONGEST_FACTOR,
        max_rounds: Optional[int] = None,
        cut: Optional[Iterable[int]] = None,
        wire: Optional[WireFormat] = None,
        tracer=None,
        telemetry=None,
        engine: str = "sweep",
        frame_audit: bool = False,
        faults=None,
        protocol=None,
        workers: int = 1,
        partitioner: str = "greedy",
        supervision=None,
    ):
        if engine not in ENGINES:
            raise ValueError(
                "unknown engine {!r} (expected one of {})".format(
                    engine, ENGINES
                )
            )
        if not isinstance(workers, int) or workers < 1:
            raise ValueError(
                "workers must be a positive int, got {!r}".format(workers)
            )
        # Worker count and partitioner apply to engine="shard" only;
        # they are validated here (and the partitioner name by
        # repro.shard.partition at run time) so a typo fails fast even
        # when the run resolves to a single-process engine.
        from repro.shard.partition import PARTITIONERS

        if partitioner not in PARTITIONERS:
            raise ValueError(
                "unknown partitioner {!r} (expected one of {})".format(
                    partitioner, PARTITIONERS
                )
            )
        self.workers = workers
        self.partitioner = partitioner
        # Supervision (heartbeats, respawn, round-boundary checkpoints,
        # resume) for engine="shard"; None keeps the unsupervised path.
        self.supervision = supervision
        self.graph = graph
        self.strict = strict
        self.engine = engine
        self.wire = wire or WireFormat(max(1, graph.num_nodes))
        # O(log N) hides an additive constant; flooring the log factor
        # at 4 bits keeps degenerate 2-node networks from being starved
        # below a single float-carrying message.
        self.bit_budget = congest_factor * max(4, self.wire.id_bits)
        self.max_rounds = (
            max_rounds if max_rounds is not None else 20 * graph.num_nodes + 1000
        )
        self.stats = SimulationStats()
        self.tracer = tracer
        if tracer is not None and hasattr(tracer, "bind_wire"):
            # Payload-capturing tracers encode each message through the
            # run's wire format (see repro.congest.trace).
            tracer.bind_wire(self.wire)
        self.telemetry = telemetry
        if cut is not None:
            self.stats.cut = CutTracker(frozenset(cut))
        self.nodes: List[NodeAlgorithm] = [
            node_factory(v, graph.neighbors(v)) for v in graph.nodes()
        ]
        #: Frame audit (off by default): every per-edge round frame is
        #: encoded and length-checked against the billed bits.
        self.frame_audit = frame_audit
        # Fault injection (None = zero-cost fast path).  A bare
        # FaultPlan is wrapped in a fresh injector here; the import is
        # lazy so repro.congest keeps no hard dependency on repro.faults.
        if faults is not None and not hasattr(faults, "deliveries"):
            from repro.faults.injector import FaultInjector

            faults = FaultInjector(faults, tracer=tracer)
        self.faults = faults
        if faults is not None:
            faults.bind(self)
            self.stats.faults = faults.stats
        # The registered protocol this run executes: an explicit name /
        # descriptor, or inferred from the node class the factory built
        # (transport wrappers expose the protocol node as ``.inner``).
        # None for unregistered custom algorithms.  Lazy import keeps
        # repro.congest importable without the protocols package.
        from repro.protocols import get_protocol, protocol_of_node

        if protocol is not None:
            self.protocol = get_protocol(protocol)
        else:
            probe = self.nodes[0] if self.nodes else None
            if probe is not None:
                probe = getattr(probe, "inner", probe)
            self.protocol = (
                protocol_of_node(probe) if probe is not None else None
            )
        # Resolve "auto" / validate "bulk" now that nodes and faults are
        # in place, so self.engine is a concrete name before run() (and
        # before telemetry snapshots it in on_run_start).  Lazy import:
        # repro.congest stays importable without the engines package.
        self.engine_requested = engine
        self.engine_decision = None
        if engine in ("auto", "bulk", "shard"):
            from repro.engines import decide_engine

            self.engine_decision = decide_engine(engine, self)
            self.engine = self.engine_decision.resolved
        if self.supervision is not None and self.engine != "shard":
            # Supervision only exists in the multi-process runtime; a
            # silently-ignored checkpoint/resume request would be a
            # durability lie, so fail loudly instead.
            from repro.exceptions import EngineCapabilityError

            raise EngineCapabilityError(
                self.engine,
                "supervision (checkpoints, restarts, resume) requires "
                "engine='shard'",
            )
        self.stats.engine = self.engine

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Drive rounds until every node is done and no message is in flight.

        Returns the populated :class:`SimulationStats`.
        """
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_run_start(self)
        if self.engine == "bulk":
            from repro.engines.bulk import run_bulk

            stats = run_bulk(self)
        elif self.engine == "shard":
            from repro.shard.runtime import run_shard

            stats = run_shard(self)
        else:
            stats = self._run_rounds()
        if telemetry is not None:
            telemetry.on_run_end(stats)
        return stats

    def _run_rounds(self) -> SimulationStats:
        """The sweep and event engines: one loop over a :class:`RoundKernel`.

        Sweep steps every node every round; event steps the woken ones
        and fast-forwards idle stretches to the next wake, delayed
        delivery or stall deadline.
        """
        nodes = self.nodes
        n = len(nodes)
        sweep = self.engine == "sweep"
        kernel = RoundKernel(self, range(n), sweep=sweep)
        edge_load = kernel.edge_load
        stats = self.stats
        telemetry = self.telemetry
        profiler = telemetry.profiler if telemetry is not None else None
        on_round_end = None
        # Streaming/progress tick: bound once, None on the fast path, so
        # a run without a bus or estimator pays one identity check per
        # round (same discipline as tracer/faults).
        on_tick = None
        if telemetry is not None:
            on_round_end = telemetry.on_round_end
            if getattr(telemetry, "wants_ticks", False):
                on_tick = telemetry.on_round_tick
        faults = self.faults
        if faults is not None:
            from repro.faults.injector import stall_deadline
        max_rounds = self.max_rounds
        round_number = 0
        try:
            while True:
                if on_tick is not None:
                    on_tick(round_number)
                if faults is not None:
                    faults.check_stalled(round_number, self)
                    kernel.mature(round_number)
                if round_number > max_rounds:
                    raise SimulationNotTerminatedError(
                        round_number,
                        max_rounds,
                        tuple(node.node_id for node in nodes if not node.done),
                        self.graph.name,
                    )
                had_traffic = bool(kernel.in_flight)
                if (
                    not had_traffic
                    and round_number > 0
                    and not kernel.future
                    and kernel.done_count == n
                ):
                    break
                stats.start_round()
                if profiler is None:
                    stepped = kernel.run_round(round_number)
                else:
                    started = perf_counter()
                    stepped = kernel.run_round(round_number)
                    profiler.add("engine.step", perf_counter() - started)
                    profiler.bump("engine.active_node_steps", stepped)
                    if had_traffic and not stepped:
                        profiler.bump("engine.passive_rounds")
                if edge_load:
                    stats.observe_round(round_number, edge_load)
                    if on_round_end is not None:
                        on_round_end(round_number, edge_load)
                    edge_load.clear()
                round_number += 1
                if stepped or had_traffic or sweep:
                    continue
                # Idle round: nobody received and nobody asked to be
                # woken, so by the wake contract no node changes state
                # before the next wake, delayed delivery or stall
                # deadline.  With none pending the counter runs out to
                # the round limit, as under sweep.
                skip_to = max_rounds + 1
                if kernel.wake_heap:
                    skip_to = min(skip_to, kernel.wake_heap[0][0])
                if kernel.future:
                    skip_to = min(skip_to, kernel.future[0][0])
                if faults is not None:
                    skip_to = min(
                        skip_to,
                        stall_deadline(
                            faults.plan, faults.last_progress_round, n
                        ),
                    )
                if profiler is not None and skip_to > round_number:
                    profiler.bump(
                        "engine.fast_forwarded_rounds", skip_to - round_number
                    )
                while round_number < skip_to:
                    stats.start_round()
                    round_number += 1
        finally:
            if faults is not None:
                faults.settle_crashes(round_number)
        stats.rounds = round_number
        return stats


def run_protocol(
    graph: Graph,
    node_factory: NodeFactory,
    **kwargs,
) -> Tuple[List[NodeAlgorithm], SimulationStats]:
    """Convenience wrapper: build a :class:`Simulator`, run it, return nodes.

    Returns
    -------
    (nodes, stats):
        The node objects after termination (holding their local outputs)
        and the run statistics.
    """
    sim = Simulator(graph, node_factory, **kwargs)
    stats = sim.run()
    return sim.nodes, stats
