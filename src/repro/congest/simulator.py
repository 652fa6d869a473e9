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
active-set policies of one :class:`~repro.congest.kernel.RoundKernel`,
run by the round driver :func:`~repro.congest.kernel.drive_rounds`
that also runs the shard coordinator and the bulk engine's replay:

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

from typing import Iterable, List, Optional, Tuple

from repro.congest.kernel import RoundKernel, drive_rounds
from repro.congest.node import NodeAlgorithm, NodeFactory
from repro.congest.options import DEFAULT_CONGEST_FACTOR  # noqa: F401
from repro.congest.options import RunOptions
from repro.congest.stats import CutTracker, SimulationStats
from repro.wire import WireFormat
from repro.graphs.graph import Graph

#: A bare simulator runs on sweep, the engine that makes no assumptions
#: about a custom :class:`NodeAlgorithm`; every pipeline defaults to
#: ``RunOptions()`` (``engine="auto"``) instead.
_SWEEP = RunOptions(engine="sweep")


class Simulator:
    """Run a :class:`NodeAlgorithm` on every node of a graph.

    Parameters
    ----------
    graph:
        The communication topology.
    node_factory:
        Called as ``node_factory(node_id, neighbors)`` for every node.
    options:
        The :class:`~repro.congest.options.RunOptions` choosing the
        engine, shard workers, partitioner, supervision, bandwidth
        enforcement and frame audit.  Defaults to ``engine="sweep"``,
        which runs any node algorithm; ``"event"`` additionally needs
        the wake contract (see the module docstring).
    max_rounds:
        Safety valve: the last round a node may be stepped in.  A run
        still active at round ``max_rounds + 1`` raises
        :class:`SimulationNotTerminatedError`; one quiescent there has
        terminated.
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
    """

    def __init__(
        self,
        graph: Graph,
        node_factory: NodeFactory,
        options: RunOptions = _SWEEP,
        max_rounds: Optional[int] = None,
        cut: Optional[Iterable[int]] = None,
        wire: Optional[WireFormat] = None,
        tracer=None,
        telemetry=None,
        faults=None,
        protocol=None,
    ):
        engine = options.engine
        self.workers = options.workers
        self.partitioner = options.partitioner
        # Supervision (heartbeats, respawn, round-boundary checkpoints,
        # resume) for engine="shard"; None keeps the unsupervised path.
        self.supervision = options.supervision
        self.graph = graph
        self.strict = options.strict
        self.engine = engine
        self.wire = wire or WireFormat(max(1, graph.num_nodes))
        # O(log N) hides an additive constant; flooring the log factor
        # at 4 bits keeps degenerate 2-node networks from being starved
        # below a single float-carrying message.
        self.bit_budget = options.congest_factor * max(4, self.wire.id_bits)
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
        self.frame_audit = options.frame_audit
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
            kernel = RoundKernel(
                self, range(len(self.nodes)), sweep=self.engine == "sweep"
            )
            stats = self.stats
            stats.rounds = drive_rounds(self, kernel)
        if telemetry is not None:
            telemetry.on_run_end(stats)
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
