"""The round kernel and the round driver of the synchronous CONGEST model.

Every engine counts rounds, bits and messages through two pieces of
this module, over the round model of Section III-A:

* :class:`RoundKernel` — one process's share of a round.  It owns the
  round state (in-flight lists, the heap of delayed deliveries,
  deferred inboxes, the wake heap, the per-edge load and the audit
  frames) and does three jobs per round: delivery through the
  ``message_wakes`` filter, active-set selection with the crash filter,
  and the one send path (:meth:`RoundKernel.send`: billing, the strict
  budget check, frame collection, tracer and ``on_send`` hooks, the
  fault pipeline).  The sweep engine runs it with the *sweep* policy
  (every member every round), the event engine and each shard worker
  of :mod:`repro.shard.runtime` with the *wake* policy (members with a
  waking arrival or a due self-wake).
* :func:`drive_rounds` — the outer loop, written once: the per-round
  tick, the stall deadline, the round limit, termination, the idle
  fast-forward, the per-round statistics, the ``engine.*`` profiler
  counters and crash settlement.  It runs a *world*: the kernel itself
  for sweep and event, the shard coordinator over its workers' reports,
  and the bulk engine's replay of its planned sends.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.node import Inbox, NodeAlgorithm, RoundContext
from repro.exceptions import (
    CongestViolationError,
    SimulationNotTerminatedError,
    SimulationStalledError,
    WireCodecError,
)
from repro.wire import Message, WireFormat, encode_frame


def drive_rounds(sim, world, start_round: int = 0) -> int:
    """Run ``world`` from ``start_round`` to termination; return the
    round count.

    ``world`` supplies the state of the run and nothing else:

    * ``fresh_next`` — fresh deliveries are in flight for the coming
      round; ``next_due()`` — the earliest delayed delivery (or None);
      ``next_wake(round)`` — the earliest registered wake (or None);
    * ``quiescent()`` — every node is done and no delayed delivery is
      pending; ``pending_nodes()`` — the ids of the nodes not done;
    * ``last_progress`` — the fault injector's last round of fresh
      traffic; ``stall(round)`` — collect what a stalled run leaves
      and raise :class:`~repro.exceptions.SimulationStalledError`;
      ``abandoned`` — part of the network was given up, so a run with
      nothing left to wake stalls instead of idling to the round limit;
    * ``run_round(round)`` — one round, its sends billed into
      ``edge_load``; returns the number of nodes stepped.

    A round with nothing to deliver and no wake due is idle: by the
    wake contract no node changes state in it, so the driver skips to
    the next wake, delayed delivery or stall deadline (to the round
    limit when none is pending) without touching the world.  Under the
    sweep policy the next wake is always the current round, so sweep
    never skips.
    """
    stats = sim.stats
    telemetry = sim.telemetry
    profiler = on_round_end = on_tick = None
    if telemetry is not None:
        profiler = telemetry.profiler
        on_round_end = telemetry.on_round_end
        # Streaming/progress tick: None on the fast path, so a run
        # without a bus or estimator pays one identity check per round.
        if getattr(telemetry, "wants_ticks", False):
            on_tick = telemetry.on_round_tick
    faults = sim.faults
    if faults is not None:
        from repro.faults.injector import stall_deadline
    n = len(sim.nodes)
    max_rounds = sim.max_rounds
    edge_load = world.edge_load
    round_number = start_round
    try:
        while True:
            if on_tick is not None:
                on_tick(round_number)
            deadline = None
            if faults is not None:
                deadline = stall_deadline(faults.plan, world.last_progress, n)
                if round_number >= deadline and world.pending_nodes():
                    world.stall(round_number)
            due = world.next_due()
            traffic = world.fresh_next or (
                due is not None and due <= round_number
            )
            idle = not traffic and round_number > 0
            # Quiescence wins over the round limit: a run whose rounds
            # 0..max_rounds all ran and that is quiescent at round
            # max_rounds + 1 has terminated.
            if idle and world.quiescent():
                break
            if round_number > max_rounds:
                raise SimulationNotTerminatedError(
                    round_number,
                    max_rounds,
                    world.pending_nodes(),
                    sim.graph.name,
                )
            if idle:
                wake = world.next_wake(round_number)
                if wake is None or wake > round_number:
                    skip_to = min(
                        bound for bound in (wake, due, max_rounds + 1)
                        if bound is not None
                    )
                    if skip_to > max_rounds and world.abandoned:
                        world.stall(round_number)
                    if deadline is not None and round_number < deadline:
                        skip_to = min(skip_to, deadline)
                    if profiler is not None:
                        profiler.bump(
                            "engine.fast_forwarded_rounds",
                            skip_to - round_number,
                        )
                    while round_number < skip_to:
                        stats.start_round()
                        round_number += 1
                    continue
            if profiler is None:
                stepped = world.run_round(round_number)
            else:
                started = perf_counter()
                stepped = world.run_round(round_number)
                profiler.add("engine.step", perf_counter() - started)
                profiler.bump("engine.active_node_steps", stepped)
                if traffic and not stepped:
                    profiler.bump("engine.passive_rounds")
            stats.start_round()
            if edge_load:
                stats.observe_round(round_number, edge_load)
                if on_round_end is not None:
                    on_round_end(round_number, edge_load)
                edge_load.clear()
            round_number += 1
    finally:
        if faults is not None:
            faults.settle_crashes(round_number)
    return round_number


class RoundKernel:
    """Round state and per-round work for the nodes ``members``.

    Parameters
    ----------
    sim:
        The :class:`~repro.congest.simulator.Simulator` whose nodes,
        wire format, budget, hooks and fault injector the kernel uses.
    members:
        Ids of the nodes this kernel steps, ascending.
    sweep:
        Active-set policy.  True steps every member every round (the
        reference oracle); False steps members with a waking arrival or
        a due self-wake (every member in round 0) and leaves idle rounds
        to the driver's fast-forward.
    assignment, shard_id:
        Router.  ``assignment=None`` delivers every send into this
        kernel's in-flight lists; a node -> shard list sends to nodes
        outside ``shard_id`` into :attr:`outbox` (destination shard ->
        ``(sender, target, due, message)`` records) and counts them in
        :attr:`cross_messages` and :attr:`cross_bits`.

    A kernel over every node is the :func:`drive_rounds` world of the
    sweep and event engines.
    """

    #: A single process never gives part of its network up.
    abandoned = False

    def __init__(
        self,
        sim,
        members: Sequence[int],
        sweep: bool = False,
        assignment: Optional[Sequence[int]] = None,
        shard_id: int = 0,
    ):
        self.sim = sim
        self.nodes = sim.nodes
        self.faults = sim.faults
        self.members = list(members)
        self.sweep = sweep
        self.assignment = assignment
        self.shard_id = shard_id
        # receiver -> [(sender, message)] delivered at the start of the
        # next round.  Senders step in id order, so each list is
        # sender-sorted by construction.
        self.in_flight: Dict[int, List[Tuple[int, Message]]] = {}
        # Deliveries maturing later than next round (delays, duplicates):
        # a heap of (due, send round, sender, seq, target, message).  The
        # key pops in global send order, also across shards.
        self.future: List[Tuple[int, int, int, int, int, Message]] = []
        self.seq = 0
        # Per-node delivered but unconsumed arrivals; a passive message
        # may wait here across rounds, a crashed node keeps its box.
        self.deferred: List[Optional[List[Tuple[int, Message]]]] = [
            None for _ in self.nodes
        ]
        # Pending self-wakes: a heap plus per-node sets that deduplicate
        # re-requests (sweep never consults them).
        self.wake_heap: List[Tuple[int, int]] = []
        self.wake_pending: List[Set[int]] = [set() for _ in self.nodes]
        # Nodes whose class overrides message_wakes get the per-message
        # delivery filter; everyone else wakes on any arrival.
        base_wakes = NodeAlgorithm.message_wakes
        self.has_filter: List[bool] = [
            type(node).message_wakes is not base_wakes for node in self.nodes
        ]
        # This round's directed edge -> [messages, bits] (the driver
        # consumes and clears it) and, under frame audit, its messages.
        self.edge_load: Dict[Tuple[int, int], List[int]] = {}
        self.edge_frames: Optional[Dict[Tuple[int, int], List[Message]]] = (
            {} if sim.frame_audit else None
        )
        # The send path's fixed settings.
        self.wire: WireFormat = sim.wire
        self.tracer = sim.tracer
        telemetry = sim.telemetry
        self.on_send = (
            telemetry.on_send
            if telemetry is not None and telemetry.wants_sends else None
        )
        self.budget: Optional[int] = sim.bit_budget if sim.strict else None
        self.done_count = sum(1 for v in self.members if self.nodes[v].done)
        #: (node, done) flips, recorded only when set to a list.
        self.done_changes: Optional[List[Tuple[int, bool]]] = None
        self.outbox: Dict[int, List[Tuple[int, int, int, Message]]] = {}
        self.cross_messages = 0
        self.cross_bits = 0

    # ------------------------------------------------------------------
    # the drive_rounds world of the sweep and event engines
    # ------------------------------------------------------------------
    @property
    def fresh_next(self) -> bool:
        return bool(self.in_flight)

    def next_due(self) -> Optional[int]:
        return self.future[0][0] if self.future else None

    def next_wake(self, round_number: int) -> Optional[int]:
        if self.sweep:
            return round_number
        return self.wake_heap[0][0] if self.wake_heap else None

    def quiescent(self) -> bool:
        return self.done_count == len(self.members) and not self.future

    def pending_nodes(self) -> Tuple[int, ...]:
        nodes = self.nodes
        return tuple(v for v in self.members if not nodes[v].done)

    @property
    def last_progress(self) -> int:
        return self.faults.last_progress_round

    def stall(self, round_number: int) -> None:
        faults = self.faults
        raise SimulationStalledError(
            round_number,
            faults.last_progress_round,
            self.pending_nodes(),
            faults.crashed_nodes(round_number),
        )

    # ------------------------------------------------------------------
    def wake(self, node_id: int, wake_round: int) -> None:
        """Step ``node_id`` again at ``wake_round`` (wake policy)."""
        pending = self.wake_pending[node_id]
        if wake_round not in pending:
            pending.add(wake_round)
            heapq.heappush(self.wake_heap, (wake_round, node_id))

    def push(
        self, due: int, send_round: int, sender: int, target: int, message
    ) -> None:
        """Queue one delivery: next round in flight, later on the heap."""
        if due == send_round + 1:
            bucket = self.in_flight.get(target)
            if bucket is None:
                self.in_flight[target] = [(sender, message)]
            else:
                bucket.append((sender, message))
        else:
            self.seq += 1
            heapq.heappush(
                self.future,
                (due, send_round, sender, self.seq, target, message),
            )

    def mature(self, round_number: int) -> None:
        """Move delayed deliveries due by ``round_number`` into flight.

        A matured message lands after the fresh arrivals of its
        receiver — receivers must not rely on sender-sorted inboxes
        under an active fault plan.
        """
        future = self.future
        in_flight = self.in_flight
        while future and future[0][0] <= round_number:
            _due, _sent, sender, _seq, target, message = heapq.heappop(future)
            bucket = in_flight.get(target)
            if bucket is None:
                in_flight[target] = [(sender, message)]
            else:
                bucket.append((sender, message))

    # ------------------------------------------------------------------
    def run_round(self, round_number: int) -> int:
        """Deliver, select and step one round; return the nodes stepped.

        The sends land in :attr:`edge_load` (frame-audited already) and
        in the in-flight lists, the future heap or the outbox.
        """
        if self.future and self.future[0][0] <= round_number:
            self.mature(round_number)
        receivers = self._deliver() if self.in_flight else ()
        active = self._select(round_number, receivers)
        if active:
            self._step(round_number, active)
            self.audit(round_number)
        return len(active)

    def _deliver(self) -> Set[int]:
        """Move the in-flight lists into the deferred inboxes.

        Returns the receivers with at least one waking arrival (empty
        under the sweep policy, which steps everyone anyway).
        """
        in_flight = self.in_flight
        self.in_flight = {}
        deferred = self.deferred
        nodes = self.nodes
        has_filter = self.has_filter
        sweep = self.sweep
        receivers: Set[int] = set()
        for target, arrivals in in_flight.items():
            box = deferred[target]
            if box is None:
                deferred[target] = arrivals
            else:
                box.extend(arrivals)
            if sweep:
                continue
            if has_filter[target]:
                wakes = nodes[target].message_wakes
                for sender, message in arrivals:
                    if wakes(sender, message):
                        receivers.add(target)
                        break
            else:
                receivers.add(target)
        return receivers

    def _select(self, round_number: int, receivers) -> List[int]:
        """This round's active members, ascending, crashed ones removed.

        A crashed node keeps its deferred inbox (fail-pause); under the
        wake policy it is woken again at the end of a finite window.
        """
        if self.sweep or round_number == 0:
            active = self.members
        else:
            heap = self.wake_heap
            if heap and heap[0][0] <= round_number:
                woken = set(receivers)
                pending = self.wake_pending
                while heap and heap[0][0] <= round_number:
                    _, node_id = heapq.heappop(heap)
                    pending[node_id].discard(round_number)
                    woken.add(node_id)
                active = sorted(woken)
            else:
                active = sorted(receivers)
        faults = self.faults
        if faults is not None and active:
            alive: List[int] = []
            for node_id in active:
                if not faults.node_crashed(node_id, round_number):
                    alive.append(node_id)
                elif not self.sweep:
                    crash_end = faults.crash_end_after(node_id, round_number)
                    if crash_end is not None:
                        self.wake(node_id, crash_end)
            active = alive
        return active

    def _step(self, round_number: int, active: List[int]) -> None:
        """Step ``active`` (ascending); each node's sends go through
        :meth:`send`."""
        nodes = self.nodes
        deferred = self.deferred
        send = self.send
        track_wakes = not self.sweep
        changes = self.done_changes
        empty_inbox: Inbox = []
        for node_id in active:
            node = nodes[node_id]
            was_done = node.done
            ctx = RoundContext(node_id, round_number, node.neighbors)
            if round_number == 0:
                node.on_start(ctx)
            inbox = deferred[node_id]
            if inbox is None:
                inbox = empty_inbox
            else:
                deferred[node_id] = None
            node.on_round(ctx, inbox)
            if ctx._outbox:
                send(round_number, node_id, ctx._outbox)
            if track_wakes and ctx._wakes is not None:
                for wake_round in ctx.drain_wakes():
                    self.wake(node_id, wake_round)
            if node.done != was_done:
                self.done_count += 1 if node.done else -1
                if changes is not None:
                    changes.append((node_id, node.done))

    def send(self, round_number: int, sender: int, sends) -> None:
        """Bill and route one sender's ``(target, message)`` sends of
        this round, in order.

        A send is billed regardless of its fate — the sender
        transmitted; the network decides delivery: its bits go to the
        tracer, ``on_send`` and the edge's load (checked against the
        strict budget) and, under frame audit, its message joins the
        edge's frame.  Then it is routed into the in-flight lists,
        through the fault pipeline, or to another shard's outbox.
        """
        wire = self.wire
        tracer = self.tracer
        on_send = self.on_send
        budget = self.budget
        frames = self.edge_frames
        edge_load = self.edge_load
        faults = self.faults
        assignment = self.assignment
        in_flight = self.in_flight
        next_round = round_number + 1
        for target, message in sends:
            bits = message.bit_size(wire)
            if tracer is not None:
                tracer.record(round_number, sender, target, message, bits)
            if on_send is not None:
                on_send(round_number, sender, target, message, bits)
            key = (sender, target)
            load = edge_load.get(key)
            if load is None:
                edge_load[key] = [1, bits]
                total = bits
            else:
                load[0] += 1
                total = load[1] = load[1] + bits
            if budget is not None and total > budget:
                raise CongestViolationError(
                    round_number, sender, target, total, budget
                )
            if frames is not None:
                frame = frames.get(key)
                if frame is None:
                    frames[key] = [message]
                else:
                    frame.append(message)
            if assignment is not None and assignment[target] != self.shard_id:
                self._send_remote(round_number, sender, target, message, bits)
            elif faults is None:
                bucket = in_flight.get(target)
                if bucket is None:
                    in_flight[target] = [(sender, message)]
                else:
                    bucket.append((sender, message))
            else:
                for due, delivered in faults.deliveries(
                    round_number, sender, target, message
                ):
                    if due != next_round:
                        self.push(due, round_number, sender, target, delivered)
                        continue
                    bucket = in_flight.get(target)
                    if bucket is None:
                        in_flight[target] = [(sender, delivered)]
                    else:
                        bucket.append((sender, delivered))

    def audit(self, round_number: int) -> None:
        """Frame audit: encode each edge's coalesced frame of this round
        and check its length against the billed bits.

        The codec guarantees a coalesced frame is exactly
        ``sum(bit_size)`` long; a mismatch means a message lied about its
        size (or mutated after being enqueued) and the CONGEST budget was
        enforced on wrong numbers.
        """
        frames = self.edge_frames
        if frames is None or not self.edge_load:
            return
        for key, load in self.edge_load.items():
            _word, frame_bits = encode_frame(frames[key], self.wire)
            if frame_bits != load[1]:
                sender, receiver = key
                raise WireCodecError(
                    "round {}: edge {}->{} charged {} bits but its "
                    "encoded frame is {} bits".format(
                        round_number, sender, receiver, load[1], frame_bits
                    )
                )
        frames.clear()

    def _send_remote(
        self, round_number: int, sender: int, target: int, message, bits: int
    ) -> None:
        """Route one send to another shard's outbox records."""
        self.cross_messages += 1
        self.cross_bits += bits
        if self.faults is None:
            outcomes = ((round_number + 1, message),)
        else:
            outcomes = self.faults.deliveries(
                round_number, sender, target, message
            )
        dst = self.assignment[target]
        outbox = self.outbox
        for due, delivered in outcomes:
            records = outbox.get(dst)
            entry = (sender, target, due, delivered)
            if records is None:
                outbox[dst] = [entry]
            else:
                records.append(entry)
