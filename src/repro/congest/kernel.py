"""The round kernel: one process's share of a synchronous CONGEST round.

Every round-stepping engine runs this one kernel over the round model
of Section III-A:

* the sweep engine (``Simulator(engine="sweep")``) with the *sweep*
  policy: every member is stepped every round;
* the event engine with the *wake* policy: only members holding a
  waking arrival or a registered self-wake are stepped;
* each shard worker of :mod:`repro.shard.runtime` with the wake policy
  and the cross-shard router.

The kernel owns the round state — in-flight lists, the heap of delayed
deliveries, deferred inboxes, the wake heap, the per-edge load and the
audit frames — and does three jobs per round: delivery through the
``message_wakes`` filter, active-set selection with the crash filter,
and the per-send loop (billing, the strict budget check, frame audit,
tracer and ``on_send`` hooks, the fault pipeline).  Its callers own the
outer loop: termination, the round limit, stalls, fast-forward and the
per-round statistics.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.congest.node import Inbox, NodeAlgorithm, RoundContext
from repro.exceptions import CongestViolationError, WireCodecError
from repro.wire import Message, WireFormat, encode_frame


def audit_frames(
    round_number: int,
    edge_load: Dict[Tuple[int, int], List[int]],
    frames: Dict[Tuple[int, int], List[Message]],
    wire: WireFormat,
) -> None:
    """Materialize each edge's coalesced frame and check its length.

    The accounting charged ``sum(bit_size)`` per edge; the codec
    guarantees a coalesced frame is exactly that long.  A mismatch
    means a message lied about its size (or mutated after being
    enqueued) and the CONGEST budget was enforced on wrong numbers.
    """
    for key, load in edge_load.items():
        _word, frame_bits = encode_frame(frames[key], wire)
        if frame_bits != load[1]:
            sender, receiver = key
            raise WireCodecError(
                "round {}: edge {}->{} charged {} bits but its "
                "encoded frame is {} bits".format(
                    round_number, sender, receiver, load[1], frame_bits
                )
            )


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
        to the caller's fast-forward.
    assignment, shard_id:
        Router.  ``assignment=None`` delivers every send into this
        kernel's in-flight lists; a node -> shard list sends to nodes
        outside ``shard_id`` into :attr:`outbox` (destination shard ->
        ``(sender, target, due, message)`` records) and counts them in
        :attr:`cross_messages` and :attr:`cross_bits`.
    """

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
        # This round's directed edge -> [messages, bits] (the caller
        # consumes and clears it) and, under frame audit, its messages.
        self.edge_load: Dict[Tuple[int, int], List[int]] = {}
        self.edge_frames: Dict[Tuple[int, int], List[Message]] = {}
        self.done_count = sum(1 for v in self.members if self.nodes[v].done)
        #: (node, done) flips, recorded only when set to a list.
        self.done_changes: Optional[List[Tuple[int, bool]]] = None
        self.outbox: Dict[int, List[Tuple[int, int, int, Message]]] = {}
        self.cross_messages = 0
        self.cross_bits = 0

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
        """Step ``active`` (ascending) and run every send through billing."""
        sim = self.sim
        wire = sim.wire
        tracer = sim.tracer
        telemetry = sim.telemetry
        on_send = (
            telemetry.on_send
            if telemetry is not None and telemetry.wants_sends else None
        )
        budget = sim.bit_budget if sim.strict else None
        frames = self.edge_frames if sim.frame_audit else None
        nodes = self.nodes
        deferred = self.deferred
        faults = self.faults
        edge_load = self.edge_load
        edge_load_get = edge_load.get
        in_flight = self.in_flight
        in_flight_get = in_flight.get
        assignment = self.assignment
        shard_id = self.shard_id
        track_wakes = not self.sweep
        changes = self.done_changes
        next_round = round_number + 1
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
            for target, message in ctx.drain():
                bits = message.bit_size(wire)
                if tracer is not None:
                    tracer.record(round_number, node_id, target, message, bits)
                if on_send is not None:
                    on_send(round_number, node_id, target, message, bits)
                key = (node_id, target)
                load = edge_load_get(key)
                if load is None:
                    edge_load[key] = [1, bits]
                    total = bits
                else:
                    load[0] += 1
                    total = load[1] = load[1] + bits
                if budget is not None and total > budget:
                    raise CongestViolationError(
                        round_number, node_id, target, total, budget
                    )
                if frames is not None:
                    frame = frames.get(key)
                    if frame is None:
                        frames[key] = [message]
                    else:
                        frame.append(message)
                # The send is billed above regardless of its fate: the
                # sender transmitted; the network decides delivery.
                if assignment is not None and assignment[target] != shard_id:
                    self._send_remote(round_number, node_id, target, message, bits)
                elif faults is None:
                    bucket = in_flight_get(target)
                    if bucket is None:
                        in_flight[target] = [(node_id, message)]
                    else:
                        bucket.append((node_id, message))
                else:
                    for due, delivered in faults.deliveries(
                        round_number, node_id, target, message
                    ):
                        if due != next_round:
                            self.push(due, round_number, node_id, target, delivered)
                            continue
                        bucket = in_flight_get(target)
                        if bucket is None:
                            in_flight[target] = [(node_id, delivered)]
                        else:
                            bucket.append((node_id, delivered))
            if track_wakes and ctx._wakes is not None:
                for wake_round in ctx.drain_wakes():
                    self.wake(node_id, wake_round)
            if node.done != was_done:
                self.done_count += 1 if node.done else -1
                if changes is not None:
                    changes.append((node_id, node.done))
        if frames is not None and edge_load:
            audit_frames(round_number, edge_load, frames, wire)
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
