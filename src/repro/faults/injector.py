"""The fault injector: deterministic realization of a FaultPlan.

The simulator consults one :class:`FaultInjector` at three points:

* per enqueued message — :meth:`FaultInjector.deliveries` maps the
  reliable delivery (next round, original message) to a list of
  ``(delivery round, message)`` outcomes: empty for a loss, late for a
  delay, two entries for a duplication, a *different* message object
  for undetected corruption;
* per node per round — :meth:`FaultInjector.node_crashed` implements
  the fail-pause crash windows;
* per round — :meth:`FaultInjector.check_stalled` is the crash-aware
  termination detector: when recovery traffic (retransmissions, acks)
  is the only thing on the wire for ``stall_patience`` rounds, the run
  is declared stalled and ends with a structured error instead of
  spinning to the round limit.

Determinism
-----------
Every probabilistic decision is a pure function of ``(plan.seed, fault
kind, send round, sender, receiver, per-edge message index)`` hashed
through BLAKE2b — no consumed RNG stream.  Since both simulator engines
present the identical send sequence (same rounds, same per-edge order),
the injected faults are identical under ``engine="sweep"`` and
``engine="event"``, which is what makes fault runs differentially
testable at all.

Corruption
----------
Bit-flip corruption is realized *physically* where possible: the
message is encoded through :func:`repro.wire.encode_frame_checked`,
``corrupt_bits`` payload bits are flipped, and the frame is decoded
through the checksum-verifying path.  A rejected frame (CRC mismatch —
certain for single-bit flips — or an unparseable payload) counts as a
*detected* loss; an undetected corruption delivers the decoded, altered
message.  Messages outside the codec registry (transport envelopes,
opaque payloads) or without an arithmetic context fall back to the
modeled outcome: corruption detected, frame dropped.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import SimulationStalledError, WireCodecError
from repro.faults.plan import FaultPlan
from repro.wire import Message

#: 2**64 as a float divisor for hash -> unit-interval mapping.
_UNIT_SCALE = float(1 << 64)


def stall_deadline(plan: FaultPlan, last_progress: int, num_nodes: int) -> int:
    """The round at which a run with no fresh traffic since
    ``last_progress`` is declared stalled (if nodes are still pending).

    Patience floors at ``2 N``: the protocol has legitimate
    scheduled-quiet stretches (the aggregation schedule's gaps and its
    finish-horizon wait) bounded by O(diameter) < 2N rounds, while
    recovery churn repeats every <= 16 rounds — so 2N rounds of zero
    fresh traffic cannot be a healthy run.  Every engine checks against
    this round and caps its idle fast-forward at it, so all of them
    stall at the same round.
    """
    return last_progress + max(plan.stall_patience, 2 * num_nodes) + 1


class FaultStats:
    """Counters for every injected fault (attached to SimulationStats)."""

    __slots__ = (
        "dropped",
        "duplicated",
        "delayed",
        "corrupted_detected",
        "corrupted_undetected",
        "crash_dropped",
        "link_dropped",
        "crash_rounds",
        "recoveries",
    )

    def __init__(self):
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.corrupted_detected = 0
        self.corrupted_undetected = 0
        self.crash_dropped = 0
        self.link_dropped = 0
        self.crash_rounds = 0
        #: (node, crash start, first alive round) per finite crash window.
        self.recoveries: List[Tuple[int, int, int]] = []

    @property
    def total_injected(self) -> int:
        return (
            self.dropped
            + self.duplicated
            + self.delayed
            + self.corrupted_detected
            + self.corrupted_undetected
            + self.crash_dropped
            + self.link_dropped
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "corrupted_detected": self.corrupted_detected,
            "corrupted_undetected": self.corrupted_undetected,
            "crash_dropped": self.crash_dropped,
            "link_dropped": self.link_dropped,
            "crash_rounds": self.crash_rounds,
            "recoveries": len(self.recoveries),
            "total_injected": self.total_injected,
        }

    def __repr__(self) -> str:
        return "FaultStats({})".format(self.as_dict())


class FaultInjector:
    """Realizes one :class:`FaultPlan` against one simulation run.

    One injector observes one run — build a fresh one per run (it holds
    per-run progress and sequence state).

    Parameters
    ----------
    plan:
        The fault scenario.
    arith:
        Optional arithmetic context, required only to *physically*
        corrupt frames carrying SIGMA/PSI fields; without it those
        corruptions fall back to detected drops.
    tracer:
        Optional :class:`~repro.congest.trace.Tracer`; injected faults
        are recorded via its ``record_fault`` hook.
    """

    def __init__(self, plan: FaultPlan, arith=None, tracer=None):
        self.plan = plan
        self.arith = arith
        self.tracer = tracer
        self.stats = FaultStats()
        self._key = plan.seed.to_bytes(8, "big", signed=True)
        #: per directed edge: messages ever sent (the decision index).
        self._edge_seq: Dict[Tuple[int, int], int] = {}
        #: node -> sorted crash windows.
        self._crash_windows: Dict[int, List] = {}
        for window in plan.crashes:
            self._crash_windows.setdefault(window.node, []).append(window)
        for windows in self._crash_windows.values():
            windows.sort(key=lambda w: w.start)
        #: undirected edge -> outage windows.
        self._outages: Dict[Tuple[int, int], List] = {}
        for outage in plan.link_outages:
            key = (min(outage.u, outage.v), max(outage.u, outage.v))
            self._outages.setdefault(key, []).append(outage)
        self._wire = None
        #: last round that carried fresh (non-recovery) traffic.
        self.last_progress_round = 0

    # ------------------------------------------------------------------
    def bind(self, simulator) -> None:
        """Attach per-run context; called by ``Simulator.__init__``."""
        self._wire = simulator.wire

    # ------------------------------------------------------------------
    # deterministic decisions
    # ------------------------------------------------------------------
    def _unit(
        self, kind: str, round_number: int, sender: int, receiver: int, index: int
    ) -> float:
        """A reproducible uniform draw in [0, 1) for one decision site."""
        digest = hashlib.blake2b(
            "{}:{}:{}:{}:{}".format(
                kind, round_number, sender, receiver, index
            ).encode("ascii"),
            digest_size=8,
            key=self._key,
        ).digest()
        return int.from_bytes(digest, "big") / _UNIT_SCALE

    def _span(
        self,
        kind: str,
        round_number: int,
        sender: int,
        receiver: int,
        index: int,
        bound: int,
    ) -> int:
        """A reproducible draw in ``1..bound``."""
        if bound <= 1:
            return 1
        draw = int(self._unit(kind, round_number, sender, receiver, index) * bound)
        return 1 + draw % bound

    # ------------------------------------------------------------------
    # crash windows
    # ------------------------------------------------------------------
    def node_crashed(self, node_id: int, round_number: int) -> bool:
        """Whether ``node_id`` is inside a crash window this round.

        Pure query (no counters) — it is consulted once per delivery
        attempt *and* once per step; :meth:`settle_crashes` does the
        accounting once, at run end.
        """
        windows = self._crash_windows.get(node_id)
        if windows is None:
            return False
        return any(window.covers(round_number) for window in windows)

    def settle_crashes(self, rounds: int) -> None:
        """Set ``crash_rounds`` and ``recoveries`` for rounds ``[0, rounds)``.

        ``crash_rounds`` counts every (node, round) pair inside a crash
        window — what a lockstep sweep visiting every node every round
        skips.  ``recoveries`` lists every finite window of each node
        that was down at least once, ordered by that node's first crash
        round, then node id.  Both follow from the plan and the round
        count alone, so every engine reports the same numbers.
        """
        crash_rounds = 0
        first_down = []
        for node_id, windows in self._crash_windows.items():
            counted_to = 0
            for window in windows:
                start = max(window.start, counted_to)
                end = rounds if window.end is None else min(window.end, rounds)
                if end > start:
                    if counted_to == 0:
                        first_down.append((start, node_id))
                    crash_rounds += end - start
                    counted_to = end
        self.stats.crash_rounds = crash_rounds
        self.stats.recoveries[:] = [
            (node_id, window.start, window.end)
            for _first, node_id in sorted(first_down)
            for window in self._crash_windows[node_id]
            if window.end is not None
        ]

    def crash_end_after(self, node_id: int, round_number: int) -> Optional[int]:
        """First round >= ``round_number`` at which the node is alive.

        ``None`` when the covering window is permanent.  Only meaningful
        when :meth:`node_crashed` just returned True for this round.
        """
        windows = self._crash_windows.get(node_id)
        if windows is None:
            return round_number
        round_alive = round_number
        for window in windows:
            if window.covers(round_alive):
                if window.end is None:
                    return None
                round_alive = window.end
        return round_alive

    def crashed_nodes(self, round_number: int) -> Tuple[int, ...]:
        """Ids crashed in ``round_number`` (without counter side effects)."""
        out = []
        for node_id, windows in self._crash_windows.items():
            if any(w.covers(round_number) for w in windows):
                out.append(node_id)
        return tuple(sorted(out))

    def _link_down(self, sender: int, receiver: int, round_number: int) -> bool:
        outages = self._outages.get(
            (min(sender, receiver), max(sender, receiver))
        )
        return outages is not None and any(
            o.covers(round_number) for o in outages
        )

    # ------------------------------------------------------------------
    # the per-message fault pipeline
    # ------------------------------------------------------------------
    def deliveries(
        self,
        round_number: int,
        sender: int,
        receiver: int,
        message: Message,
    ) -> List[Tuple[int, Message]]:
        """Map one send to its delivery outcomes.

        Returns ``[(delivery_round, message), ...]`` — empty for a
        loss; the reliable outcome is ``[(round + 1, message)]``.
        The send is billed by the simulator regardless (the sender
        transmitted; the network ate it).
        """
        plan = self.plan
        key = (sender, receiver)
        index = self._edge_seq.get(key, 0)
        self._edge_seq[key] = index + 1
        if self._counts_as_progress(message):
            self.last_progress_round = round_number
        if self._outages and self._link_down(sender, receiver, round_number):
            self.stats.link_dropped += 1
            self._trace(round_number, "link_down", sender, receiver)
            return []
        if plan.drop_rate > 0.0 and (
            self._unit("drop", round_number, sender, receiver, index)
            < plan.drop_rate
        ):
            self.stats.dropped += 1
            self._trace(round_number, "drop", sender, receiver)
            return []
        if plan.corrupt_rate > 0.0 and (
            self._unit("corrupt", round_number, sender, receiver, index)
            < plan.corrupt_rate
        ):
            message = self._corrupt(round_number, sender, receiver, index, message)
            if message is None:
                return []
        delivery_round = round_number + 1
        if plan.delay_rate > 0.0 and (
            self._unit("delay", round_number, sender, receiver, index)
            < plan.delay_rate
        ):
            extra = self._span(
                "delay_span", round_number, sender, receiver, index,
                plan.max_delay,
            )
            delivery_round += extra
            self.stats.delayed += 1
            self._trace(round_number, "delay", sender, receiver)
        outcomes = []
        if not self.node_crashed(receiver, delivery_round):
            outcomes.append((delivery_round, message))
        else:
            self.stats.crash_dropped += 1
            self._trace(round_number, "crash_drop", sender, receiver)
        if plan.duplicate_rate > 0.0 and (
            self._unit("dup", round_number, sender, receiver, index)
            < plan.duplicate_rate
        ):
            dup_round = round_number + 1 + self._span(
                "dup_span", round_number, sender, receiver, index,
                plan.max_delay,
            )
            self.stats.duplicated += 1
            self._trace(round_number, "duplicate", sender, receiver)
            if not self.node_crashed(receiver, dup_round):
                outcomes.append((dup_round, message))
            else:
                self.stats.crash_dropped += 1
        return outcomes

    def _corrupt(
        self,
        round_number: int,
        sender: int,
        receiver: int,
        index: int,
        message: Message,
    ) -> Optional[Message]:
        """Flip bits in the encoded frame; None = detected, dropped."""
        from repro.wire import decode_frame_checked, encode_frame_checked
        from repro.exceptions import FrameChecksumError

        inner = getattr(message, "inner_message", None)
        victim = inner if inner is not None else message
        wire = self._wire
        if (
            wire is None
            or type(victim).wire_tag is None
            or type(victim).WIRE_LAYOUT is None
        ):
            # Not physically encodable here: model the corruption as
            # caught by the checksum (certain for <= 8 flipped bits).
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        try:
            word, bits = encode_frame_checked((victim,), wire)
        except WireCodecError:
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        flipped = word
        for flip in range(self.plan.corrupt_bits):
            position = int(
                self._unit(
                    "corrupt_bit{}".format(flip),
                    round_number,
                    sender,
                    receiver,
                    index,
                )
                * bits
            ) % bits
            flipped ^= 1 << position
        try:
            decoded = decode_frame_checked(
                flipped, bits, wire, arith=self.arith
            )
        except (FrameChecksumError, WireCodecError):
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        if len(decoded) != 1:
            self.stats.corrupted_detected += 1
            self._trace(round_number, "corrupt_detected", sender, receiver)
            return None
        self.stats.corrupted_undetected += 1
        self._trace(round_number, "corrupt_undetected", sender, receiver)
        mutated = decoded[0]
        if inner is not None:
            return message.with_message(mutated)
        return mutated

    # ------------------------------------------------------------------
    # crash-aware termination detection
    # ------------------------------------------------------------------
    @staticmethod
    def _counts_as_progress(message: Message) -> bool:
        """Fresh protocol traffic vs. recovery traffic.

        Retransmissions and acknowledgements (transport messages that
        set ``fault_progress`` False) keep a dead protocol *looking*
        busy forever; only first-transmission data counts as progress.
        """
        return getattr(message, "fault_progress", True)

    def check_stalled(self, round_number: int, simulator) -> None:
        """Raise :class:`SimulationStalledError` on a starved run (see
        :func:`stall_deadline`)."""
        if round_number < stall_deadline(
            self.plan, self.last_progress_round, len(simulator.nodes)
        ):
            return
        pending = tuple(
            node.node_id for node in simulator.nodes if not node.done
        )
        if not pending:
            return
        raise SimulationStalledError(
            round_number,
            self.last_progress_round,
            pending,
            self.crashed_nodes(round_number),
        )

    # ------------------------------------------------------------------
    def _trace(
        self, round_number: int, kind: str, sender: int, receiver: int
    ) -> None:
        tracer = self.tracer
        if tracer is not None:
            record_fault = getattr(tracer, "record_fault", None)
            if record_fault is not None:
                record_fault(round_number, kind, sender, receiver)

    def __repr__(self) -> str:
        return "FaultInjector(plan={!r}, stats={!r})".format(
            self.plan, self.stats
        )
