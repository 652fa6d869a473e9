"""Node-algorithm interface for the synchronous CONGEST simulator.

A distributed algorithm is expressed as a :class:`NodeAlgorithm`
subclass.  The simulator instantiates one object per graph node (via a
factory), then drives rounds: in each round every node receives the
messages sent to it in the previous round, updates its local state, and
enqueues messages for its neighbors.  Local computation is free, exactly
as in the model of Section III-A of the paper; only rounds and message
bits are accounted.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Sequence, Tuple

from repro.wire import Message

#: The inbox handed to ``on_round``: (sender id, message) pairs, in
#: deterministic (sender-sorted, enqueue-ordered) order.
Inbox = List[Tuple[int, Message]]


class RoundContext:
    """Per-round API a node uses to interact with the network.

    The simulator creates one context per node per round; ``send`` and
    ``broadcast`` enqueue messages for delivery at the start of the next
    round.
    """

    __slots__ = ("node_id", "round_number", "_neighbors", "_outbox", "_wakes")

    def __init__(self, node_id: int, round_number: int, neighbors: Sequence[int]):
        self.node_id = node_id
        self.round_number = round_number
        self._neighbors = neighbors
        self._outbox: List[Tuple[int, Message]] = []
        self._wakes: Optional[List[int]] = None

    @property
    def neighbors(self) -> Sequence[int]:
        """This node's neighbor ids (local knowledge)."""
        return self._neighbors

    def send(self, target: int, message: Message) -> None:
        """Enqueue ``message`` for neighbor ``target`` (delivered next round)."""
        if target not in self._neighbors:
            raise ValueError(
                "node {} has no edge to {}".format(self.node_id, target)
            )
        self._outbox.append((target, message))

    def broadcast(self, message: Message) -> None:
        """Send ``message`` to every neighbor."""
        for target in self._neighbors:
            self._outbox.append((target, message))

    def wake_at(self, round_number: int) -> None:
        """Register a self-wake: step this node again at ``round_number``.

        Under the event engine (``RunOptions(engine="event")``) a node is
        only stepped when its inbox is non-empty; a node whose next
        action is triggered by the *round number* alone (a scheduled
        aggregation send, a timer such as "my children are final two
        rounds after I settle") must register that round here or it will
        sleep through it.  The sweep engine steps every node every round
        and ignores wake registrations.

        Registering the same round twice, or a round that also delivers
        messages, is harmless.  The round must lie strictly in the
        future.
        """
        if round_number <= self.round_number:
            raise ValueError(
                "node {} asked to wake at round {} which is not after the "
                "current round {}".format(
                    self.node_id, round_number, self.round_number
                )
            )
        if self._wakes is None:
            self._wakes = [round_number]
        else:
            self._wakes.append(round_number)

    def drain(self) -> List[Tuple[int, Message]]:
        """Internal: hand the enqueued sends to the simulator."""
        out, self._outbox = self._outbox, []
        return out

    def drain_wakes(self) -> Sequence[int]:
        """Internal: hand the registered wake rounds to the simulator."""
        wakes = self._wakes
        if wakes is None:
            return ()
        self._wakes = None
        return wakes


class NodeAlgorithm(abc.ABC):
    """Base class for the per-node state machine of a protocol.

    Subclasses receive their id and neighbor list at construction and
    implement :meth:`on_round`.  A node signals completion by setting
    :attr:`done`; the simulation terminates when every node is done and
    no message is in flight.

    To be runnable under the event engine (``RunOptions(engine="event")``)
    a node must uphold the **active-set invariant**: whenever its next
    state change or send is triggered purely by the round number (not by
    an incoming message), it registers that round via
    :meth:`RoundContext.wake_at` before returning from ``on_round``.
    Purely message-driven algorithms need no registrations.
    """

    def __init__(self, node_id: int, neighbors: Sequence[int]):
        self.node_id = node_id
        self.neighbors = tuple(neighbors)
        self.done = False

    def on_start(self, ctx: RoundContext) -> None:
        """Called once in round 0 before any message exchange.

        The default does nothing; override to send wake-up messages.
        ``on_round`` is also called in round 0, with an empty inbox,
        after ``on_start``.
        """

    @abc.abstractmethod
    def on_round(self, ctx: RoundContext, inbox: Inbox) -> None:
        """Process one synchronous round.

        Parameters
        ----------
        ctx:
            Sending interface and the current round number.
        inbox:
            Messages delivered this round (sent in the previous one).
            Under the event engine, deferred passive messages from
            earlier rounds (see :meth:`message_wakes`) precede this
            round's arrivals.
        """

    def message_wakes(self, sender: int, message: Message) -> bool:
        """Whether an arriving message must wake this node (event engine).

        The event engine consults this at delivery time.  Returning
        False marks the message *passive*: it is still delivered (it
        was on the wire, so it counts toward the round's traffic and
        per-edge budgets exactly as under the sweep engine) but does
        not by itself schedule a step; it waits in the inbox until the
        node's next step.  Only declare a message passive if handling
        it never mutates state and never sends — e.g. a broadcast echo
        that the handler merely validates and discards.  Messages that
        can signal a protocol violation should wake the node so the
        error surfaces in the same round as under the sweep engine.

        The default wakes on everything, which is always correct.  The
        sweep engine never consults this method.
        """
        return True

    def __repr__(self) -> str:
        return "{}(node={}, done={})".format(
            type(self).__name__, self.node_id, self.done
        )


#: Factory signature the simulator accepts: (node_id, neighbors) -> node.
NodeFactory = Callable[[int, Tuple[int, ...]], NodeAlgorithm]
