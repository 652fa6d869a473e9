"""Phase 0: BFS(u0) spanning tree construction and node census.

The paper assumes a BFS tree rooted at a "randomly selected vertex" as
given input to Algorithm 2, and its termination reasoning implicitly
needs every node to know N (a node is finished counting exactly when it
holds N source records).  This phase makes both concrete with textbook
CONGEST primitives, all O(D) rounds:

1. **Flood:** the root broadcasts a :class:`TreeWave`; every node
   settles at its BFS depth, picks the smallest-id parent among the
   first-round senders, joins it with :class:`TreeJoin`, and re-floods.
2. **Census convergecast:** a node's children are final two rounds after
   it settles (children settle one round later and join immediately);
   subtree sizes then flow up via :class:`SubtreeCount` so the root
   learns N.
3. **Announce:** the root broadcasts N down the tree.

The tree (parent/children pointers) is reused by the later convergecast
and broadcast steps of the pipeline, and the DFS token of Algorithm 2
walks its edges.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.congest.node import RoundContext
from repro.wire import Announce, SubtreeCount, TreeJoin, TreeWave
from repro.exceptions import ProtocolError


class TreePhase:
    """Per-node state machine for spanning-tree construction and census."""

    def __init__(self, node_id: int, is_root: bool):
        self.node_id = node_id
        self.is_root = is_root
        #: depth in BFS(u0); None until the wave arrives.
        self.dist: Optional[int] = None
        self.parent: Optional[int] = None
        self.settle_round: Optional[int] = None
        self.children: Set[int] = set()
        self.children_final = False
        self._count_sent = False
        self._child_counts: Dict[int, int] = {}
        #: N, once the Announce reaches this node (the root computes it).
        self.num_nodes: Optional[int] = None
        #: round at which the root computed N (root only), else None.
        self.census_round: Optional[int] = None

    # ------------------------------------------------------------------
    def on_round(
        self,
        ctx: RoundContext,
        waves: List[Tuple[int, TreeWave]],
        joins: List[Tuple[int, TreeJoin]],
        counts: List[Tuple[int, SubtreeCount]],
        announces: List[Tuple[int, Announce]],
    ) -> None:
        """Advance the phase by one round.

        The caller (the composite node) has already split the inbox by
        message type.
        """
        if self.is_root and ctx.round_number == 0:
            self._settle(ctx, dist=0, parent=None)

        for sender, _join in joins:
            self.children.add(sender)

        for sender, count in counts:
            self._child_counts[sender] = count.count

        if self.dist is None and waves:
            depths = {wave.dist for _, wave in waves}
            if len(depths) != 1:
                raise ProtocolError(
                    "node {} saw tree waves at depths {}".format(
                        self.node_id, sorted(depths)
                    )
                )
            parent = min(sender for sender, _ in waves)
            self._settle(ctx, dist=waves[0][1].dist + 1, parent=parent)

        if (
            not self.children_final
            and self.settle_round is not None
            and ctx.round_number >= self.settle_round + 2
        ):
            self.children_final = True

        self._maybe_send_count(ctx)
        self._handle_announce(ctx, announces)

    # ------------------------------------------------------------------
    def _settle(self, ctx: RoundContext, dist: int, parent: Optional[int]):
        self.dist = dist
        self.parent = parent
        self.settle_round = ctx.round_number
        ctx.broadcast(TreeWave(dist))
        if parent is not None:
            ctx.send(parent, TreeJoin())

    def _maybe_send_count(self, ctx: RoundContext) -> None:
        if self._count_sent or not self.children_final:
            return
        if any(child not in self._child_counts for child in self.children):
            return
        subtree = 1 + sum(self._child_counts.values())
        self._count_sent = True
        if self.is_root:
            self.num_nodes = subtree
            self.census_round = ctx.round_number
            for child in sorted(self.children):
                ctx.send(child, Announce(subtree))
        else:
            if self.parent is None:
                raise ProtocolError(
                    "non-root node {} settled without a parent".format(
                        self.node_id
                    )
                )
            ctx.send(self.parent, SubtreeCount(subtree))

    def _handle_announce(
        self, ctx: RoundContext, announces: List[Tuple[int, Announce]]
    ) -> None:
        if not announces:
            return
        if self.num_nodes is not None:
            raise ProtocolError(
                "node {} received a duplicate census announce".format(
                    self.node_id
                )
            )
        if not self.children_final:
            raise ProtocolError(
                "node {} got the announce before its children were "
                "final".format(self.node_id)
            )
        self.num_nodes = announces[0][1].num_nodes
        for child in sorted(self.children):
            ctx.send(child, Announce(self.num_nodes))

    # ------------------------------------------------------------------
    def next_event(self) -> Optional[int]:
        """Next round at which this phase acts without receiving a message.

        The only round-triggered transition is ``children_final``, which
        rises two rounds after settling; everything else in the phase is
        message-driven.  Used by the event engine's wake registration.
        """
        if not self.children_final and self.settle_round is not None:
            return self.settle_round + 2
        return None

    def sorted_children(self) -> List[int]:
        """Tree children in id order (the deterministic DFS visit order)."""
        return sorted(self.children)
