"""The counting phase: Algorithm 2 of the paper.

Two interleaved mechanisms run on every node:

* **The DFS token** walks the BFS(u0) tree.  When it first reaches a
  node s, the paper's line 3 inserts a one-slot pause; concretely, s
  launches its own BFS *and* forwards the token one round after the
  token's arrival, while backtracking hops forward immediately.  This
  yields start times satisfying the separation invariant
  ``T_t >= T_s + d(s, t) + 1`` for any later-started t (the token needs
  at least d(s, t) hops to travel from s to t plus the pause), which is
  exactly what Lemma 4's collision-freedom proof consumes.

* **BFS waves.**  When s starts its BFS at round T_s it broadcasts
  ``BfsWave(s, T_s, 0, 1)``.  A node v first reached by waves for s
  settles: all copies arriving that round come from the full predecessor
  set P_s(v) (synchrony delivers every distance-(d-1) sender in the same
  round), so v computes sigma_sv = sum of predecessor sigmas in one
  step, appends ``(s, T_s, d(s,v), sigma_sv, P_s(v))`` to its ledger
  L_v, and re-broadcasts.  The separation invariant guarantees at most
  one *fresh* source settles per node per round — at most one wave per
  edge per round, keeping every round within the CONGEST budget
  (Lemma 3).  Violations raise :class:`ProtocolError` rather than being
  silently tolerated, making the lemma machine-checked on every run.

The phase ends with a **completion convergecast**: a node whose ledger
holds N records and whose subtree is complete reports its subtree's
maximum eccentricity up the tree; the root then knows the diameter D
(line 22's broadcast is folded into the :class:`AggStart` message that
opens the aggregation phase).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arithmetic.context import ArithmeticContext
from repro.congest.node import RoundContext
from repro.core.config import ProtocolConfig
from repro.wire import AggStart, BfsWave, DfsToken, DoneReport
from repro.core.records import NodeLedger
from repro.core.tree import TreePhase
from repro.exceptions import ProtocolError


class CountingPhase:
    """Per-node state machine for Algorithm 2."""

    def __init__(
        self,
        node_id: int,
        tree: TreePhase,
        ledger: NodeLedger,
        ctx_arith: ArithmeticContext,
        config: ProtocolConfig = ProtocolConfig(),
    ):
        self.node_id = node_id
        self.tree = tree
        self.ledger = ledger
        self.arith = ctx_arith
        self.config = config
        # --- DFS token state ---
        self.visited = False
        self._bfs_start_round: Optional[int] = None
        self._token_forward_round: Optional[int] = None
        self._next_child_index = 0
        #: round at which the root observed DFS completion (root only).
        self.dfs_complete_round: Optional[int] = None
        #: T_s of this node's own BFS (set when the wave launches).
        self.own_start_time: Optional[int] = None
        # --- completion convergecast state ---
        self._done_reported = False
        self._child_done: Dict[int, int] = {}
        #: set on the root when the convergecast completes:
        #: (D, T_max, aggregation base round).
        self.counting_result: Optional[Tuple[int, int, int]] = None
        #: round in which ``counting_result`` was set (root only) — the
        #: protocol-exact end of the counting phase, consumed by the
        #: telemetry phase spans.
        self.result_round: Optional[int] = None

    # ------------------------------------------------------------------
    def progress(self) -> Dict[str, object]:
        """Partial-state snapshot for fault post-mortems.

        How far this node got through Algorithm 2, readable at any
        point — including after a stalled run, where the completeness
        report uses it to say *what* was lost, not just that something
        was.
        """
        return {
            "visited": self.visited,
            "own_start_time": self.own_start_time,
            "settled_sources": len(self.ledger),
            "done_reported": self._done_reported,
        }

    # ------------------------------------------------------------------
    def on_round(
        self,
        ctx: RoundContext,
        waves: List[Tuple[int, BfsWave]],
        tokens: List[Tuple[int, DfsToken]],
        done_reports: List[Tuple[int, DoneReport]],
    ) -> None:
        """Advance the counting phase by one round."""
        self._handle_waves(ctx, waves)
        self._handle_tokens(ctx, tokens)
        self._maybe_start_bfs(ctx)
        self._maybe_forward_token(ctx)
        for sender, report in done_reports:
            self._child_done[sender] = report.max_ecc
        self._maybe_report_done(ctx)

    def next_event(self) -> Optional[int]:
        """Next round at which this phase acts without receiving a message.

        Two timers exist, both armed by the DFS token's first visit: the
        one-slot-delayed BFS launch and the token forward (line 3 of
        Algorithm 2).  The completion convergecast is message-driven
        (modulo the tree phase's ``children_final`` timer, which the
        tree phase reports itself).  Used by the event engine's wake
        registration.
        """
        bfs = self._bfs_start_round
        token = self._token_forward_round
        if bfs is None:
            return token
        if token is None or bfs < token:
            return bfs
        return token

    # ------------------------------------------------------------------
    # BFS waves
    # ------------------------------------------------------------------
    def _handle_waves(
        self, ctx: RoundContext, waves: List[Tuple[int, BfsWave]]
    ) -> None:
        row_of = self.ledger.row_of
        dist_col = self.ledger.dist_col
        fresh_source: Optional[int] = None
        fresh: List[Tuple[int, BfsWave]] = []
        for sender, wave in waves:
            row = row_of(wave.source)
            if row is None:
                if fresh_source is None:
                    fresh_source = wave.source
                elif fresh_source != wave.source:
                    raise ProtocolError(
                        "node {} settled sources {} in the same round — "
                        "the pipelining invariant (Lemma 4) is "
                        "broken".format(
                            self.node_id,
                            sorted((fresh_source, wave.source)),
                        )
                    )
                fresh.append((sender, wave))
            elif wave.dist + 1 <= dist_col[row]:
                # A predecessor-looking wave arriving after we settled
                # would mean the synchrony argument failed.
                raise ProtocolError(
                    "node {} got a late wave for source {} (settled at "
                    "d={}, wave d={})".format(
                        self.node_id, wave.source, dist_col[row], wave.dist
                    )
                )
            # Waves from same-level or downstream neighbors are the
            # expected broadcast echoes; they carry no new information.
        if fresh_source is not None:
            self._settle_source(ctx, fresh_source, fresh)

    def _settle_source(
        self,
        ctx: RoundContext,
        source: int,
        arrivals: List[Tuple[int, BfsWave]],
    ) -> None:
        first = arrivals[0][1]
        if len(arrivals) == 1:
            # Single predecessor (the common case off dense cores):
            # nothing to cross-check or accumulate.
            sigma = first.sigma
            preds = (arrivals[0][0],)
        else:
            dists = {wave.dist for _, wave in arrivals}
            starts = {wave.start_time for _, wave in arrivals}
            if len(dists) != 1 or len(starts) != 1:
                raise ProtocolError(
                    "node {} saw inconsistent waves for source {}: "
                    "dists={} starts={}".format(
                        self.node_id, source, dists, starts
                    )
                )
            sigma = first.sigma
            for _, wave in arrivals[1:]:
                sigma = self.arith.sigma_add(sigma, wave.sigma)
            preds = tuple(sorted(sender for sender, _ in arrivals))
        dist = first.dist + 1
        start_time = first.start_time
        self.ledger.add_row(source, start_time, dist, sigma, preds)
        ctx.broadcast(BfsWave(source, start_time, dist, sigma))

    # ------------------------------------------------------------------
    # DFS token
    # ------------------------------------------------------------------
    def begin_dfs(self, ctx: RoundContext) -> None:
        """Root bootstrap: treat the census completion as the first visit."""
        self._first_visit(ctx.round_number)

    def _first_visit(self, round_number: int) -> None:
        self.visited = True
        # Line 3 of Algorithm 2: the DFS waits one time slot; the BFS
        # launches (and the token moves on) in the next round.  Nodes
        # outside the configured source set skip the BFS launch but keep
        # the token cadence, so the separation invariant for the actual
        # sources is untouched.
        if self.config.is_source(self.node_id):
            self._bfs_start_round = round_number + 1
        self._token_forward_round = round_number + 1

    def _handle_tokens(
        self, ctx: RoundContext, tokens: List[Tuple[int, DfsToken]]
    ) -> None:
        if not tokens:
            return
        if len(tokens) > 1:
            raise ProtocolError(
                "node {} received two DFS tokens at once".format(self.node_id)
            )
        sender, token = tokens[0]
        if not self.visited:
            if sender != self.tree.parent:
                raise ProtocolError(
                    "node {} got its first token from {} but its tree "
                    "parent is {}".format(
                        self.node_id, sender, self.tree.parent
                    )
                )
            self._first_visit(ctx.round_number)
        else:
            # Backtrack hop: forward immediately (this very round).
            self._forward_token(ctx)

    def _maybe_forward_token(self, ctx: RoundContext) -> None:
        if (
            self._token_forward_round is not None
            and ctx.round_number == self._token_forward_round
        ):
            self._token_forward_round = None
            self._forward_token(ctx)

    def _forward_token(self, ctx: RoundContext) -> None:
        children = self.tree.sorted_children()
        if self._next_child_index < len(children):
            child = children[self._next_child_index]
            self._next_child_index += 1
            ctx.send(child, DfsToken())
        elif self.tree.is_root:
            self.dfs_complete_round = ctx.round_number
        else:
            ctx.send(self.tree.parent, DfsToken(returning=True))

    def _maybe_start_bfs(self, ctx: RoundContext) -> None:
        if (
            self._bfs_start_round is None
            or ctx.round_number != self._bfs_start_round
        ):
            return
        self._bfs_start_round = None
        self.own_start_time = ctx.round_number
        sigma_one = self.arith.sigma_one()
        self.ledger.add_row(self.node_id, self.own_start_time, 0, sigma_one, ())
        ctx.broadcast(
            BfsWave(self.node_id, self.own_start_time, 0, sigma_one)
        )

    # ------------------------------------------------------------------
    # completion convergecast
    # ------------------------------------------------------------------
    def _maybe_report_done(self, ctx: RoundContext) -> None:
        if self._done_reported or not self.tree.children_final:
            return
        expected = self.config.expected_sources(self.tree.num_nodes)
        if expected is None or len(self.ledger) != expected:
            return
        if any(c not in self._child_done for c in self.tree.children):
            return
        subtree_ecc = max(
            [self.ledger.eccentricity()] + list(self._child_done.values())
        )
        self._done_reported = True
        if self.tree.is_root:
            diameter = subtree_ecc
            t_max = self.ledger.max_start_time()
            base = ctx.round_number + diameter + 1
            self.counting_result = (diameter, t_max, base)
            self.result_round = ctx.round_number
            for child in self.tree.sorted_children():
                ctx.send(child, AggStart(diameter, t_max, base))
        else:
            ctx.send(self.tree.parent, DoneReport(subtree_ecc))
