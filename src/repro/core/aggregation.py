"""The aggregation phase: Algorithm 3 of the paper.

Every node u holds, for each source s, the record
``(s, T_s, d(s,u), sigma_su, P_s(u))`` from the counting phase.  The
phase opens when the root's :class:`AggStart` broadcast fixes the
diameter D, the latest start time T_max, and a global round ``base``.
Node u then sends, at round

    ``base + T_s + D - d(s, u)``        (line 3: T_s(u) = T_s + D - d(s,u))

the value ``1/sigma_su + psi_s(u)`` to every predecessor in P_s(u)
(line 12), where psi_s(u) has accumulated the same-shaped values
received from u's shortest-path descendants (lines 8–9, Eq. 14).
Because descendants of u in BFS(s) sit one unit of distance further,
they send exactly one round before u — their values arrive precisely
when u is about to send, and the recursion telescopes without any
waiting logic.

Lemma 4 guarantees the schedule never asks a node to send values for
two different sources in the same round; this implementation *checks*
that claim when building the schedule and raises
:class:`~repro.exceptions.ProtocolError` on violation.

After round ``base + T_max + D`` no message can be in flight; each node
then locally computes delta_s·(u) = psi_s(u) * sigma_su (line 17) and
sums over sources into its raw betweenness (line 18).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.arithmetic.context import ArithmeticContext
from repro.congest.node import RoundContext
from repro.core.config import UNIT_STRESS, ProtocolConfig
from repro.wire import AggStart, AggValue
from repro.core.records import NodeLedger
from repro.core.tree import TreePhase
from repro.exceptions import ProtocolError


class AggregationPhase:
    """Per-node state machine for Algorithm 3.

    The recursion is parameterized by the protocol configuration (see
    :mod:`repro.core.config`): the default unit term ``1/sigma_su``
    computes betweenness; ``unit = "stress"`` seeds with 1 instead and
    the same telescoping computes stress centrality; a restricted
    target set masks the unit term of excluded nodes (used by the
    weighted-graph subdivision, whose virtual nodes must not count as
    pair endpoints).
    """

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
        self.armed = False
        self.diameter: Optional[int] = None
        self.max_start_time: Optional[int] = None
        self.base: Optional[int] = None
        #: last round with in-flight aggregation traffic (set by arm()):
        #: ``base + T_max + D``.  The final local computation fires in
        #: the first round past it.
        self._horizon: Optional[int] = None
        #: send schedule: absolute round -> ledger row (unique by Lemma 4).
        self._schedule: Dict[int, int] = {}
        #: ascending send rounds with a cursor, for O(1) next-wake lookup.
        self._send_rounds: List[int] = []
        self._send_cursor = 0
        #: raw output: sum over sources s != u of delta_s·(u), in the
        #: pipeline's arithmetic (Fraction or LFloat).  The pipeline
        #: halves it for the undirected convention.
        self.betweenness_raw: Optional[Any] = None
        self.finished = False
        #: round in which the final local computation ran — the
        #: protocol-exact end of the aggregation phase, consumed by the
        #: telemetry phase spans (None if aggregation was disabled).
        self.finished_round: Optional[int] = None

    #: human name of the collision-freedom invariant the schedule rests
    #: on — interpolated into the ProtocolError when arm() catches two
    #: sources claiming the same send round.  Rival protocols override
    #: this together with :meth:`_send_round_for`.
    schedule_invariant = "Lemma 4"

    def _send_round_for(self, start_time: int, dist: int) -> int:
        """Line 3: the absolute send round for a (T_s, d(s,u)) record.

        ``base + T_s + D − d(s, u)`` — deeper nodes send earlier, so a
        node's shortest-path descendants deliver exactly one round
        before its own send.  The schedule hook is the single point a
        rival protocol overrides to re-time the backward phase (see
        :mod:`repro.protocols.cfp`).
        """
        return self.base + start_time + self.diameter - dist

    # ------------------------------------------------------------------
    def arm(self, start: AggStart) -> None:
        """Open the phase: fix (D, T_max, base) and build the schedule."""
        if self.armed:
            raise ProtocolError(
                "node {} received AggStart twice".format(self.node_id)
            )
        self.armed = True
        self.diameter = start.diameter
        self.max_start_time = start.max_start_time
        self.base = start.base
        self._horizon = start.base + start.max_start_time + start.diameter
        if not self.config.aggregate:
            self.betweenness_raw = self.arith.psi_zero()
            self.finished = True
            return
        ledger = self.ledger
        psi_zero = self.arith.psi_zero
        psi_col = ledger.psi_col
        source_col = ledger.source_col
        start_col = ledger.start_col
        dist_col = ledger.dist_col
        schedule = self._schedule
        send_round_for = self._send_round_for
        node_id = self.node_id
        for row in range(len(ledger)):
            psi_col[row] = psi_zero()
            source = source_col[row]
            if source == node_id:
                continue  # the source itself never sends (P_s(s) is empty)
            send_round = send_round_for(start_col[row], dist_col[row])
            other = schedule.get(send_round)
            if other is not None:
                raise ProtocolError(
                    "node {}: sources {} and {} share send round {} — "
                    "{} violated".format(
                        node_id,
                        source_col[other],
                        source,
                        send_round,
                        self.schedule_invariant,
                    )
                )
            schedule[send_round] = row
        self._send_rounds = sorted(schedule)

    def handle_start(
        self, ctx: RoundContext, starts: List[Tuple[int, AggStart]]
    ) -> None:
        """Process and forward the root's AggStart broadcast."""
        if not starts:
            return
        start = starts[0][1]
        self.arm(start)
        for child in self.tree.sorted_children():
            ctx.send(child, AggStart(start.diameter, start.max_start_time, start.base))

    # ------------------------------------------------------------------
    def on_round(
        self,
        ctx: RoundContext,
        values: List[Tuple[int, AggValue]],
    ) -> None:
        """One aggregation round: receive (lines 8–9), send (lines 11–12)."""
        if not self.armed:
            if values:
                raise ProtocolError(
                    "node {} received values before AggStart".format(
                        self.node_id
                    )
                )
            return
        ledger = self.ledger
        if values:
            row_of = ledger.row_of
            psi_col = ledger.psi_col
            psi_add = self.arith.psi_add
            for sender, message in values:
                row = row_of(message.source)
                if row is None or psi_col[row] is None:
                    raise ProtocolError(
                        "node {} got an aggregation value for unknown "
                        "source {}".format(self.node_id, message.source)
                    )
                psi_col[row] = psi_add(psi_col[row], message.value)
        if self._schedule:
            row = self._schedule.pop(ctx.round_number, None)
            if row is not None:
                source = ledger.source_col[row]
                value = self.arith.psi_add(
                    self._unit_term(ledger.sigma_col[row]), ledger.psi_col[row]
                )
                ledger.sent_col[row] = 1
                message = AggValue(source, value)
                for pred in ledger.preds_at(row):
                    ctx.send(pred, message)
        if not self.finished and ctx.round_number > self._horizon:
            self._finish()
            self.finished_round = ctx.round_number

    def next_event(self, round_number: int) -> Optional[int]:
        """Next round at which this phase acts without receiving a message.

        Either the next scheduled value send (a node that is a leaf of
        BFS(s) receives nothing before its send round for s) or the
        first round past the aggregation horizon, where the final local
        betweenness computation fires.  Used by the event engine's wake
        registration.
        """
        if not self.armed or self.finished:
            return None
        rounds = self._send_rounds
        cursor = self._send_cursor
        length = len(rounds)
        while cursor < length and rounds[cursor] <= round_number:
            cursor += 1
        self._send_cursor = cursor
        finish_round = self._horizon + 1
        if cursor < length and rounds[cursor] < finish_round:
            return rounds[cursor]
        return max(finish_round, round_number + 1)

    def _unit_term(self, sigma):
        """The seed of Eq. (14) this node adds when it sends.

        Betweenness: 1/sigma_su.  Stress: 1 (a path continuation).
        Non-target nodes (e.g. subdivision virtual nodes) contribute
        nothing and merely relay the accumulated psi.
        """
        if not self.config.is_target(self.node_id):
            return self.arith.psi_zero()
        if self.config.unit == UNIT_STRESS:
            return self.arith.psi_one()
        return self.arith.reciprocal(sigma)

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Line 17–18: the final local betweenness computation, run in
        the first round past the aggregation horizon."""
        arith = self.arith
        dependency = arith.dependency
        psi_add = arith.psi_add
        total = arith.psi_zero()
        node_id = self.node_id
        ledger = self.ledger
        source_col = ledger.source_col
        sigma_col = ledger.sigma_col
        psi_col = ledger.psi_col
        for row in range(len(ledger)):
            if source_col[row] == node_id:
                continue
            total = psi_add(total, dependency(psi_col[row], sigma_col[row]))
        self.betweenness_raw = total
        self.finished = True

    def dependencies(self) -> Dict[int, Any]:
        """Per-source dependencies delta_s·(u) after the phase finished.

        Useful for tests reproducing the paper's Figure 1 walkthrough
        (e.g. delta_{v1·}(v2) = 3).
        """
        out: Dict[int, Any] = {}
        ledger = self.ledger
        source_col = ledger.source_col
        sigma_col = ledger.sigma_col
        psi_col = ledger.psi_col
        for row in range(len(ledger)):
            if source_col[row] == self.node_id or psi_col[row] is None:
                continue
            out[source_col[row]] = self.arith.dependency(
                psi_col[row], sigma_col[row]
            )
        return out
