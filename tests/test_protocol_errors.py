"""Fault injection: every ProtocolError guard, triggered deliberately.

The protocol asserts its own invariants (Lemma 4 collision-freedom,
synchrony of predecessor waves, tree-phase ordering) instead of
trusting them.  These tests drive the phase handlers directly with
adversarial message sequences and verify each guard fires — so a future
refactoring that silently weakens an invariant check fails loudly.
"""

import pytest

from repro.arithmetic import ExactContext
from repro.congest.node import RoundContext
from repro.core.aggregation import AggregationPhase
from repro.core.counting import CountingPhase
from repro.wire import (
    AggStart,
    AggValue,
    Announce,
    BfsWave,
    DfsToken,
    TreeWave,
)
from repro.core.records import NodeLedger, SourceRecord
from repro.core.tree import TreePhase
from repro.exceptions import ProtocolError

ARITH = ExactContext()


def ctx_for(node_id=0, round_number=0, neighbors=(1, 2, 3)):
    return RoundContext(node_id, round_number, tuple(neighbors))


def make_counting(node_id=0, is_root=False, parent=1):
    tree = TreePhase(node_id, is_root=is_root)
    tree.parent = None if is_root else parent
    tree.dist = 0 if is_root else 1
    tree.settle_round = 0
    ledger = NodeLedger(node_id)
    return CountingPhase(node_id, tree, ledger, ARITH), tree, ledger


def make_aggregation(node_id=0):
    tree = TreePhase(node_id, is_root=False)
    tree.parent = 1
    ledger = NodeLedger(node_id)
    return AggregationPhase(node_id, tree, ledger, ARITH), tree, ledger


class TestTreePhaseGuards:
    def test_inconsistent_wave_depths(self):
        tree = TreePhase(5, is_root=False)
        with pytest.raises(ProtocolError, match="depths"):
            tree.on_round(
                ctx_for(5),
                waves=[(1, TreeWave(0)), (2, TreeWave(3))],
                joins=[],
                counts=[],
                announces=[],
            )

    def test_duplicate_announce(self):
        tree = TreePhase(5, is_root=False)
        tree.parent = 1
        tree.children_final = True
        tree.on_round(
            ctx_for(5), waves=[], joins=[], counts=[],
            announces=[(1, Announce(9))],
        )
        with pytest.raises(ProtocolError, match="duplicate"):
            tree.on_round(
                ctx_for(5, 1), waves=[], joins=[], counts=[],
                announces=[(1, Announce(9))],
            )

    def test_announce_before_children_final(self):
        tree = TreePhase(5, is_root=False)
        with pytest.raises(ProtocolError, match="children"):
            tree.on_round(
                ctx_for(5), waves=[], joins=[], counts=[],
                announces=[(1, Announce(9))],
            )


class TestCountingGuards:
    def test_two_sources_settle_same_round(self):
        counting, _tree, _ledger = make_counting()
        waves = [
            (1, BfsWave(7, 3, 0, 1)),
            (2, BfsWave(8, 4, 0, 1)),
        ]
        with pytest.raises(ProtocolError, match="Lemma 4"):
            counting.on_round(ctx_for(), waves, [], [])

    def test_late_predecessor_wave(self):
        counting, _tree, ledger = make_counting()
        ledger.add(SourceRecord(7, 3, dist=2, sigma=1, preds=(1,)))
        late = [(2, BfsWave(7, 3, 1, 1))]  # dist+1 == record.dist
        with pytest.raises(ProtocolError, match="late wave"):
            counting.on_round(ctx_for(), late, [], [])

    def test_inconsistent_fresh_waves(self):
        counting, _tree, _ledger = make_counting()
        waves = [
            (1, BfsWave(7, 3, 2, 1)),
            (2, BfsWave(7, 3, 5, 1)),  # different claimed dist
        ]
        with pytest.raises(ProtocolError, match="inconsistent"):
            counting.on_round(ctx_for(), waves, [], [])

    def test_echo_waves_ignored(self):
        """Same-level or downstream echoes must NOT raise."""
        counting, _tree, ledger = make_counting()
        ledger.add(SourceRecord(7, 3, dist=2, sigma=1, preds=(1,)))
        echo = [(2, BfsWave(7, 3, 2, 1))]  # same level: dist+1 > 2
        counting.on_round(ctx_for(), echo, [], [])  # no error
        assert len(ledger) == 1

    def test_two_tokens_at_once(self):
        counting, _tree, _ledger = make_counting()
        tokens = [(1, DfsToken()), (2, DfsToken())]
        with pytest.raises(ProtocolError, match="two DFS tokens"):
            counting.on_round(ctx_for(), [], tokens, [])

    def test_first_token_from_non_parent(self):
        counting, _tree, _ledger = make_counting(parent=1)
        with pytest.raises(ProtocolError, match="tree parent"):
            counting.on_round(ctx_for(), [], [(2, DfsToken())], [])

    def test_token_from_parent_accepted(self):
        counting, _tree, _ledger = make_counting(parent=1)
        counting.on_round(ctx_for(), [], [(1, DfsToken())], [])
        assert counting.visited


class TestAggregationGuards:
    def test_duplicate_agg_start(self):
        agg, _tree, _ledger = make_aggregation()
        agg.arm(AggStart(3, 10, 20))
        with pytest.raises(ProtocolError, match="twice"):
            agg.arm(AggStart(3, 10, 20))

    def test_lemma4_schedule_collision_detected(self):
        agg, _tree, ledger = make_aggregation(node_id=0)
        # two sources engineered onto the same send round:
        # T_s + D - d equal: (10, d=1) and (11, d=2) with D = 3.
        ledger.add(SourceRecord(5, 10, dist=1, sigma=1, preds=(1,)))
        ledger.add(SourceRecord(6, 11, dist=2, sigma=1, preds=(1,)))
        with pytest.raises(ProtocolError, match="Lemma 4"):
            agg.arm(AggStart(3, 11, 100))

    def test_value_before_arming(self):
        agg, _tree, _ledger = make_aggregation()
        values = [(1, AggValue(5, ARITH.psi_zero()))]
        with pytest.raises(ProtocolError, match="before AggStart"):
            agg.on_round(ctx_for(), values)

    def test_value_for_unknown_source(self):
        agg, _tree, ledger = make_aggregation()
        ledger.add(SourceRecord(0, 10, dist=0, sigma=1, preds=()))
        agg.arm(AggStart(3, 10, 20))
        values = [(1, AggValue(99, ARITH.psi_zero()))]
        with pytest.raises(ProtocolError, match="unknown source"):
            agg.on_round(ctx_for(), values)

    def test_silent_round_before_arming_ok(self):
        agg, _tree, _ledger = make_aggregation()
        agg.on_round(ctx_for(), [])  # nothing armed, nothing received
        assert not agg.finished


class TestLedgerGuards:
    def test_duplicate_source_record(self):
        ledger = NodeLedger(0)
        ledger.add(SourceRecord(3, 1, 1, 1, (1,)))
        with pytest.raises(KeyError):
            ledger.add(SourceRecord(3, 2, 2, 1, (2,)))

    def test_unknown_message_type_rejected_by_node(self):
        from repro.wire import IntMessage
        from repro.core.node import _split_inbox

        with pytest.raises(ProtocolError, match="unexpected message"):
            _split_inbox([(1, IntMessage(4))])


class TestPipelineGuards:
    def test_betweenness_raw_before_finish(self):
        from repro.core.node import BetweennessNode

        node = BetweennessNode(0, (1,), root=0, arith=ARITH)
        with pytest.raises(ProtocolError, match="not finished"):
            _ = node.betweenness_raw
