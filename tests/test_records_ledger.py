"""Unit tests for the array-backed :class:`repro.core.records.NodeLedger`.

The ledger's contract is shaped by two consumers: the protocol phases,
which append rows in settle order and read/write the sigma/psi/sent
columns by row index, and the observability layer, which asks for
aggregate storage summaries.  The compat surface (``add``, ``get``,
``__iter__`` over row views) must keep behaving like the old
object-dict ledger bit for bit.
"""

import pickle

import pytest

from repro.congest.options import RunOptions
from repro.core.records import (
    LedgerRow,
    NodeLedger,
    SourceRecord,
    ledger_storage_totals,
)


def build_ledger():
    ledger = NodeLedger(owner=3)
    ledger.add_row(source=0, start_time=4, dist=2, sigma=6, preds=(1, 2))
    ledger.add_row(source=5, start_time=9, dist=1, sigma=1, preds=(5,))
    ledger.add_row(source=3, start_time=7, dist=0, sigma=1, preds=())
    return ledger


class TestRows:
    def test_add_row_returns_dense_indices(self):
        ledger = NodeLedger(owner=0)
        assert ledger.add_row(4, 1, 1, 1, ()) == 0
        assert ledger.add_row(7, 2, 1, 1, ()) == 1
        assert len(ledger) == 2

    def test_duplicate_source_rejected(self):
        ledger = build_ledger()
        with pytest.raises(KeyError):
            ledger.add_row(0, 10, 3, 2, ())

    def test_get_returns_live_view(self):
        ledger = build_ledger()
        row = ledger.get(0)
        assert isinstance(row, LedgerRow)
        assert (row.source, row.start_time, row.dist) == (0, 4, 2)
        assert row.sigma == 6
        assert row.preds == (1, 2)
        assert not row.sent
        row.sent = True
        row.psi = 17
        again = ledger.get(0)
        assert again.sent and again.psi == 17

    def test_get_default_and_contains(self):
        ledger = build_ledger()
        assert ledger.get(99) is None
        assert ledger.get(99, "missing") == "missing"
        assert 5 in ledger and 99 not in ledger

    def test_iteration_yields_every_row(self):
        ledger = build_ledger()
        assert [row.source for row in ledger] == [0, 5, 3]
        assert ledger.sources() == [0, 3, 5]  # sorted by contract

    def test_sending_time_matches_lemma4_formula(self):
        ledger = build_ledger()
        row = ledger.get(0)
        diameter = 3
        assert row.sending_time(diameter) == row.start_time + diameter - row.dist

    def test_detach_produces_plain_record(self):
        ledger = build_ledger()
        ledger.get(5).psi = 11
        record = ledger.get(5).detach()
        assert isinstance(record, SourceRecord)
        assert (record.source, record.start_time, record.dist) == (5, 9, 1)
        assert record.psi == 11
        # Detached copies do not alias the columns.
        record.psi = 99
        assert ledger.get(5).psi == 11

    def test_add_compat_accepts_source_records(self):
        ledger = NodeLedger(owner=1)
        record = SourceRecord(source=2, start_time=3, dist=1, sigma=4, preds=(0,))
        record.psi = 8
        record.sent = True
        ledger.add(record)
        row = ledger.get(2)
        assert row.sigma == 4 and row.psi == 8 and row.sent


class TestColumns:
    def test_row_of_is_the_hot_path_index(self):
        ledger = build_ledger()
        row = ledger.row_of(5)
        assert ledger.source_col[row] == 5
        assert ledger.dist_col[row] == 1
        assert ledger.row_of(99) is None

    def test_preds_stored_as_csr(self):
        ledger = build_ledger()
        assert ledger.preds_at(0) == (1, 2)
        assert ledger.preds_at(1) == (5,)
        assert ledger.preds_at(2) == ()
        assert ledger.predecessor_links() == 3

    def test_aggregate_queries(self):
        ledger = build_ledger()
        assert ledger.eccentricity() == 2
        assert ledger.max_start_time() == 9
        assert ledger.distances() == {0: 2, 5: 1, 3: 0}


class TestStorage:
    def test_storage_summary_counts_words(self):
        ledger = build_ledger()
        summary = ledger.storage_summary()
        assert summary["records"] == 3
        assert summary["pred_links"] == 3
        assert summary["fields"] == 12
        assert summary["words"] == 15

    def test_ledger_storage_totals_sums_across_nodes(self):
        totals = ledger_storage_totals([build_ledger(), build_ledger()])
        assert totals["records"] == 6
        assert totals["words"] == 30

    def test_empty_ledger_summary(self):
        summary = NodeLedger(owner=0).storage_summary()
        assert summary == {
            "records": 0, "pred_links": 0, "fields": 0, "words": 0,
        }


class TestPickle:
    def test_round_trip_preserves_rows_and_index(self):
        ledger = build_ledger()
        ledger.get(0).psi = 13
        clone = pickle.loads(pickle.dumps(ledger))
        assert len(clone) == 3
        assert clone.get(0).psi == 13
        assert clone.preds_at(0) == (1, 2)
        # The rebound row_of works on the clone's own index.
        clone.add_row(8, 12, 4, 2, (0,))
        assert clone.row_of(8) == 3
        assert 8 not in ledger


@pytest.mark.skipif(
    pytest.importorskip("repro.engines").numpy_available() is False,
    reason="bulk engine needs numpy",
)
class TestBulkLedgerLaziness:
    def _bulk_nodes(self):
        from repro.core import distributed_betweenness
        from repro.graphs import path_graph

        result = distributed_betweenness(
            path_graph(6),
            options=RunOptions(engine="bulk"),
        )
        return result.nodes

    def test_storage_summary_does_not_materialize(self):
        nodes = self._bulk_nodes()
        ledger = nodes[2].ledger
        assert ledger.__dict__.get("_fill") is not None
        summary = ledger.storage_summary()
        # Closed-form answer off the plan arrays; the fill closure
        # must still be pending afterwards.
        assert ledger.__dict__.get("_fill") is not None
        assert summary["records"] == 6

    def test_lazy_summary_matches_materialized_summary(self):
        nodes = self._bulk_nodes()
        for node in nodes:
            lazy = node.ledger.storage_summary()
            node.ledger._materialize()
            assert node.ledger.storage_summary() == lazy

    def test_column_access_triggers_materialization(self):
        nodes = self._bulk_nodes()
        ledger = nodes[1].ledger
        assert ledger.__dict__.get("_fill") is not None
        assert len(ledger.source_col) == 6
        assert ledger.__dict__.get("_fill") is None
