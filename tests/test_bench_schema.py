"""One schema table gates every committed BENCH_*.json payload.

:data:`repro.obs.history.BENCH_SCHEMAS` declares, per ``benchmark``
marker, how rows are matched and how each key is gated.  These tests
drive the generic rules over the five committed payloads: a
self-compare is clean, a drifting exact key is a hard violation named
after the key, a flag turning false is a hard ``identity`` violation, a
3x slowdown is a soft (wall-clock) violation that ``check_wall=False``
drops, and a missing row is ``coverage``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.history import (
    BENCH_SCHEMAS,
    HistoryLedger,
    RegressionGates,
    compare_payloads,
)

ROOT = Path(__file__).resolve().parent.parent
PAYLOADS = ("engine", "arena", "faults", "shard", "recovery")
NO_WALL = RegressionGates(check_wall=False)


@pytest.fixture(params=PAYLOADS)
def payload(request):
    path = ROOT / "BENCH_{}.json".format(request.param)
    return json.loads(path.read_text())


def schema_of(payload):
    return BENCH_SCHEMAS[payload["benchmark"]]


def with_row(payload, index, **changes):
    out = copy.deepcopy(payload)
    out["rows"][index].update(changes)
    return out


def gates_hit(violations):
    return [(v.gate, v.hard) for v in violations]


@pytest.mark.parametrize("check_wall", [True, False])
def test_self_compare_is_clean(payload, check_wall):
    violations, compared = compare_payloads(
        payload, payload, RegressionGates(check_wall=check_wall)
    )
    assert violations == []
    assert compared == len(payload["rows"])


def test_exact_key_drift_is_a_hard_violation_named_after_the_key(payload):
    cases = [
        (index, key)
        for index, row in enumerate(payload["rows"])
        for key in schema_of(payload).exact
        if key in row
    ]
    assert cases
    for index, key in cases:
        current = with_row(
            payload, index, **{key: payload["rows"][index][key] + 1}
        )
        for gates in (RegressionGates(), NO_WALL):
            violations, _ = compare_payloads(payload, current, gates)
            assert gates_hit(violations) == [(key, True)]


def test_flag_flip_is_a_hard_identity_violation(payload):
    cases = [
        (index, flag)
        for index, row in enumerate(payload["rows"])
        for flag in schema_of(payload).flags
        if row.get(flag)
    ]
    assert cases
    for index, flag in cases:
        current = with_row(payload, index, **{flag: False})
        for gates in (RegressionGates(), NO_WALL):
            violations, _ = compare_payloads(payload, current, gates)
            assert gates_hit(violations) == [("identity", True)]
            assert flag in violations[0].message


def test_wall_clock_regressions_are_soft_and_skipped_without_wall(payload):
    schema = schema_of(payload)
    cases = []
    for index, row in enumerate(payload["rows"]):
        for key in schema.timings:
            if row.get(key):
                cases.append((index, key, row[key] * 3))
        for key, _ in schema.ceilings:
            if row.get(key):
                cases.append((index, key, row[key] * 3))
        for key in schema.speedups:
            if row.get(key):
                cases.append((index, key, row[key] / 3))
    assert cases
    for index, key, value in cases:
        current = with_row(payload, index, **{key: value})
        violations, _ = compare_payloads(payload, current)
        assert violations
        assert set(gates_hit(violations)) == {(key, False)}
        assert compare_payloads(payload, current, NO_WALL)[0] == []


def test_missing_row_reports_coverage(payload):
    for index in range(len(payload["rows"])):
        current = copy.deepcopy(payload)
        del current["rows"][index]
        for gates in (RegressionGates(), NO_WALL):
            violations, compared = compare_payloads(payload, current, gates)
            assert gates_hit(violations) == [("coverage", False)]
            assert compared == len(payload["rows"]) - 1


def test_ingest_records_every_row_under_the_schema_kind(payload, tmp_path):
    schema = schema_of(payload)
    ledger = HistoryLedger(tmp_path / "history.jsonl")
    count = ledger.ingest(payload, git_rev="abc")
    assert count == len(payload["rows"])
    stored = ledger.entries(kind=schema.kind)
    assert len(stored) == count
    for entry, row in zip(stored, payload["rows"]):
        assert entry["git_rev"] == "abc"
        assert entry["benchmark"] == payload["benchmark"]
        for key in schema.id_keys + schema.exact:
            assert entry.get(key) == row.get(key)
    # Distinct rows are distinct configurations: distinct content keys.
    assert len({entry["key"] for entry in stored}) == count


def test_help_lists_every_schema_payload(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "compare", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in PAYLOADS:
        assert "BENCH_{}.json".format(name) in text


class TestUnknownKind:
    PAYLOAD = {"benchmark": "mystery", "rows": [{"n": 1}]}

    def test_ingest_refuses_an_unknown_kind(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "history.jsonl")
        with pytest.raises(ValueError, match="mystery"):
            ledger.ingest(self.PAYLOAD)
        assert len(ledger) == 0

    def test_compare_ledger_reports_the_skip(self, tmp_path, capsys):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(self.PAYLOAD))
        ledger_path = tmp_path / "history.jsonl"
        code = main(
            [
                "bench", "compare", str(path), str(path),
                "--ledger", str(ledger_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # the unknown kind is a schema violation
        assert "not recorded" in out
        assert "recorded in" not in out
        assert len(HistoryLedger(ledger_path)) == 0

    def test_bench_ingest_skips_it(self, tmp_path, capsys):
        path = tmp_path / "mystery.json"
        path.write_text(json.dumps(self.PAYLOAD))
        ledger_path = tmp_path / "history.jsonl"
        assert main(
            ["bench", "ingest", str(path), "--ledger", str(ledger_path)]
        ) == 0
        assert "skipping" in capsys.readouterr().err
        assert len(HistoryLedger(ledger_path)) == 0
