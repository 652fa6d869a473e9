"""Run-history ledger: content-addressed run records and regression gates.

The BENCH_*.json artifacts are overwritten on every benchmark run, so
the repo's perf trajectory was empty — this module makes it accumulate.
Every record appended to the ledger (``.repro-history.jsonl`` by
default) carries a **content-addressed key**: a blake2b digest over the
canonical JSON of (graph fingerprint, protocol config, engine, git
revision).  Two identical runs — same topology, same configuration,
same code — therefore land under the same key, and a key whose metrics
*change* is, by construction, a regression or an environment delta.

Two families of record share the ledger:

* ``run`` — one protocol run (ingested from a pipeline result or from
  exported repro-metrics-v1 rows);
* ``bench_*`` — one row of a ``BENCH_*.json`` benchmark payload, one
  kind per :data:`BENCH_SCHEMAS` entry: ``bench_engine``
  (``BENCH_engine.json``), ``bench_arena`` (``BENCH_arena.json``),
  ``bench_faults`` (``BENCH_faults.json``), ``bench_shard``
  (``BENCH_shard.json``) and ``bench_recovery``
  (``BENCH_recovery.json``).

The registered protocol is part of every ``run`` record's config, so a
``hua-bc`` run and a ``cfp-bc`` run over the same graph land under
*different* content keys and never gate against each other.

The regression gates (:func:`compare_payloads`) power ``repro bench
compare``.  One declared table, :data:`BENCH_SCHEMAS`, says for every
payload kind how rows are matched and which keys are gated how:
structural metrics (rounds, billed bits, messages, result-identity
flags) must match **exactly** for an identical config — they are
machine-independent — while wall-clock metrics get configurable ratio
gates (speedup drop, slowdown factor) because timers are not portable
across hosts.  Adding a benchmark means adding one table entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "DEFAULT_HISTORY_PATH",
    "HISTORY_SCHEMA",
    "HistoryLedger",
    "RegressionGates",
    "Violation",
    "BENCH_SCHEMAS",
    "BenchSchema",
    "MAX_CHECKPOINT_OVERHEAD",
    "compare_payloads",
    "entry_from_result",
    "entry_from_rows",
    "git_revision",
    "graph_fingerprint",
    "run_key",
]

HISTORY_SCHEMA = "repro-history-v1"
DEFAULT_HISTORY_PATH = ".repro-history.jsonl"

#: Hex digits kept from the blake2b digests (64 bits — plenty for a
#: per-repo ledger, short enough to eyeball).
_KEY_LEN = 16


def _canonical(payload: Any) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace drift."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def graph_fingerprint(graph) -> str:
    """Content hash of a topology: node count + sorted edge list."""
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    digest = hashlib.blake2b(
        _canonical([graph.num_nodes, edges]), digest_size=16
    )
    return digest.hexdigest()[:_KEY_LEN]


def run_key(
    graph_hash: str,
    config: Dict[str, Any],
    engine: str,
    git_rev: Optional[str] = None,
) -> str:
    """The content address of one run configuration."""
    digest = hashlib.blake2b(
        _canonical(
            {
                "graph": graph_hash,
                "config": config,
                "engine": engine,
                "git_rev": git_rev,
            }
        ),
        digest_size=16,
    )
    return digest.hexdigest()[:_KEY_LEN]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The working tree's HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode("ascii", "replace").strip() or None


# ----------------------------------------------------------------------
# record builders
# ----------------------------------------------------------------------
def entry_from_result(
    result,
    graph,
    config: Optional[Dict[str, Any]] = None,
    git_rev: Optional[str] = None,
    wall_seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """A ``run`` record from a pipeline result object."""
    stats = result.stats
    cfg = dict(config or {})
    cfg.setdefault("arithmetic", getattr(result, "arithmetic", None))
    cfg.setdefault("protocol", getattr(result, "protocol", "hua-bc"))
    graph_hash = graph_fingerprint(graph)
    engine = stats.engine or "unknown"
    entry = {
        "kind": "run",
        "key": run_key(graph_hash, cfg, engine, git_rev),
        "graph": graph.name,
        "graph_hash": graph_hash,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "config": cfg,
        "engine": engine,
        "git_rev": git_rev,
        "rounds": stats.rounds,
        "messages": stats.message_count,
        "bits": stats.bit_count,
        "max_edge_bits": stats.max_edge_bits_per_round,
        "diameter": getattr(result, "diameter", None),
    }
    # Worker count is recorded for provenance but deliberately kept out
    # of the hashed config: a sharded run is bit-identical to the
    # single-process one, so W must not fork the content key.
    shard = getattr(stats, "shard", None)
    entry["workers"] = shard["workers"] if shard else 1
    # Same rule for supervision: respawns and resume points are wall-
    # clock history, not protocol configuration — a recovered or resumed
    # run IS the uninterrupted run, so neither may fork the content key.
    supervisor = getattr(stats, "supervisor", None)
    entry["workers_restarted"] = (
        supervisor["restarts"] if supervisor else 0
    )
    entry["resumed_from"] = (
        supervisor["resumed_from"] if supervisor else None
    )
    if wall_seconds is not None:
        entry["wall_seconds"] = round(wall_seconds, 6)
    return entry


def entry_from_rows(
    rows: Iterable[Dict[str, Any]],
    git_rev: Optional[str] = None,
) -> Dict[str, Any]:
    """A ``run`` record from exported repro-metrics-v1 rows.

    Exported rows carry the graph's name and size but not its edges, so
    the "graph hash" falls back to hashing (name, N, E) — stable for
    the deterministic generators the CLI uses.
    """
    meta: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    for row in rows:
        if row.get("event") == "meta":
            meta = row
        elif row.get("event") == "metric":
            metrics[row.get("name")] = row.get("value")
    if not meta:
        raise ValueError("no meta header row: not a telemetry export")
    pseudo = hashlib.blake2b(
        _canonical(
            [meta.get("graph"), meta.get("num_nodes"), meta.get("num_edges")]
        ),
        digest_size=16,
    ).hexdigest()[:_KEY_LEN]
    cfg = {
        "strict": meta.get("strict"),
        "bit_budget": meta.get("bit_budget"),
        "protocol": meta.get("protocol", "hua-bc"),
    }
    engine = meta.get("engine", "unknown")
    entry = {
        "kind": "run",
        "key": run_key(pseudo, cfg, engine, git_rev),
        "graph": meta.get("graph"),
        "graph_hash": pseudo,
        "num_nodes": meta.get("num_nodes"),
        "num_edges": meta.get("num_edges"),
        "config": cfg,
        "engine": engine,
        "engine_requested": meta.get("engine_requested"),
        "engine_reason": meta.get("engine_reason"),
        "git_rev": git_rev,
        "rounds": metrics.get("run.rounds"),
        "messages": metrics.get("run.messages"),
        "bits": metrics.get("run.bits"),
        "max_edge_bits": metrics.get("run.max_edge_bits_per_round"),
        "wall_seconds": metrics.get("run.wall_seconds"),
    }
    return entry


class HistoryLedger:
    """Append-only JSONL ledger of run and benchmark records."""

    def __init__(self, path=DEFAULT_HISTORY_PATH):
        self.path = path
        #: Unparseable lines seen by the most recent :meth:`entries` read.
        self.skipped_lines = 0

    # ------------------------------------------------------------------
    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp and append one record; returns the stored form."""
        stored = dict(entry)
        stored.setdefault("schema", HISTORY_SCHEMA)
        stored.setdefault("recorded_unix", round(time.time(), 3))
        with open(self.path, "a+b") as fh:
            # A prior process killed mid-append leaves a torn line with
            # no newline; start fresh so we don't concatenate onto it.
            fh.seek(0, os.SEEK_END)
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(
                (json.dumps(stored, sort_keys=True) + "\n").encode("utf-8")
            )
            fh.flush()
        return stored

    def entries(
        self,
        kind: Optional[str] = None,
        key: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """All stored records, oldest first.

        The ledger is appended to by many short-lived processes over its
        lifetime, so a torn line (process killed mid-append) can sit
        anywhere, not just at the tail — unparseable lines are skipped
        and counted in :attr:`skipped_lines` rather than raised.
        """
        self.skipped_lines = 0
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines:
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                self.skipped_lines += 1
                continue
            if kind is not None and row.get("kind") != kind:
                continue
            if key is not None and row.get("key") != key:
                continue
            out.append(row)
        return out

    def latest(self, key: str) -> Optional[Dict[str, Any]]:
        """Most recent record under a content key."""
        matches = self.entries(key=key)
        return matches[-1] if matches else None

    def __len__(self) -> int:
        return len(self.entries())

    # ------------------------------------------------------------------
    # benchmark ingestion
    # ------------------------------------------------------------------
    def ingest(
        self, payload: Dict[str, Any], git_rev: Optional[str] = None
    ) -> int:
        """Append one record per row of a BENCH_*.json payload.

        A record is the row itself plus its identity — the payload's
        ``benchmark`` marker, the schema's ``context`` keys and the
        row's ``id_keys`` — content-addressed under the schema's ledger
        ``kind``.  Returns the record count; raises ``ValueError`` for a
        payload whose marker has no entry in :data:`BENCH_SCHEMAS`.
        """
        marker = payload.get("benchmark")
        schema = BENCH_SCHEMAS.get(marker)
        if schema is None:
            raise ValueError("unknown benchmark kind {!r}".format(marker))
        context = {key: payload.get(key) for key in schema.context}
        rows = payload.get("rows", ())
        for row in rows:
            ident = dict(context, benchmark=marker)
            ident.update((key, row.get(key)) for key in schema.id_keys)
            entry = dict(row)
            entry.update(ident)
            entry["kind"] = schema.kind
            entry["key"] = run_key("bench", ident, schema.kind, git_rev)
            entry["git_rev"] = git_rev
            self.append(entry)
        return len(rows)


# ----------------------------------------------------------------------
# regression gates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Violation:
    """One failed gate.  ``hard`` gates are machine-independent facts
    (rounds, bits, result identity); soft gates are wall-clock ratios.
    """

    gate: str
    message: str
    hard: bool = True

    def __str__(self) -> str:
        return "[{}{}] {}".format(
            self.gate, "" if self.hard else ", wall-clock", self.message
        )


@dataclass(frozen=True)
class RegressionGates:
    """Configurable thresholds for ``repro bench compare``.

    ``max_speedup_drop`` — fail when an engine's speedup over sweep
    falls by more than this fraction (default 20%).
    ``max_slowdown`` — fail when a timed section takes more than this
    multiple of the baseline (default 2x — the acceptance scenario).
    ``check_wall`` — set False to skip wall-clock gates entirely
    (cross-machine comparisons where only structure is meaningful).
    """

    max_speedup_drop: float = 0.20
    max_slowdown: float = 2.0
    check_wall: bool = True


@dataclass(frozen=True)
class BenchSchema:
    """How one kind of BENCH_*.json payload is recorded and gated.

    Every payload is ``{"benchmark": <marker>, "rows": [...], ...}``
    and rows are matched across payloads by their ``id_keys`` values.
    Hard gates: an ``exact`` key may not change, a ``flags`` key may
    not turn false (reported as ``identity``).  Wall-clock gates, all
    soft and all skipped under ``check_wall=False``: a ``speedups`` key
    (higher is better) may not drop by more than ``max_speedup_drop``,
    a ``timings`` key (lower is better) may not grow past
    ``max_slowdown`` times the baseline, and a ``ceilings`` key may not
    exceed its absolute bound.  A baseline row missing from the current
    payload is a soft ``coverage`` violation.  ``context`` names
    payload-level keys folded into every ledger record's identity, and
    ``kind`` is the ledger record kind, ``bench_<stem>`` for the
    payload file ``BENCH_<stem>.json``.
    """

    kind: str
    id_keys: Tuple[str, ...]
    exact: Tuple[str, ...] = ("rounds", "bits", "messages")
    flags: Tuple[str, ...] = ()
    speedups: Tuple[str, ...] = ()
    timings: Tuple[str, ...] = ()
    ceilings: Tuple[Tuple[str, float], ...] = ()
    context: Tuple[str, ...] = ()


#: Checkpoint overhead ceiling: a supervised run with checkpoints on
#: may cost at most this fraction of wall time over the unsupervised
#: run (the supervised runtime's acceptance figure, enforced as a
#: wall-clock gate).
MAX_CHECKPOINT_OVERHEAD = 0.05

#: The one table behind ``HistoryLedger.ingest`` and
#: :func:`compare_payloads`, keyed by the payload's ``benchmark`` marker.
BENCH_SCHEMAS: Dict[str, BenchSchema] = {
    # BENCH_engine.json: one row per family x N, all engines vs sweep.
    "engine_comparison": BenchSchema(
        kind="bench_engine",
        id_keys=("family", "n"),
        flags=("identical_results",),
        speedups=("event_speedup", "bulk_speedup"),
        timings=("sweep_seconds", "event_seconds", "bulk_seconds"),
        context=("engines", "arithmetic"),
    ),
    # BENCH_arena.json: one league-table row per protocol x family x N.
    "protocol_arena": BenchSchema(
        kind="bench_arena",
        id_keys=("protocol", "family", "n"),
        flags=("matches_brandes",),
        timings=("wall_seconds",),
        context=("arithmetic",),
    ),
    # BENCH_faults.json: the disabled-layer row and one recovery row per
    # drop rate.
    "fault_layer": BenchSchema(
        kind="bench_faults",
        id_keys=("gate", "graph", "drop_rate"),
        exact=("rounds",),
        flags=("identical_results", "recovered_exactly"),
        timings=("overhead_ratio",),
    ),
    # BENCH_shard.json: one row per family x N x protocol x W x
    # partitioner; the partition's cut and cross-shard traffic are wire
    # facts too.
    "shard_runtime": BenchSchema(
        kind="bench_shard",
        id_keys=("family", "n", "protocol", "workers", "partitioner"),
        exact=(
            "rounds", "bits", "messages", "edge_cut", "cross_bits",
            "cross_messages",
        ),
        flags=("identical_results",),
        timings=("event_seconds", "shard_seconds"),
        context=("arithmetic",),
    ),
    # BENCH_recovery.json: one row per family x N x protocol x recovery
    # scenario.  Fault plans are keyed hashes, so the restart count must
    # replay exactly.
    "recovery": BenchSchema(
        kind="bench_recovery",
        id_keys=("family", "n", "protocol", "scenario"),
        exact=("rounds", "bits", "messages", "restarts"),
        flags=("identical_after_resume",),
        timings=("recovery_seconds", "supervised_seconds"),
        ceilings=(("overhead_fraction", MAX_CHECKPOINT_OVERHEAD),),
    ),
}


def _row_violations(
    schema: BenchSchema,
    label: str,
    base: Dict[str, Any],
    cur: Dict[str, Any],
    gates: RegressionGates,
) -> Iterable[Violation]:
    """The gates of one matched (baseline, current) row pair."""
    for key in schema.exact:
        if key in base and key in cur and base[key] != cur[key]:
            yield Violation(
                key,
                "{}: {} changed for an identical config: {} -> {}".format(
                    label, key, base[key], cur[key]
                ),
            )
    for key in schema.flags:
        if base.get(key) and not cur.get(key, True):
            yield Violation(
                "identity", "{}: {} is no longer true".format(label, key)
            )
    if not gates.check_wall:
        return
    for key in schema.speedups:
        if base.get(key) is None or cur.get(key) is None:
            continue
        floor = base[key] * (1.0 - gates.max_speedup_drop)
        if cur[key] < floor:
            yield Violation(
                key,
                "{}: {} dropped {:.0%}+: {:.2f}x -> {:.2f}x "
                "(floor {:.2f}x)".format(
                    label, key, gates.max_speedup_drop, base[key],
                    cur[key], floor,
                ),
                hard=False,
            )
    for key in schema.timings:
        if not base.get(key) or cur.get(key) is None:
            continue
        ratio = cur[key] / base[key]
        if ratio > gates.max_slowdown:
            yield Violation(
                key,
                "{}: {} slowed {:.2f}x over baseline "
                "({:.4f} -> {:.4f}; gate {:.2f}x)".format(
                    label, key, ratio, base[key], cur[key],
                    gates.max_slowdown,
                ),
                hard=False,
            )
    for key, ceiling in schema.ceilings:
        if cur.get(key) is not None and cur[key] > ceiling:
            yield Violation(
                key,
                "{}: {} is {} (ceiling {})".format(
                    label, key, cur[key], ceiling
                ),
                hard=False,
            )


def compare_payloads(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    gates: RegressionGates = RegressionGates(),
) -> Tuple[List[Violation], int]:
    """Gate a fresh BENCH_*.json payload against a baseline of its kind.

    The ``benchmark`` marker selects the :data:`BENCH_SCHEMAS` entry
    whose rules apply; rows are matched by the schema's ``id_keys``.
    Returns ``(violations, rows_compared)``.
    """
    marker, other = baseline.get("benchmark"), current.get("benchmark")
    schema = BENCH_SCHEMAS.get(marker)
    if other != marker:
        problem = "payload kinds differ: baseline {!r} vs current {!r}"
        return [Violation("schema", problem.format(marker, other))], 0
    if schema is None:
        problem = "unknown benchmark kind {!r}".format(marker)
        return [Violation("schema", problem)], 0

    def rows_by_id(payload):
        return {
            tuple(row.get(key) for key in schema.id_keys): row
            for row in payload.get("rows", ())
        }

    cur_rows = rows_by_id(current)
    violations: List[Violation] = []
    compared = 0
    for ident, base in rows_by_id(baseline).items():
        label = " ".join(
            "{}={}".format(key, value)
            for key, value in zip(schema.id_keys, ident)
            if value is not None
        )
        cur = cur_rows.get(ident)
        if cur is None:
            violations.append(
                Violation(
                    "coverage",
                    "{}: baseline row missing from the current run".format(
                        label
                    ),
                    hard=False,
                )
            )
            continue
        compared += 1
        violations.extend(_row_violations(schema, label, base, cur, gates))
    return violations, compared
