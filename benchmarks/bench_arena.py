"""E16 — protocol arena: the registry's league table.

Every protocol registered in :mod:`repro.protocols` runs the same graph
instances on the same engine with the same arithmetic; each row of the
league table records rounds, billed bits, messages and wall clock, plus
a correctness column — the run's maximum per-node relative error
against exact Brandes, gated by the Theorem 1 envelope for the L the
context actually chose.

The table exists to answer "what did pluggability cost?" with numbers,
and it documents a deliberate finding: ``cfp-bc``'s time-reversed
accumulation produces **identical totals** to ``hua-bc`` — same rounds,
same billed bits, same message count — because both schedules are affine
in the settle round with unit slope, so the complexity is a property of
the shared pipelined BFS, not of the accumulation direction.  Only the
*temporal* traffic distribution differs (``repro trace diff
--protocols hua-bc,cfp-bc`` finds the divergence).  The arena asserts
that identity rather than pretending there is a horse race.

Results land in ``BENCH_arena.json`` at the repo root; the run-history
ledger ingests it under the ``protocol_arena`` kind and ``repro bench
compare`` gates rounds/bits/messages exactly across runs.
"""

import json
import time
from pathlib import Path

from repro.analysis import print_table
from repro.arithmetic import max_relative_error, theorem1_bound
from repro.centrality import brandes_betweenness
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.protocols import protocol_names

from .conftest import once

SIZES = (32, 64)
FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "grid": lambda n: grid_graph(max(2, n // 8), 8),
}
REPS = 2
ENGINE = "event"  # level playing field: cfp-bc is not bulk-capable
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_arena.json"


def _lfloat_precision(arithmetic_name):
    """The L of an ``lfloat-<L>`` context name (None for exact)."""
    prefix = "lfloat-"
    if not arithmetic_name.startswith(prefix):
        return None
    return int(arithmetic_name[len(prefix):])


def measure_arena(
    sizes=SIZES,
    families=None,
    reps=REPS,
    protocols=None,
    engine=ENGINE,
):
    """One league-table row per protocol × family × N; best-of-``reps``.

    Protocol runs are interleaved within each repetition so ambient
    noise hits every contender roughly equally.  The Brandes reference
    is computed once per instance (exact Fractions) and every
    protocol's float output is checked against it through the Theorem 1
    relative-error envelope.
    """
    families = dict(FAMILIES) if families is None else families
    protocols = list(protocol_names()) if protocols is None else list(protocols)
    rows = []
    for family, build in sorted(families.items()):
        for n in sizes:
            graph = build(n)
            exact = brandes_betweenness(graph, exact=True)
            best = {}
            results = {}
            for _ in range(max(1, reps)):
                for protocol in protocols:
                    start = time.perf_counter()
                    result = distributed_betweenness(
                        graph,
                        arithmetic="lfloat",
                        options=RunOptions(engine=engine),
                        protocol=protocol,
                    )
                    elapsed = time.perf_counter() - start
                    if protocol not in best or elapsed < best[protocol]:
                        best[protocol] = elapsed
                    results[protocol] = result
            for protocol in protocols:
                result = results[protocol]
                measured = {
                    v: float(result.betweenness[v]) for v in graph.nodes()
                }
                precision = _lfloat_precision(result.arithmetic)
                max_err = max_relative_error(measured, exact)
                envelope = theorem1_bound(
                    precision, graph.num_nodes, result.diameter
                )
                rows.append(
                    {
                        "protocol": protocol,
                        "family": family,
                        "n": graph.num_nodes,
                        "engine": engine,
                        "arithmetic": result.arithmetic,
                        "rounds": result.rounds,
                        "bits": result.stats.bit_count,
                        "messages": result.stats.message_count,
                        "max_edge_bits": result.stats.max_edge_bits_per_round,
                        "wall_seconds": round(best[protocol], 4),
                        "max_rel_error": max_err,
                        "theorem1_envelope": envelope,
                        "matches_brandes": max_err <= envelope,
                    }
                )
    return rows


def identical_totals(rows):
    """True when every protocol posts the same rounds/bits/messages on
    every instance — the arena's headline finding."""
    by_instance = {}
    for row in rows:
        by_instance.setdefault((row["family"], row["n"]), []).append(
            (row["rounds"], row["bits"], row["messages"])
        )
    return all(
        len(set(totals)) == 1 for totals in by_instance.values()
    )


def write_json(rows, path=OUTPUT):
    """Persist the league table as ``BENCH_arena.json``."""
    protocols = sorted({row["protocol"] for row in rows})
    payload = {
        "benchmark": "protocol_arena",
        "arithmetic": "lfloat",
        "engine": ENGINE,
        "protocols": protocols,
        "reps": REPS,
        "rows": rows,
        "summary": {
            "all_match_brandes": all(row["matches_brandes"] for row in rows),
            "identical_totals_across_protocols": identical_totals(rows),
            "worst_rel_error": max(
                (row["max_rel_error"] for row in rows), default=0.0
            ),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def print_league_table(rows, title="E16 protocol arena"):
    print_table(
        [
            "protocol",
            "family",
            "N",
            "rounds",
            "bits",
            "messages",
            "wall s",
            "max rel err",
            "Brandes ok",
        ],
        [
            [
                row["protocol"],
                row["family"],
                row["n"],
                row["rounds"],
                row["bits"],
                row["messages"],
                row["wall_seconds"],
                "{:.2e}".format(row["max_rel_error"]),
                row["matches_brandes"],
            ]
            for row in rows
        ],
        title=title,
    )


def test_protocol_arena_league_table(benchmark):
    rows = once(benchmark, measure_arena)
    payload = write_json(rows)
    print_league_table(
        rows, "E16 protocol arena -> {}".format(OUTPUT.name)
    )
    # Every registered protocol took the field...
    assert sorted(payload["protocols"]) == sorted(protocol_names())
    assert len(payload["protocols"]) >= 2
    # ...every row cross-validates against exact Brandes within the
    # Theorem 1 envelope for the L the context chose...
    assert payload["summary"]["all_match_brandes"]
    # ...and the headline finding holds: the accumulation direction
    # does not change a single structural total.
    assert payload["summary"]["identical_totals_across_protocols"]
