"""E16 — sharded multi-process runtime: identity, traffic split, memory.

The shard engine partitions the node set across worker processes that
exchange wire-encoded cross-shard frames each round (`docs/sharding.md`).
This benchmark drives it three ways and writes ``BENCH_shard.json``:

* **Identity matrix** — family × N × protocol × worker-count rows, each
  checked bit-identical against the event engine (betweenness, rounds,
  bits, messages, series, worst edge).  These are the hard regression
  gates `repro bench compare` enforces.
* **Traffic split** — the partition's edge cut and the cross-shard
  share of the (unchanged) billed totals.
* **Memory split** — a large-N run recording per-shard ledger words:
  the Theta(N^2)-records ledger divides across processes, which is the
  memory ceiling sharding lifts.

**Honest timing.**  This container is single-core (the payload records
``cpu_count``), so a multi-process runtime *cannot* show wall-clock
speedup here — the W workers time-slice one core and pay IPC on top.
Rows therefore carry three clearly-separated figures: ``event_seconds``
(single-process wall), ``shard_seconds`` (sharded wall — expected to be
*larger* on one core), and ``shard_cpu_seconds`` (total CPU across the
coordinator and all workers, via ``os.times`` children counters).
All three are measured; none is a projection of what a W-core host
would see.
"""

import json
import os
import time
from pathlib import Path

from repro.analysis import print_table
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.graphs import cycle_graph, grid_graph, path_graph

from .conftest import once

SIZES = (100, 200)
WORKER_COUNTS = (2, 4)
PARTITIONER = "greedy"
FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "grid": lambda n: grid_graph(int(n ** 0.5), int(n ** 0.5)),
}
PROTOCOLS = ("hua-bc", "cfp-bc")
MEMORY_N = 2000
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_shard.json"


def _fingerprint(result):
    """Everything the engines must agree on, in comparable form."""
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        sorted(result.start_times.items()),
        result.stats.summary(),
        result.stats.round_series,
        result.stats.worst_edge,
        result.distances(),
    )


def _cpu_seconds():
    """CPU seconds of this process *and* its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure(sizes=SIZES, families=None, worker_counts=WORKER_COUNTS,
            protocols=PROTOCOLS):
    """One row per family × N × protocol × W, checked against event.

    The full protocol matrix runs on the largest size only (the rival
    protocol's schedule differs, not its sharding), keeping the
    benchmark's runtime linear in the interesting axis — worker count.
    """
    families = dict(FAMILIES) if families is None else families
    rows = []
    for family, build in sorted(families.items()):
        for n in sizes:
            graph = build(n)
            for protocol in protocols:
                if protocol != protocols[0] and (
                    family != "cycle" or n != max(sizes)
                ):
                    continue
                start = time.perf_counter()
                reference = distributed_betweenness(
                    graph,
                    arithmetic="lfloat",
                    options=RunOptions(engine="event"),
                    protocol=protocol,
                )
                event_seconds = time.perf_counter() - start
                ref_print = _fingerprint(reference)
                for workers in worker_counts:
                    cpu0 = _cpu_seconds()
                    start = time.perf_counter()
                    sharded = distributed_betweenness(
                        graph,
                        arithmetic="lfloat",
                        options=RunOptions(
                            engine="shard",
                            workers=workers,
                            partitioner=PARTITIONER,
                        ),
                        protocol=protocol,
                    )
                    shard_seconds = time.perf_counter() - start
                    shard_cpu = _cpu_seconds() - cpu0
                    summary = sharded.stats.summary()
                    shard = sharded.stats.shard
                    rows.append({
                        "family": family,
                        "n": graph.num_nodes,
                        "protocol": protocol,
                        "workers": workers,
                        "partitioner": PARTITIONER,
                        "rounds": sharded.rounds,
                        "bits": summary["bits"],
                        "messages": summary["messages"],
                        "identical_results":
                            _fingerprint(sharded) == ref_print,
                        "edge_cut": shard["edge_cut"],
                        "cross_messages": shard["cross_messages"],
                        "cross_bits": shard["cross_bits"],
                        "max_shard_ledger_words": max(
                            e["ledger_words"] for e in shard["per_shard"]
                        ),
                        "total_ledger_words": sum(
                            e["ledger_words"] for e in shard["per_shard"]
                        ),
                        "event_seconds": round(event_seconds, 4),
                        "shard_seconds": round(shard_seconds, 4),
                        "shard_cpu_seconds": round(shard_cpu, 4),
                    })
    return rows


def measure_memory_split(n=MEMORY_N, workers=4):
    """Per-shard ledger words at large N — no event baseline (identity
    is gated at the matrix sizes; rerunning single-process at this N
    would only re-measure what the ceiling *was*)."""
    graph = path_graph(n)
    start = time.perf_counter()
    result = distributed_betweenness(
        graph,
        arithmetic="lfloat",
        options=RunOptions(
            engine="shard",
            workers=workers,
            partitioner=PARTITIONER,
        ),
    )
    elapsed = time.perf_counter() - start
    shard = result.stats.shard
    per_shard = [e["ledger_words"] for e in shard["per_shard"]]
    return {
        "family": "path",
        "n": n,
        "workers": workers,
        "partitioner": PARTITIONER,
        "rounds": result.rounds,
        "per_shard_ledger_words": per_shard,
        "max_shard_ledger_words": max(per_shard),
        "total_ledger_words": sum(per_shard),
        "max_shard_fraction": round(max(per_shard) / sum(per_shard), 4),
        "shard_seconds": round(elapsed, 2),
    }


def write_json(rows, memory=None, path=OUTPUT):
    payload = {
        "benchmark": "shard_runtime",
        "arithmetic": "lfloat",
        "partitioner": PARTITIONER,
        "cpu_count": os.cpu_count(),
        "timing_note": (
            "measured on a {}-core container: shard_seconds is honest "
            "wall time (multi-process cannot beat single-process on one "
            "core), shard_cpu_seconds the total CPU across all "
            "processes".format(os.cpu_count())
        ),
        "rows": rows,
        "summary": {
            "all_identical": all(r["identical_results"] for r in rows),
            "max_cross_bits_fraction": max(
                r["cross_bits"] / r["bits"] for r in rows
            ),
            "memory_split": memory,
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _print_rows(rows, title):
    print_table(
        ["family", "N", "protocol", "W", "cut", "cross bits",
         "event s", "shard s", "cpu s", "identical"],
        [
            [r["family"], r["n"], r["protocol"], r["workers"],
             r["edge_cut"], r["cross_bits"], r["event_seconds"],
             r["shard_seconds"], r["shard_cpu_seconds"],
             r["identical_results"]]
            for r in rows
        ],
        title=title,
    )


def test_shard_identity_and_traffic_split(benchmark):
    rows = once(benchmark, measure)
    memory = measure_memory_split()
    payload = write_json(rows, memory=memory)
    _print_rows(rows, "E16 shard runtime -> {}".format(OUTPUT.name))
    assert payload["summary"]["all_identical"]
    for row in rows:
        # Cross-shard traffic is a *view* of the billed totals: a strict
        # subset, never extra bits.
        assert 0 < row["cross_bits"] < row["bits"]
        assert 0 < row["cross_messages"] < row["messages"]
        # The ledger actually splits: no shard holds the whole thing.
        assert row["max_shard_ledger_words"] < row["total_ledger_words"]
    # The memory run demonstrates the ceiling lift: with 4 balanced
    # shards no process holds more than ~a third of the records.
    assert memory["max_shard_fraction"] < 0.35
