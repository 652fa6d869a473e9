"""E16 — fault-layer cost: disabled overhead and recovery round-tax.

Two questions, one per measurement:

1. **Disabled overhead.**  The fault layer is threaded through the
   simulator as ``faults=None`` with an identity-check fast path (the
   same pattern as ``telemetry=``).  Passing ``faults=None`` must cost
   nothing measurable: this benchmark times the event engine with and
   without the keyword spelled out and asserts the runs are
   bit-identical; the timing ratio is reported (and asserted only
   loosely — wall-clock noise on a shared 1-core container dwarfs an
   identity check).

2. **Recovery round-tax vs drop rate.**  Under the resilient transport
   every lost frame costs retransmission round-trips; the round
   overhead (faulted rounds / fault-free resilient rounds) grows with
   the drop rate.  The benchmark sweeps drop ∈ {0, 2%, 5%, 10%} on a
   fixed graph, verifies every recovered run still matches the
   fault-free betweenness exactly, and records the trajectory.

Results go to ``BENCH_faults.json`` at the repo root;
``scripts/bench_smoke.py`` runs a reduced version as a CI gate.
"""

import json
import time
from pathlib import Path

from repro.analysis import print_table
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.faults import FaultPlan
from repro.graphs import connected_erdos_renyi_graph, cycle_graph

from .conftest import once

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_faults.json"
DROP_RATES = (0.0, 0.02, 0.05, 0.10)
REPS = 3


def _fingerprint(result):
    summary = result.stats.summary()
    summary.pop("faults", None)
    return (
        sorted(result.betweenness.items()),
        result.rounds,
        summary,
        result.stats.round_series,
    )


def measure_disabled_overhead(n=150, reps=REPS):
    """Time ``faults=None`` against the bare call; require identity."""
    graph = cycle_graph(n)
    best = {"bare": float("inf"), "faults_none": float("inf")}
    outputs = {}
    for _ in range(max(1, reps)):
        for variant in ("bare", "faults_none"):
            kwargs = {} if variant == "bare" else {"faults": None}
            start = time.perf_counter()
            result = distributed_betweenness(
                graph,
                arithmetic="lfloat",
                options=RunOptions(engine="event"),
                **kwargs,
            )
            elapsed = time.perf_counter() - start
            best[variant] = min(best[variant], elapsed)
            outputs[variant] = _fingerprint(result)
    return {
        "graph": graph.name,
        "n": n,
        "bare_seconds": round(best["bare"], 4),
        "faults_none_seconds": round(best["faults_none"], 4),
        "overhead_ratio": round(best["faults_none"] / best["bare"], 3),
        "identical_results": outputs["bare"] == outputs["faults_none"],
    }


def measure_recovery_overhead(drop_rates=DROP_RATES, seed=7):
    """Round overhead of exact recovery as a function of the drop rate."""
    graph = connected_erdos_renyi_graph(16, 0.25, seed=2)
    reference = distributed_betweenness(
        graph,
        arithmetic="exact",
        options=RunOptions(engine="event"),
        resilient=True,
    )
    rows = []
    for rate in drop_rates:
        plan = FaultPlan(seed=seed, drop_rate=rate)
        start = time.perf_counter()
        result = distributed_betweenness(
            graph,
            arithmetic="exact",
            options=RunOptions(engine="event"),
            faults=plan,
            resilient=True,
        )
        elapsed = time.perf_counter() - start
        fault_numbers = result.stats.faults.as_dict()
        rows.append(
            {
                "drop_rate": rate,
                "rounds": result.rounds,
                "round_overhead": round(
                    result.rounds / reference.rounds, 3
                ),
                "dropped": fault_numbers["dropped"],
                "recovered_exactly": (
                    result.betweenness_exact == reference.betweenness_exact
                ),
                "complete": result.completeness.complete,
                "seconds": round(elapsed, 4),
            }
        )
    return {"graph": graph.name, "baseline_rounds": reference.rounds, "rows": rows}


def write_json(disabled, recovery, path=OUTPUT):
    """Write the payload as flat ``rows``, one per gated measurement.

    The ``gate`` column tells the disabled-layer row from the recovery
    rows (one per drop rate); each recovery row carries its graph and
    fault-free baseline round count.
    """
    rows = [{"gate": "disabled", **disabled}]
    rows += [
        {
            "gate": "recovery",
            "graph": recovery["graph"],
            "baseline_rounds": recovery["baseline_rounds"],
            **row,
        }
        for row in recovery["rows"]
    ]
    payload = {
        "benchmark": "fault_layer",
        "rows": rows,
        "summary": {
            "disabled_identical": disabled["identical_results"],
            "all_recovered_exactly": all(
                row["recovered_exactly"] for row in recovery["rows"]
            ),
            "max_round_overhead": max(
                row["round_overhead"] for row in recovery["rows"]
            ),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def print_report(disabled, recovery):
    print_table(
        ["variant", "seconds"],
        [
            ["bare call", disabled["bare_seconds"]],
            ["faults=None", disabled["faults_none_seconds"]],
            ["ratio", disabled["overhead_ratio"]],
            ["identical", disabled["identical_results"]],
        ],
        title="Disabled fault layer on {} (event engine)".format(
            disabled["graph"]
        ),
    )
    print()
    print_table(
        ["drop rate", "rounds", "overhead", "dropped", "exact", "seconds"],
        [
            [
                row["drop_rate"],
                row["rounds"],
                row["round_overhead"],
                row["dropped"],
                row["recovered_exactly"],
                row["seconds"],
            ]
            for row in recovery["rows"]
        ],
        title="Recovery round-tax on {} (baseline {} rounds)".format(
            recovery["graph"], recovery["baseline_rounds"]
        ),
    )


def test_disabled_overhead_and_recovery_tax(benchmark):
    disabled = once(benchmark, measure_disabled_overhead)
    recovery = measure_recovery_overhead()
    write_json(disabled, recovery)
    print()
    print_report(disabled, recovery)
    # Hard gates: identity of the disabled path and exactness of every
    # recovered run.  Timing assertions stay deliberately loose (4x) —
    # the identity check is nanoseconds, the noise floor is not.
    assert disabled["identical_results"]
    assert disabled["overhead_ratio"] < 4.0
    assert all(row["recovered_exactly"] for row in recovery["rows"])
    # More drops can only mean more retransmission round-trips.
    rounds = [row["rounds"] for row in recovery["rows"]]
    assert rounds[-1] >= rounds[0]


if __name__ == "__main__":
    disabled = measure_disabled_overhead()
    recovery = measure_recovery_overhead()
    write_json(disabled, recovery)
    print_report(disabled, recovery)
