"""Chaos smoke gate: recovery and determinism across seeds and plans.

Replays a small matrix of fault plans — drop, delay, transient crash —
across several seeds on both engines, and fails unless

* every recoverable plan recovers the exact fault-free betweenness
  (equal to Brandes, since the arithmetic is exact),
* the recovery is deterministic: both engines agree on the recovered
  values, the round count and every fault counter,
* the unrecoverable plan (a permanent crash) terminates early with a
  completeness report naming the crashed node and a partial
  betweenness that matches a Brandes restricted to the surviving
  sources, on the sweep, event and 2-worker shard engines alike: same
  rounds, same stall round, same fault counters.

Usage::

    python scripts/chaos_smoke.py       # ~30 s on a 1-core container

This is the CI chaos job's entry point; the full differential suite
lives in ``tests/test_faults.py``.
"""

import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    CrashWindow,
    FaultPlan,
    RunOptions,
    distributed_betweenness,
)
from repro.graphs import connected_erdos_renyi_graph, figure1_graph  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
ENGINES = ("sweep", "event")
#: (engine, workers) for the unrecoverable plan.
PARTIAL_ENGINES = (("sweep", 1), ("event", 1), ("shard", 2))


def _plans(seed):
    return {
        "drop": FaultPlan(seed=seed, drop_rate=0.08),
        "delay": FaultPlan(seed=seed, delay_rate=0.15, max_delay=3),
        "crash-transient": FaultPlan(
            seed=seed, crashes=(CrashWindow(2, 10, 30),)
        ),
    }


def _brandes_subset(graph, sources):
    nodes = list(graph.nodes())
    acc = {v: Fraction(0) for v in nodes}
    for s in sources:
        dist = {s: 0}
        sigma = {v: Fraction(0) for v in nodes}
        sigma[s] = Fraction(1)
        order = []
        preds = {v: [] for v in nodes}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in graph.neighbors(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist.get(w) == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: Fraction(0) for v in nodes}
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
            if w != s:
                acc[w] += delta[w]
    return {v: value / 2 for v, value in acc.items()}


def _comparable(result):
    """Everything recovery determinism requires the engines to agree on."""
    counters = result.stats.faults.as_dict()
    return (
        sorted(result.betweenness_exact.items()),
        result.rounds,
        counters,
    )


def main() -> int:
    failures = []
    graph = connected_erdos_renyi_graph(12, 0.3, seed=9)
    reference = distributed_betweenness(graph, arithmetic="exact")
    checked = 0

    for seed in SEEDS:
        for name, plan in _plans(seed).items():
            outcomes = {}
            for engine in ENGINES:
                result = distributed_betweenness(
                    graph,
                    arithmetic="exact",
                    options=RunOptions(engine=engine),
                    faults=plan,
                    resilient=True,
                )
                outcomes[engine] = _comparable(result)
                checked += 1
                if not result.completeness.complete:
                    failures.append(
                        "seed {} plan {} engine {}: did not recover".format(
                            seed, name, engine
                        )
                    )
                elif (
                    result.betweenness_exact != reference.betweenness_exact
                ):
                    failures.append(
                        "seed {} plan {} engine {}: recovered values "
                        "differ from Brandes".format(seed, name, engine)
                    )
            if outcomes["sweep"] != outcomes["event"]:
                failures.append(
                    "seed {} plan {}: engines disagree on the recovered "
                    "run".format(seed, name)
                )

    # Unrecoverable plan: early termination + honest partial result,
    # identical on every engine.
    fig = figure1_graph()
    partial_runs = {}
    for engine, workers in PARTIAL_ENGINES:
        partial = distributed_betweenness(
            fig,
            arithmetic="exact",
            options=RunOptions(engine=engine, workers=workers),
            faults=FaultPlan(seed=1, crashes=(CrashWindow(3, 40, None),)),
            resilient=True,
        )
        report = partial.completeness
        checked += 1
        partial_runs[engine] = (
            partial.rounds,
            report.stalled_round,
            partial.stats.faults.as_dict(),
        )
        if report.complete or report.crashed_nodes != (3,):
            failures.append(
                "permanent crash on {}: completeness report "
                "wrong".format(engine)
            )
            continue
        subset = _brandes_subset(fig, report.complete_sources)
        if any(
            partial.betweenness_exact[v] != subset[v] for v in fig.nodes()
        ):
            failures.append(
                "permanent crash on {}: partial values diverge from the "
                "source-subset Brandes".format(engine)
            )
    reference = partial_runs.pop("sweep")
    for engine, outcome in partial_runs.items():
        if outcome != reference:
            failures.append(
                "permanent crash: {} disagrees with sweep on rounds, "
                "stall round or fault counters: {} vs {}".format(
                    engine, outcome, reference
                )
            )

    if failures:
        for line in failures:
            print("FAIL: " + line, file=sys.stderr)
        return 1
    print(
        "OK: {} chaos runs recovered exactly and deterministically; "
        "permanent crash degraded to an honest partial result".format(
            checked
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
