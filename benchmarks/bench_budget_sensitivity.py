"""E22 — how tight is the CONGEST constant?  Budget sensitivity ablation.

Lemma 3/5 say O(log N) bits per edge-round suffice; the O hides a
constant.  This bench binary-searches the *minimum* ``congest_factor``
(budget = factor × max(4, ⌈log₂N⌉) bits) at which the L-float protocol
completes without a violation, per graph family — the measured constant
of the paper's model compliance, and the headroom the default factor 32
leaves.
"""


from repro.analysis import print_table
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.exceptions import CongestViolationError
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid_graph,
    karate_club_graph,
    path_graph,
)

from .conftest import once

GRAPHS = [
    path_graph(24),
    cycle_graph(24),
    grid_graph(5, 5),
    complete_graph(12),
    karate_club_graph(),
]


def minimum_factor(graph, lo=1, hi=64):
    """Smallest congest_factor that completes without a violation."""
    def passes(factor):
        try:
            distributed_betweenness(
                graph,
                arithmetic="lfloat",
                options=RunOptions(congest_factor=factor),
            )
            return True
        except CongestViolationError:
            return False

    assert passes(hi)
    while lo < hi:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_minimum_budget_factors(benchmark):
    def sweep():
        rows = []
        for graph in GRAPHS:
            factor = minimum_factor(graph)
            run = distributed_betweenness(
                graph,
                arithmetic="lfloat",
                options=RunOptions(congest_factor=factor),
            )
            rows.append(
                (
                    graph.name,
                    graph.num_nodes,
                    factor,
                    run.stats.max_edge_bits_per_round,
                    32 / factor,
                )
            )
        return rows

    rows = once(benchmark, sweep)
    print_table(
        ["graph", "N", "min factor", "max bits/edge/round at min",
         "default headroom (x)"],
        rows,
        title="E22 minimal CONGEST budget (budget = factor * "
        "max(4, log2 N) bits)",
    )
    for _name, _n, factor, _bits, _headroom in rows:
        # the protocol genuinely needs only a modest constant...
        assert factor <= 20
        # ...and the default leaves real headroom
        assert factor < 32


def test_minimum_factor_stable_in_n(benchmark):
    """The minimal constant does not grow with N (it IS a constant)."""

    def sweep():
        return [(n, minimum_factor(cycle_graph(n))) for n in (16, 32, 64)]

    rows = once(benchmark, sweep)
    print_table(
        ["N (cycle)", "min factor"],
        rows,
        title="E22 the constant stays constant",
    )
    factors = [f for _, f in rows]
    assert max(factors) - min(factors) <= 3
