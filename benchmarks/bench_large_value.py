"""E11 — Section V: the "Large Value Challenge" made observable.

On a diamond chain sigma doubles per diamond; exact arithmetic must
push Θ(N)-bit integers through O(log N)-bit edges and trips the strict
CONGEST budget, while the Section VI floats sail through the very same
budget and still produce accurate values.
"""


from repro.analysis import print_table
from repro.centrality import brandes_betweenness
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.exceptions import CongestViolationError
from repro.graphs import diamond_chain_graph, max_shortest_path_count

from .conftest import once

CHAIN = diamond_chain_graph(60)
FACTOR = 12


def run_exact_until_violation():
    try:
        distributed_betweenness(
            CHAIN,
            arithmetic="exact",
            options=RunOptions(congest_factor=FACTOR),
        )
    except CongestViolationError as err:
        return err
    return None


def test_exact_arithmetic_trips_strict_congest(benchmark):
    err = once(benchmark, run_exact_until_violation)
    assert err is not None
    print_table(
        ["metric", "value"],
        [
            ["graph", CHAIN.name],
            ["N", CHAIN.num_nodes],
            ["max sigma", str(max_shortest_path_count(CHAIN))],
            ["strict budget (bits/edge/round)", err.bits_allowed],
            ["offending load (bits)", err.bits_used],
            ["violation round", err.round_number],
        ],
        title="E11 exact path counts overflow CONGEST",
    )
    assert err.bits_used > err.bits_allowed


def test_lfloat_same_budget_same_graph(benchmark):
    from repro.arithmetic import recommended_precision, theorem1_bound

    result = once(
        benchmark,
        distributed_betweenness,
        CHAIN,
        arithmetic="lfloat-8",
        options=RunOptions(congest_factor=FACTOR),
    )
    reference = brandes_betweenness(CHAIN, exact=True)

    def worst_error(run):
        return max(
            abs(run.betweenness[v] / float(reference[v]) - 1.0)
            for v in CHAIN.nodes()
            if reference[v]
        )

    worst_tiny_l = worst_error(result)
    # With L = 8 the error envelope is loose (eta*N is large); the point
    # of this run is that the *bits* fit.  The automatic L = 3 log2 N
    # gets both: CONGEST-legal bits and polynomially small error.
    auto = distributed_betweenness(CHAIN, arithmetic="lfloat")
    worst_auto = worst_error(auto)
    print_table(
        ["arithmetic", "max bits/edge/round", "strict budget", "rounds",
         "worst rel error", "Theorem 1 envelope"],
        [
            [
                result.arithmetic,
                result.stats.max_edge_bits_per_round,
                FACTOR * 8,
                result.rounds,
                worst_tiny_l,
                theorem1_bound(8, CHAIN.num_nodes, 120),
            ],
            [
                auto.arithmetic,
                auto.stats.max_edge_bits_per_round,
                "32*log2N (default)",
                auto.rounds,
                worst_auto,
                theorem1_bound(
                    recommended_precision(CHAIN.num_nodes),
                    CHAIN.num_nodes,
                    120,
                ),
            ],
        ],
        title="E11 L-floats fit the budget exact integers overflowed",
    )
    assert result.stats.max_edge_bits_per_round <= FACTOR * 8
    assert worst_tiny_l <= theorem1_bound(8, CHAIN.num_nodes, 120)
    assert worst_auto < 1e-4
