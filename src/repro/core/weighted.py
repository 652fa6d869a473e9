"""Distributed weighted betweenness via virtual-node subdivision.

The paper's conclusion: "for weighted graphs, there are no efficient
distributed algorithms for computing betweenness centralities.  But the
idea in [16] which adds virtual nodes in the weighted edges might also
work".  This module realizes that idea:

1. subdivide each weight-w edge into w unit edges
   (:func:`repro.graphs.weighted.subdivide`);
2. run the unweighted protocol on the subdivision with the virtual
   nodes excluded from both the **source set** (they root no BFS — only
   real-source dependencies exist in the weighted problem) and the
   **target set** (they contribute no ``1/sigma`` unit term — a pair
   with a virtual endpoint is not a pair of the weighted graph);
3. read the betweenness of the real nodes directly off the run.

Correctness: the subdivision preserves distances, path counts, and
real-node path membership between real pairs, so the masked recursion
computes exactly ``sum over real s != t != v of sigma_st(v)/sigma_st``
— the weighted CB.  The round cost is O(N') where N' = N + sum(w - 1),
the price the conclusion anticipates for the virtual-node trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from repro.congest.options import RunOptions
from repro.congest.stats import SimulationStats
from repro.core.config import ProtocolConfig
from repro.core.pipeline import ModeSpec, distributed_betweenness
from repro.exceptions import GraphNotConnectedError
from repro.graphs.weighted import (
    Subdivision,
    WeightedGraph,
    is_weighted_connected,
    subdivide,
)


@dataclass
class WeightedBCResult:
    """Output of :func:`distributed_weighted_betweenness`."""

    weighted_graph: WeightedGraph
    subdivision: Subdivision
    #: real node -> weighted CB (floats; exact rationals in
    #: ``betweenness_exact`` under exact arithmetic).
    betweenness: Dict[int, float]
    betweenness_exact: Optional[Dict[int, Fraction]]
    #: weighted diameter, as discovered by the protocol on the
    #: subdivision (= max weighted distance between real nodes is
    #: bounded by this; equals the weighted diameter when the deepest
    #: point of every chain is shallower — for unit accuracy compare
    #: with graphs.weighted.weighted_diameter).
    subdivision_diameter: int
    rounds: int
    stats: SimulationStats
    arithmetic: str


def distributed_weighted_betweenness(
    graph: WeightedGraph,
    arithmetic: ModeSpec = "exact",
    root: int = 0,
    options: RunOptions = RunOptions(),
    telemetry=None,
) -> WeightedBCResult:
    """Betweenness of every node of a weighted graph, distributively.

    Parameters mirror :func:`repro.core.distributed_betweenness`; the
    graph must be connected and carry positive integer weights.
    ``telemetry`` observes the run on the *subdivision* (virtual nodes
    included), and its ``finalize_run`` sees the inner unweighted
    result.

    Examples
    --------
    >>> from repro.graphs.weighted import WeightedGraph
    >>> wg = WeightedGraph(3, [(0, 1, 2), (1, 2, 1), (0, 2, 5)])
    >>> result = distributed_weighted_betweenness(wg)
    >>> result.betweenness_exact[1]
    Fraction(1, 1)
    """
    if not is_weighted_connected(graph):
        raise GraphNotConnectedError(
            "weighted graph {!r} is not connected".format(graph.name)
        )
    subdivision = subdivide(graph)
    config = ProtocolConfig(
        sources=subdivision.real_nodes,
        targets=subdivision.real_nodes,
    )
    run = distributed_betweenness(
        subdivision.graph,
        arithmetic=arithmetic,
        root=root,
        options=options,
        config=config,
        telemetry=telemetry,
    )
    real = sorted(subdivision.real_nodes)
    betweenness = {v: run.betweenness[v] for v in real}
    exact = None
    if run.betweenness_exact is not None:
        exact = {v: run.betweenness_exact[v] for v in real}
    return WeightedBCResult(
        weighted_graph=graph,
        subdivision=subdivision,
        betweenness=betweenness,
        betweenness_exact=exact,
        subdivision_diameter=run.diameter,
        rounds=run.rounds,
        stats=run.stats,
        arithmetic=run.arithmetic,
    )
