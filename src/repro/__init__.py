"""repro — reproduction of "Nearly Optimal Distributed Algorithm for
Computing Betweenness Centrality" (Hua et al., ICDCS 2016).

The package provides:

* :func:`repro.distributed_betweenness` — the paper's O(N)-round
  CONGEST-model algorithm, run on a synchronous network simulator with
  per-edge bandwidth enforcement.
* :func:`repro.brandes_betweenness` — the centralized Brandes baseline
  (Algorithm 1) with exact-rational and float arithmetic.
* ``repro.graphs`` — graph types, generators and properties.
* ``repro.arithmetic`` — the Section VI L-bit floating point format
  with machine-checked error bounds.
* ``repro.congest`` — the CONGEST simulator itself, reusable for other
  distributed protocols.
* ``repro.lowerbound`` — the Section IX lower-bound gadgets (Figures 2
  and 3) and cut-traffic analysis.

Quickstart::

    from repro import distributed_betweenness, brandes_betweenness
    from repro.graphs import karate_club_graph

    graph = karate_club_graph()
    result = distributed_betweenness(graph)        # L-float arithmetic
    reference = brandes_betweenness(graph)         # centralized Brandes
    print(result.betweenness[0], reference[0])
    print("rounds:", result.rounds, "diameter:", result.diameter)
"""

from repro.arithmetic import (
    ExactContext,
    LFloat,
    LFloatArithmetic,
    Rounding,
    recommended_precision,
)
from repro.centrality import (
    brandes_betweenness,
    weighted_brandes_betweenness,
    closeness_centrality,
    graph_centrality,
    naive_betweenness,
    sampled_betweenness,
    stress_centrality,
)
from repro.congest import RunOptions, Simulator, run_protocol
from repro.core import (
    CompletenessReport,
    DistributedAPSPResult,
    DistributedBCResult,
    ProtocolConfig,
    distributed_apsp,
    distributed_betweenness,
    distributed_closeness,
    distributed_graph_centrality,
    distributed_sampled_betweenness,
    distributed_stress,
    distributed_weighted_betweenness,
)
from repro.exceptions import (
    CheckpointError,
    CongestViolationError,
    FrameChecksumError,
    GraphNotConnectedError,
    LFloatRangeError,
    ProtocolError,
    ReproError,
    SimulationNotTerminatedError,
    SimulationStalledError,
)
from repro.faults import (
    CrashWindow,
    FaultPlan,
    LinkOutage,
    SlowWorker,
    WorkerHang,
)
from repro.graphs import Graph, GraphBuilder, WeightedGraph

__version__ = "1.0.0"

__all__ = [
    "CheckpointError",
    "CompletenessReport",
    "CongestViolationError",
    "CrashWindow",
    "DistributedAPSPResult",
    "DistributedBCResult",
    "ExactContext",
    "FaultPlan",
    "FrameChecksumError",
    "Graph",
    "GraphBuilder",
    "GraphNotConnectedError",
    "LinkOutage",
    "ProtocolConfig",
    "SimulationNotTerminatedError",
    "SimulationStalledError",
    "SlowWorker",
    "WeightedGraph",
    "WorkerHang",
    "LFloat",
    "LFloatArithmetic",
    "LFloatRangeError",
    "ProtocolError",
    "ReproError",
    "Rounding",
    "RunOptions",
    "Simulator",
    "__version__",
    "brandes_betweenness",
    "closeness_centrality",
    "distributed_apsp",
    "distributed_betweenness",
    "distributed_closeness",
    "distributed_graph_centrality",
    "distributed_sampled_betweenness",
    "distributed_stress",
    "distributed_weighted_betweenness",
    "graph_centrality",
    "naive_betweenness",
    "recommended_precision",
    "run_protocol",
    "sampled_betweenness",
    "stress_centrality",
    "weighted_brandes_betweenness",
]
