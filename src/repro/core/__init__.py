"""The paper's contribution: the O(N)-round distributed BC algorithm."""

from repro.core.aggregation import AggregationPhase
from repro.core.config import UNIT_BETWEENNESS, UNIT_STRESS, ProtocolConfig
from repro.core.counting import CountingPhase
from repro.wire import (
    AggStart,
    AggValue,
    Announce,
    BfsWave,
    DfsToken,
    DoneReport,
    SubtreeCount,
    TreeJoin,
    TreeWave,
)
from repro.core.node import BetweennessNode, make_node_factory
from repro.core.pipeline import (
    CompletenessReport,
    DistributedAPSPResult,
    DistributedBCResult,
    DistributedStressResult,
    SampledBCResult,
    distributed_apsp,
    distributed_betweenness,
    distributed_closeness,
    distributed_graph_centrality,
    distributed_sampled_betweenness,
    distributed_stress,
)
from repro.core.weighted import (
    WeightedBCResult,
    distributed_weighted_betweenness,
)
from repro.core.records import NodeLedger, SourceRecord
from repro.core.roundmodel import RoundModel, predict_rounds, rounds_upper_bound
from repro.core.schedule import (
    PhaseSchedule,
    bfs_start_times,
    bfs_tree_children,
    count_collisions,
    dfs_preorder,
    expected_phase_schedule,
    figure1_tables,
    naive_start_times,
    sending_times,
    tree_walk_lengths,
    verify_separation,
)
from repro.core.tree import TreePhase

__all__ = [
    "AggStart",
    "AggValue",
    "AggregationPhase",
    "Announce",
    "BetweennessNode",
    "BfsWave",
    "CompletenessReport",
    "CountingPhase",
    "DfsToken",
    "DistributedAPSPResult",
    "DistributedBCResult",
    "DistributedStressResult",
    "PhaseSchedule",
    "ProtocolConfig",
    "SampledBCResult",
    "UNIT_BETWEENNESS",
    "UNIT_STRESS",
    "WeightedBCResult",
    "DoneReport",
    "NodeLedger",
    "RoundModel",
    "predict_rounds",
    "rounds_upper_bound",
    "SourceRecord",
    "SubtreeCount",
    "TreeJoin",
    "TreePhase",
    "TreeWave",
    "bfs_start_times",
    "bfs_tree_children",
    "count_collisions",
    "dfs_preorder",
    "distributed_apsp",
    "distributed_betweenness",
    "distributed_closeness",
    "distributed_graph_centrality",
    "distributed_sampled_betweenness",
    "distributed_stress",
    "distributed_weighted_betweenness",
    "expected_phase_schedule",
    "figure1_tables",
    "make_node_factory",
    "naive_start_times",
    "sending_times",
    "tree_walk_lengths",
    "verify_separation",
]
