"""Synchronous CONGEST-model network simulator (Section III-A)."""

from repro.wire import (
    IntMessage,
    Message,
    PayloadMessage,
    TokenMessage,
    TYPE_TAG_BITS,
    WireFormat,
    int_bits,
)
from repro.congest.node import Inbox, NodeAlgorithm, NodeFactory, RoundContext
from repro.congest.simulator import (
    DEFAULT_CONGEST_FACTOR,
    Simulator,
    run_protocol,
)
from repro.congest.stats import CutTracker, SimulationStats
from repro.congest.primitives import (
    BfsTreeNode,
    BroadcastNode,
    ConvergecastMaxNode,
    ConvergecastNode,
    LeaderElectionNode,
    elect_root,
    make_bfs_tree_factory,
    make_broadcast_factory,
    make_convergecast_factory,
)
from repro.congest.trace import Delivery, FaultEvent, Tracer

__all__ = [
    "BfsTreeNode",
    "BroadcastNode",
    "ConvergecastNode",
    "make_broadcast_factory",
    "ConvergecastMaxNode",
    "LeaderElectionNode",
    "elect_root",
    "make_bfs_tree_factory",
    "make_convergecast_factory",
    "DEFAULT_CONGEST_FACTOR",
    "CutTracker",
    "Inbox",
    "IntMessage",
    "Message",
    "NodeAlgorithm",
    "NodeFactory",
    "PayloadMessage",
    "RoundContext",
    "SimulationStats",
    "Simulator",
    "TokenMessage",
    "Tracer",
    "Delivery",
    "FaultEvent",
    "TYPE_TAG_BITS",
    "WireFormat",
    "int_bits",
    "run_protocol",
]
