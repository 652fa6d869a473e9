"""Node-set partitioners for the sharded runtime.

Two METIS-free strategies, both deterministic:

* ``"block"`` — contiguous id ranges of near-equal size.  Trivial,
  cache-friendly, and already near-optimal on path/cycle-like graphs
  whose node ids follow the topology.
* ``"greedy"`` — greedy graph growing: each shard is seeded with the
  lowest unassigned id and grown by repeatedly absorbing the unassigned
  vertex with the most neighbors already inside the shard (ties to the
  lowest id), up to the same balanced capacity the block partitioner
  uses.  This keeps shards connected where possible and never does
  worse than block on graphs whose ids already trace the topology
  (cycle, grid), while cutting far fewer edges on graphs whose id order
  scatters neighbors.

Shard 0 is special in the runtime (it runs inside the coordinator
process so the protocol root's telemetry hooks stay in-process), so
:func:`partition_nodes` relabels shards to put ``root`` in shard 0.

Partitions are *total disjoint covers*: every node appears in exactly
one shard, every shard is non-empty (for ``workers <= N``), and node
ids inside each shard are sorted ascending — the order the runtime
steps them.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.congest.options import PARTITIONERS
from repro.graphs.graph import Graph


def _capacities(n: int, workers: int) -> List[int]:
    """Balanced shard sizes: ``n // workers`` plus one for the remainder."""
    base, extra = divmod(n, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def _block(n: int, workers: int) -> List[List[int]]:
    shards: List[List[int]] = []
    start = 0
    for size in _capacities(n, workers):
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def _greedy(graph: Graph, workers: int) -> List[List[int]]:
    n = graph.num_nodes
    assigned = bytearray(n)
    shards: List[List[int]] = []
    unassigned_count = n
    for size in _capacities(n, workers):
        members: List[int] = []
        # gain[v] = neighbors of v already inside the growing shard.
        gain = [0] * n
        frontier: set = set()
        while len(members) < size:
            pick = -1
            if frontier:
                best = -1
                for v in sorted(frontier):
                    if gain[v] > best:
                        best = gain[v]
                        pick = v
            if pick < 0:
                # Seed (or reseed a disconnected component): lowest
                # unassigned id.
                for v in range(n):
                    if not assigned[v]:
                        pick = v
                        break
            assigned[pick] = 1
            frontier.discard(pick)
            members.append(pick)
            unassigned_count -= 1
            for u in graph.neighbors(pick):
                if not assigned[u]:
                    gain[u] += 1
                    frontier.add(u)
        members.sort()
        shards.append(members)
    assert unassigned_count == 0
    return shards


def partition_nodes(
    graph: Graph, workers: int, kind: str, root: int = 0
) -> Tuple[List[int], List[List[int]]]:
    """Partition the graph's nodes into ``workers`` shards.

    Returns ``(assignment, shards)`` where ``assignment[v]`` is the
    shard index of node ``v`` and ``shards[i]`` is the sorted id list
    of shard ``i``.  The shard containing ``root`` is relabeled to
    index 0 (the in-coordinator shard).  ``workers`` is clamped to the
    node count so every shard is non-empty.
    """
    if kind not in PARTITIONERS:
        raise ValueError(
            "unknown partitioner {!r} (expected one of {})".format(
                kind, PARTITIONERS
            )
        )
    n = graph.num_nodes
    if workers < 1:
        raise ValueError("workers must be >= 1, got {}".format(workers))
    workers = min(workers, n) if n else 1
    if kind == "block":
        shards = _block(n, workers)
    else:
        shards = _greedy(graph, workers)
    assignment = [0] * n
    for index, members in enumerate(shards):
        for v in members:
            assignment[v] = index
    if n and graph.has_node(root) and assignment[root] != 0:
        other = assignment[root]
        shards[0], shards[other] = shards[other], shards[0]
        for v in shards[0]:
            assignment[v] = 0
        for v in shards[other]:
            assignment[v] = other
    return assignment, shards


def edge_cut(graph: Graph, assignment: Sequence[int]) -> int:
    """Number of undirected edges whose endpoints live in different shards."""
    crossing = 0
    for v in graph.nodes():
        shard = assignment[v]
        for u in graph.neighbors(v):
            if u > v and assignment[u] != shard:
                crossing += 1
    return crossing
