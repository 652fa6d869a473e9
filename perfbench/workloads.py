"""Benchmark workloads and their seeded input generator.

Each workload is one ``repro`` CLI invocation shape.  The generator turns
``(workload, seed)`` into the only things the program receives: an
edge-list file, the root u0 and, for chaos, the fault seed.  It owns its
graph generators (the program's own generators are never called), so a
change to ``src/`` cannot change the inputs the benchmark feeds it.

Determinism rule: the same ``(workload, seed)`` writes byte-identical
files; a different seed writes different files.  Workloads that share a
graph family (the two grid workloads) share inputs for the same seed, so
their figures compare run for run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    #: graph family key; workloads of one family share inputs per seed.
    family: str
    #: ``repro`` subcommand.
    command: str
    protocol: str
    #: the engine the run must resolve to (checked on every run).
    engine: str
    #: extra CLI flags after the common ones.
    flags: Tuple[str, ...]
    why: str
    #: run every process of a run on one CPU (see ``run.spawn``)
    one_cpu: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bulk-ba", "ba", "bc", "hua-bc", "bulk",
            ("--engine", "auto"),
            "default auto->bulk path on a scale-free BA graph just under "
            "the N=1024 dispatch edge: numpy bulk engine and lfmath",
        ),
        Workload(
            "event-cfp-grid", "grid", "bc", "cfp-bc", "event",
            ("--engine", "auto"),
            "cfp-bc is not bulk-capable, so auto->event: the scalar round "
            "loop alone on a high-diameter grid",
        ),
        Workload(
            "shard-ckpt-grid", "grid", "bc", "hua-bc", "shard",
            ("--engine", "shard", "--workers", "2", "--partitioner",
             "greedy", "--checkpoint-every", "250"),
            "same grid on 2 shard workers with checkpoints: shard "
            "exchange, barrier waits and checkpoint writes",
            one_cpu=True,
        ),
        Workload(
            "chaos-lossy-ws", "ws", "chaos", "hua-bc", "event",
            ("--engine", "auto", "--drop", "0.02", "--dup", "0.01",
             "--delay-rate", "0.02", "--max-delay", "3"),
            "repro chaos with drops, dups and delays under the resilient "
            "transport: fault injector and per-message delivery",
        ),
    )
}

BA_N, BA_M = 1000, 3
GRID_ROWS = GRID_COLS = 12
WS_N, WS_K, WS_BETA = 40, 4, 0.1


def _canonical(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def barabasi_albert(n: int, m: int, rng: random.Random) -> List[Edge]:
    """Preferential attachment from a star on m + 1 nodes."""
    edges = [(0, i) for i in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for new in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in sorted(targets):
            edges.append(_canonical(new, t))
            repeated.extend((t, new))
    return sorted(edges)


def grid(rows: int, cols: int, rng: random.Random) -> List[Edge]:
    """A rows x cols grid whose node ids are a seeded permutation."""
    label = list(range(rows * cols))
    rng.shuffle(label)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append(_canonical(label[v], label[v + 1]))
            if r + 1 < rows:
                edges.append(_canonical(label[v], label[v + cols]))
    return sorted(edges)


def watts_strogatz(n: int, k: int, beta: float, rng: random.Random) -> List[Edge]:
    """Ring lattice with each clockwise edge rewired with probability beta."""
    lattice = sorted(
        {_canonical(v, (v + j) % n) for v in range(n) for j in range(1, k // 2 + 1)}
    )
    result = set(lattice)
    for u, v in lattice:
        if rng.random() < beta:
            candidates = [
                w for w in range(n)
                if w != u and _canonical(u, w) not in result
            ]
            if candidates:
                result.discard((u, v))
                result.add(_canonical(u, rng.choice(candidates)))
    return sorted(result)


def _connected(n: int, edges: List[Edge]) -> bool:
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


def make_inputs(workload: str, seed: int) -> Tuple[str, Dict[str, int]]:
    """The edge-list text and the scalar inputs for one (workload, seed)."""
    spec = WORKLOADS[workload]
    rng = random.Random("{}/{}".format(spec.family, seed))
    if spec.family == "ba":
        n, name = BA_N, "ba-{}-m{}".format(BA_N, BA_M)
        edges = barabasi_albert(BA_N, BA_M, rng)
    elif spec.family == "grid":
        n, name = GRID_ROWS * GRID_COLS, "grid-{}x{}".format(GRID_ROWS, GRID_COLS)
        edges = grid(GRID_ROWS, GRID_COLS, rng)
    else:
        n, name = WS_N, "ws-{}-k{}-b{}".format(WS_N, WS_K, WS_BETA)
        # Rewiring can disconnect the ring; redraw until connected (the
        # draw sequence is still a pure function of the seed).
        while True:
            edges = watts_strogatz(WS_N, WS_K, WS_BETA, rng)
            if _connected(n, edges):
                break
    params = {"nodes": n, "root": rng.randrange(n)}
    if spec.command == "chaos":
        params["fault_seed"] = rng.randrange(1 << 31)
    lines = ["# name: {}".format(name), "# nodes: {}".format(n)]
    lines += ["{} {}".format(u, v) for u, v in edges]
    return "\n".join(lines) + "\n", params


def write_inputs(workload: str, seed: int, directory: Path) -> Dict[str, object]:
    """Write ``graph.txt`` and ``input.json`` into ``directory``."""
    text, params = make_inputs(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "graph.txt").write_text(text, encoding="utf-8")
    (directory / "input.json").write_text(
        json.dumps(params, sort_keys=True) + "\n", encoding="utf-8"
    )
    return dict(params, graph=str(directory / "graph.txt"))


def cli_argv(workload: str, inputs: Dict[str, object], checkpoint_dir: str = None) -> List[str]:
    """The ``repro`` argv for one run of ``workload`` on ``inputs``."""
    spec = WORKLOADS[workload]
    argv = [
        spec.command, "--file", str(inputs["graph"]),
        "--root", str(inputs["root"]),
        "--protocol", spec.protocol, "--arithmetic", "lfloat",
    ]
    argv += list(spec.flags)
    if spec.command == "chaos":
        argv += ["--seed", str(inputs["fault_seed"])]
    if "--checkpoint-every" in spec.flags:
        if checkpoint_dir is None:
            raise ValueError("{} needs a checkpoint directory".format(workload))
        argv += ["--checkpoint-dir", checkpoint_dir]
    return argv
