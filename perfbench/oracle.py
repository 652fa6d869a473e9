"""Correctness oracle: the exact Brandes reference and the per-run checks.

The reference is ``brandes_betweenness(exact=True)`` on the generated
graph.  It is computed once per input, outside timing, and cached under a
key derived from the graph file's bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

#: fields that must repeat bit for bit across runs of one input
EXACT_FIELDS = ("rounds", "bits", "messages", "max_edge_bits", "betweenness")


def reference(graph_path: Path, cache_dir: Path) -> List[Fraction]:
    """Exact betweenness of every node of the graph in ``graph_path``."""
    data = Path(graph_path).read_bytes()
    cache = Path(cache_dir) / "brandes-{}.json".format(
        hashlib.sha256(data).hexdigest()[:32]
    )
    if cache.is_file():
        return [Fraction(text) for text in json.loads(cache.read_text())]
    from repro.centrality import brandes_betweenness
    from repro.graphs import read_edge_list

    graph = read_edge_list(graph_path)
    exact = brandes_betweenness(graph, exact=True)
    values = [Fraction(exact[v]) for v in range(graph.num_nodes)]
    cache.parent.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    tmp.write_text(json.dumps([str(v) for v in values]))
    tmp.replace(cache)
    return values


def max_relative_error(measured: List[float], exact: List[Fraction]) -> float:
    worst = 0.0
    for got, want in zip(measured, exact):
        if want == 0:
            err = 0.0 if got == 0 else math.inf
        else:
            err = abs(got / float(want) - 1.0)
        worst = max(worst, err)
    return worst


def bc_err_ratio(record: Dict, exact: List[Fraction]) -> float:
    """Max relative error against Brandes over the Theorem 1 bound."""
    from repro.arithmetic.errors import theorem1_bound

    if len(record["betweenness"]) != len(exact):
        return math.inf
    bound = theorem1_bound(record["precision"], record["nodes"], record["diameter"])
    return max_relative_error(record["betweenness"], exact) / bound


def run_failures(
    record: Optional[Dict],
    engine: str,
    exact: List[Fraction],
    first: Optional[Dict] = None,
) -> List[str]:
    """Why one run counts as failed (empty when it passed).

    ``record`` is the driver's output (None when it wrote none), ``engine``
    the workload's declared engine and ``first`` an earlier passing record
    of the same input, whose exact fields this run must repeat.
    """
    if record is None:
        return ["no result record"]
    reasons = []
    if record.get("timed_out"):
        reasons.append("timed out")
    if record.get("exit_code") != 0:
        reasons.append("exit code {}".format(record.get("exit_code")))
    if "betweenness" not in record:
        return reasons or ["no result captured"]
    if record["engine"] != engine:
        reasons.append(
            "engine {} ran, workload declares {} ({})".format(
                record["engine"], engine, record.get("engine_reason")
            )
        )
    if not record["complete"]:
        reasons.append("incomplete result")
    if record["precision"] is None:
        reasons.append("not an L-float run")
    elif bc_err_ratio(record, exact) > 1.0:
        reasons.append("betweenness outside the Theorem 1 bound")
    if record["strict"] and record["max_edge_bits"] > record["bit_budget"]:
        reasons.append("edge load over the CONGEST budget")
    if first is not None:
        for field in EXACT_FIELDS:
            if record[field] != first[field]:
                reasons.append("{} differs between runs".format(field))
    return reasons
