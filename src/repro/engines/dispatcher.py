"""Capability-probing backend dispatcher for ``engine="auto"``.

The dispatcher answers one question: *which engine should run this
simulation?*  Engines are ordered fastest-first in
:data:`ENGINE_PREFERENCE`; each has a capability probe, and ``"auto"``
resolves to the first engine whose probe passes.

* ``bulk`` — the vectorized structure-of-arrays engine.  Requires numpy
  and a run inside its protocol envelope: every node is the stock
  :class:`~repro.core.node.BetweennessNode`, the arithmetic is an
  L-float context with ``L <= 30`` (so batched mantissa products fit in
  int64 lanes), no fault injection, and at least two nodes.
* ``event`` — pure Python, active-set scheduling; runs any protocol
  honoring the wake contract.  The fallback when bulk is not capable.
* ``sweep`` — pure Python, lockstep reference; runs anything.  Kept
  last in the chain for completeness (``event`` never refuses a run,
  so auto-resolution stops there in practice).

Explicitly requesting ``engine="bulk"`` for a run outside the envelope
raises :class:`~repro.exceptions.EngineCapabilityError`; ``"auto"``
logs a one-line note (logger ``repro.engines``) and falls back.

The numpy probe result is cached process-wide; tests that fake numpy's
absence (e.g. ``monkeypatch.setitem(sys.modules, "numpy", None)``) must
call :func:`reset_probe` around the patch.
"""

from __future__ import annotations

import importlib
import logging
from typing import NamedTuple, Optional, Tuple

from repro.exceptions import EngineCapabilityError

logger = logging.getLogger("repro.engines")


class EngineDecision(NamedTuple):
    """Why the dispatcher picked ``resolved`` for a ``requested`` engine.

    ``reason`` is human-readable: the bulk probe's first failed check
    when the run fell back, or a short confirmation when bulk was
    chosen.  Threaded into telemetry meta rows and ``repro report`` so
    history records explain the choice.
    """

    requested: str
    resolved: str
    reason: str

    def as_dict(self):
        return {
            "engine_requested": self.requested,
            "engine": self.resolved,
            "engine_reason": self.reason,
        }

#: Auto-resolution order, fastest first.
ENGINE_PREFERENCE = ("bulk", "event", "sweep")

#: Largest L-float precision the int64 kernels support: mantissa
#: products need 2L bits and sticky-capped additions 2L + 2, so L = 30
#: keeps every intermediate below 2**62.
MAX_BULK_PRECISION = 30

_numpy_probe: Optional[bool] = None


def numpy_available() -> bool:
    """True if numpy can be imported (result cached process-wide)."""
    global _numpy_probe
    if _numpy_probe is None:
        try:
            importlib.import_module("numpy")
        except ImportError:
            _numpy_probe = False
        else:
            _numpy_probe = True
    return _numpy_probe


def reset_probe() -> None:
    """Forget the cached numpy probe (for tests that fake its absence)."""
    global _numpy_probe
    _numpy_probe = None


def _connected(graph) -> bool:
    """BFS reachability check from node 0 (O(N + E), run once per probe)."""
    n = graph.num_nodes
    seen = bytearray(n)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if not seen[u]:
                    seen[u] = 1
                    count += 1
                    nxt.append(u)
        frontier = nxt
    return count == n


def bulk_capability(simulator) -> Tuple[bool, str]:
    """Probe whether the bulk engine can run ``simulator``.

    Returns ``(True, "")`` when capable, else ``(False, reason)`` with a
    human-readable reason for the first failed check.
    """
    # The protocol registry is the first gate: the bulk engine encodes
    # one specific send schedule, so only protocols that declare
    # themselves bulk-capable (the stock hua-bc) may pass.  A rival
    # protocol (e.g. cfp-bc) falls back by name; an unregistered custom
    # node algorithm falls back via the node-class check below.
    protocol = getattr(simulator, "protocol", None)
    if protocol is not None and not protocol.bulk_capable:
        return False, (
            "protocol {!r} is not bulk-capable (the closed-form array "
            "program encodes the stock schedule only)".format(protocol.name)
        )
    # The cheap structural checks run before the numpy probe, so a run
    # that could never go bulk (a fault plan, a single node) does not
    # pay for importing numpy.
    if simulator.faults is not None:
        return False, "fault injection requires per-message delivery"
    if simulator.graph.num_nodes < 2:
        return False, "bulk vectorization needs at least two nodes"
    if not numpy_available():
        return False, "numpy is not installed (pip install 'repro[fast]')"
    # Deferred import: repro.core pulls in the whole protocol stack and
    # repro.congest.simulator imports this module lazily.
    from repro.arithmetic.context import LFloatArithmetic
    from repro.core.node import BetweennessNode

    expected_class = (
        protocol.node_class if protocol is not None else BetweennessNode
    )
    roots = 0
    arith = None
    config = None
    for node in simulator.nodes:
        if type(node) is not expected_class:
            return False, (
                "node {} is a {}, not the stock BetweennessNode".format(
                    node.node_id, type(node).__name__
                )
            )
        if arith is None:
            arith = node.arith
        elif node.arith is not arith:
            return False, "nodes disagree on the arithmetic context"
        if config is None:
            config = node.config
        elif node.config is not config:
            return False, "nodes disagree on the protocol configuration"
        if node.tree.is_root:
            roots += 1
    if arith is None or not isinstance(arith, LFloatArithmetic):
        return False, (
            "arithmetic {!r} is not an L-float context (exact-mode values "
            "have data-dependent widths the array lanes cannot carry)".format(
                getattr(arith, "name", arith)
            )
        )
    if not 2 <= arith.precision <= MAX_BULK_PRECISION:
        return False, (
            "L-float precision {} outside the int64 kernel range "
            "[2, {}]".format(arith.precision, MAX_BULK_PRECISION)
        )
    if roots != 1:
        return False, "expected exactly one tree root, found {}".format(roots)
    if config is not None and config.sources is not None:
        n = simulator.graph.num_nodes
        if any(not 0 <= s < n for s in config.sources):
            return False, "config.sources references nodes outside the graph"
    if not _connected(simulator.graph):
        return False, (
            "graph is not connected (the closed-form schedule assumes "
            "every node is reachable from the root)"
        )
    return True, ""


def shard_capability(simulator) -> Tuple[bool, str]:
    """Probe whether the sharded multi-process runtime can run ``simulator``.

    The shard runtime forks workers (node factories are closures, so
    the pre-built nodes must be inherited copy-on-write) and takes
    every worker's nodes back into this process at run end.  It needs
    the :class:`~repro.core.node.BetweennessNode` surface — which both
    registered protocols share — for the arithmetic context that
    decodes cross-shard frames and the tree root it pins into shard 0,
    and cannot replay per-send hooks (tracers, send monitors) that fire
    inside child processes.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return False, (
            "the 'fork' start method is unavailable on this platform "
            "(workers must inherit the pre-built nodes)"
        )
    if simulator.graph.num_nodes < 1:
        return False, "sharding needs at least one node"
    if simulator.tracer is not None:
        return False, (
            "a tracer records per-delivery events inside worker "
            "processes, where they would be lost"
        )
    telemetry = simulator.telemetry
    if telemetry is not None and getattr(telemetry, "wants_sends", False):
        return False, (
            "a send-level monitor observes messages inside worker "
            "processes, where its state would be lost"
        )
    faults = simulator.faults
    if faults is not None and getattr(faults, "tracer", None) is not None:
        return False, (
            "the fault injector carries a tracer; its per-fault records "
            "would be lost inside worker processes"
        )
    from repro.core.node import BetweennessNode

    for node in simulator.nodes:
        inner = getattr(node, "inner", node)
        if not isinstance(inner, BetweennessNode):
            return False, (
                "node {} is a {}; the shard runtime needs the "
                "BetweennessNode arithmetic context and tree root".format(
                    node.node_id, type(inner).__name__
                )
            )
    return True, ""


def decide_engine(requested: str, simulator) -> EngineDecision:
    """Resolve ``"auto"`` (or validate ``"bulk"``) against the probes.

    Called by :class:`~repro.congest.simulator.Simulator` after its
    nodes are built.  Returns the concrete engine name plus the reason
    for the choice; explicit ``sweep``/``event`` requests pass through
    without probing.
    """
    if requested in ("sweep", "event"):
        return EngineDecision(requested, requested, "explicitly requested")
    if requested == "shard":
        # Never auto-selected: multi-process execution is an explicit
        # opt-in (it forks the interpreter), so "shard" only validates.
        capable, reason = shard_capability(simulator)
        if not capable:
            raise EngineCapabilityError("shard", reason)
        return EngineDecision(
            "shard",
            "shard",
            "explicitly requested ({} workers)".format(simulator.workers),
        )
    capable, reason = bulk_capability(simulator)
    if requested == "bulk":
        if not capable:
            raise EngineCapabilityError("bulk", reason)
        return EngineDecision("bulk", "bulk", "explicitly requested")
    # requested == "auto": bulk when capable, else the next engine in
    # the preference chain (event never refuses a run).
    if capable:
        logger.info("engine=auto resolved to 'bulk' (numpy batch backend)")
        return EngineDecision(
            "auto", "bulk", "capability probe passed (numpy batch backend)"
        )
    fallback = ENGINE_PREFERENCE[1]
    logger.info(
        "engine=auto resolved to %r (bulk unavailable: %s)", fallback, reason
    )
    return EngineDecision(
        "auto", fallback, "bulk unavailable: {}".format(reason)
    )
