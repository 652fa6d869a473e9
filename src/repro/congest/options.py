"""Run options: the execution settings that must not change a run's result.

A field belongs in :class:`RunOptions` only if the differential suite
proves that it cannot change a successful run's betweenness, rounds,
bits or messages — it chooses *how* the simulation executes (which
engine, how many processes, whether the budget and the wire frames are
enforced), never *what* it computes.  Protocol inputs (graph, root,
arithmetic, fault plan, transport) stay separate arguments.

One frozen value travels unchanged through
:class:`~repro.congest.simulator.Simulator`,
:func:`~repro.core.distributed_betweenness`, the weighted pipeline,
:func:`~repro.analysis.run_many` and the CLI, so every default is
written once, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.exceptions import EngineCapabilityError

if TYPE_CHECKING:
    from repro.shard.supervisor import SupervisionConfig

#: Default per-edge budget multiplier: budget = factor * ceil(log2 N).
#: The pipeline's worst round stacks a BFS wave (id + round stamp +
#: distance + a 2L+1-bit float), a token and a control message, all
#: O(log N); 32 covers L = 3 log2 N comfortably while still catching the
#: Theta(N)-bit messages of exact arithmetic on path-count-heavy graphs.
DEFAULT_CONGEST_FACTOR = 32

#: Recognized execution engines (see :mod:`repro.congest.simulator`).
#: ``"auto"`` resolves to the fastest capable engine at construction
#: time via :func:`repro.engines.decide_engine`; ``"bulk"`` is the
#: vectorized numpy backend and ``"shard"`` the multi-process runtime of
#: :mod:`repro.shard` (both raise
#: :class:`~repro.exceptions.EngineCapabilityError` when the run falls
#: outside their envelope).  ``"auto"`` never resolves to ``"shard"``
#: — multi-process execution is an explicit opt-in.
ENGINES = ("sweep", "event", "bulk", "shard", "auto")

#: Recognized shard partitioners (see :mod:`repro.shard.partition`).
PARTITIONERS = ("block", "greedy")


@dataclass(frozen=True)
class RunOptions:
    """How a run executes; never what it computes.

    Attributes
    ----------
    engine:
        ``"auto"`` (default) picks the fastest capable backend: the
        vectorized ``"bulk"`` engine when numpy is available and the
        run fits its envelope, else ``"event"``.  ``"event"`` steps
        only active nodes; ``"sweep"`` steps every node every round
        (the assumption-free reference, and the default of a bare
        :class:`~repro.congest.simulator.Simulator`); ``"shard"`` is
        the multi-process runtime, never auto-selected.
    workers:
        Worker processes for ``engine="shard"``; ignored by the
        single-process engines.  See ``docs/sharding.md``.
    partitioner:
        Node-partitioning strategy for ``engine="shard"``: ``"greedy"``
        (graph-growing edge-cut minimizer) or ``"block"`` (contiguous
        id ranges).  See :mod:`repro.shard.partition`.
    supervision:
        A :class:`repro.shard.supervisor.SupervisionConfig` making the
        shard coordinator supervise its workers (heartbeat watchdog,
        respawn, round-boundary checkpoints, resume).  Requires
        ``engine="shard"``; see ``docs/recovery.md``.
    strict:
        Enforce the per-edge bit budget ``congest_factor *
        ceil(log2 N)``; an overflow raises
        :class:`~repro.exceptions.CongestViolationError`.
    congest_factor:
        The budget multiplier c (the O(·) constant of CONGEST).
    frame_audit:
        Encode every per-edge round frame through :mod:`repro.wire` and
        check its length against the billed bits; a disagreement raises
        :class:`~repro.exceptions.WireCodecError`.  Incompatible with
        resilient transport runs, whose envelopes live outside the
        4-bit tag registry.

    Raises
    ------
    ValueError
        Unknown engine or partitioner, or ``workers`` not a positive
        int.
    EngineCapabilityError
        ``supervision`` without ``engine="shard"``.
    """

    engine: str = "auto"
    workers: int = 1
    partitioner: str = "greedy"
    supervision: Optional[SupervisionConfig] = None
    strict: bool = True
    congest_factor: int = DEFAULT_CONGEST_FACTOR
    frame_audit: bool = False

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                "unknown engine {!r} (expected one of {})".format(
                    self.engine, ENGINES
                )
            )
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValueError(
                "workers must be a positive int, got {!r}".format(
                    self.workers
                )
            )
        if self.partitioner not in PARTITIONERS:
            raise ValueError(
                "unknown partitioner {!r} (expected one of {})".format(
                    self.partitioner, PARTITIONERS
                )
            )
        if self.supervision is not None and self.engine != "shard":
            # Supervision only exists in the multi-process runtime; a
            # silently-ignored checkpoint/resume request would be a
            # durability lie, so fail loudly instead.
            raise EngineCapabilityError(
                self.engine,
                "supervision (checkpoints, restarts, resume) requires "
                "engine='shard'",
            )
