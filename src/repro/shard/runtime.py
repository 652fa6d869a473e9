"""The sharded multi-process round-synchronous runtime.

``run_shard(simulator)`` executes a run whose node set has been
partitioned across ``simulator.workers`` processes.  Shard 0 runs
inside the coordinator (parent) process — so the protocol root's
telemetry phase hooks stay in-process — and shards ``1..W-1`` run in
forked workers connected by ``multiprocessing`` pipes.  ``fork`` is
required (node factories are closures; forked children inherit the
pre-built node objects copy-on-write), which the dispatcher's
``shard_capability`` probe enforces.

Each worker drives its shard's nodes with the event engine's
:class:`~repro.congest.kernel.RoundKernel` (wake policy, cross-shard
router).  The coordinator replicates the event engine's *outer* loop
decision for decision — which round to process, when to fast-forward
idle stretches, when to declare termination, stalling, or the round
limit — from per-round worker reports, so a sharded run is
**bit-identical** to ``engine="event"``: same rounds, same bits, same
messages, same worst edge, same betweenness, same fault counters.

Cross-shard traffic travels as encoded wire frames batched per
(src shard, dst shard) per round (:mod:`repro.shard.frames`), decoded
through :mod:`repro.wire` on arrival.  See ``docs/sharding.md`` for
the full barrier protocol and the fault/kill semantics.

With a :class:`~repro.shard.supervisor.SupervisionConfig` the
coordinator additionally supervises its workers: each child stamps a
shared-memory heartbeat at every barrier, the blocking ``recv`` becomes
a polling watchdog that tells *dead* (pipe EOF / process gone) from
*hung* (alive but heartbeat stale), and either failure triggers a
global rollback — kill every child, restore the newest round-boundary
checkpoint (:mod:`repro.shard.checkpoint`), re-fork, replay.  Because
a snapshot is taken at a barrier (every in-flight message is explicit
state) and fault decisions are keyed hashes (the injector cursor is
pure state), the replayed rounds are bit-identical, so supervision and
resume never show up in any protocol output.  See
``docs/recovery.md``.
"""

from __future__ import annotations

import heapq
import os
import pickle
import time
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.congest.kernel import RoundKernel
from repro.congest.stats import SimulationStats
from repro.exceptions import (
    CheckpointError,
    CheckpointPause,
    SimulationNotTerminatedError,
    SimulationStalledError,
)
from repro.faults.injector import stall_deadline
from repro.shard.checkpoint import (
    corrupt_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    resolve_checkpoint,
    write_checkpoint,
)
from repro.shard.frames import decode_shard_frame, encode_shard_frame
from repro.shard.partition import edge_cut, partition_nodes
from repro.shard.supervisor import WorkerFailure, supervision_for

#: FaultStats counters a worker ships (and a checkpoint snapshots).
#: ``crash_rounds`` and ``recoveries`` are not among them: the
#: coordinator settles those from the plan at run end.
_FAULT_COUNTERS = (
    "dropped", "duplicated", "delayed",
    "corrupted_detected", "corrupted_undetected",
    "crash_dropped", "link_dropped",
)


def _unwrap(node):
    """The protocol node behind an optional transport wrapper."""
    return getattr(node, "inner", node)


def _outputs(node) -> Tuple[Any, Any, Any]:
    """A protocol node's (betweenness_raw, diameter, own start time)."""
    inner = _unwrap(node)
    agg = getattr(inner, "aggregation", None)
    return (
        getattr(agg, "betweenness_raw", None),
        getattr(agg, "diameter", None),
        getattr(getattr(inner, "counting", None), "own_start_time", None),
    )


def _patch_outputs(node, diameter, start, done, sent=None, partial=None):
    """Write a remote node's outputs into its parent-side copy.

    With ``sent`` (a stalled run) the plain ``sent_sources`` and
    ``partial_betweenness_raw`` methods are shadowed by the remote
    values; the pipeline's partial collection recomputes the identical
    complete set from the shadowed ``sent_sources``, so the ignored
    argument is safe.
    """
    inner = _unwrap(node)
    if sent is not None:
        inner.sent_sources = (lambda _s=sent: _s)
        inner.partial_betweenness_raw = (lambda _complete, _v=partial: _v)
    if hasattr(inner, "aggregation"):
        inner.aggregation.diameter = diameter
    if hasattr(inner, "counting"):
        inner.counting.own_start_time = start
    node.done = done
    if inner is not node:
        inner.done = done


def _ledger_words(nodes) -> int:
    from repro.core.records import ledger_storage_totals

    ledgers = [getattr(_unwrap(node), "ledger", None) for node in nodes]
    return ledger_storage_totals(
        [ledger for ledger in ledgers if ledger is not None]
    )["words"]


def _handover(nodes: Dict[int, Any]) -> List[Dict[str, Any]]:
    """The final state of a lost shard's nodes, ascending by id: ledger
    rows with a psi value (for a later partial collection), sent
    sources and outputs."""
    out = []
    for v in sorted(nodes):
        node = nodes[v]
        inner = _unwrap(node)
        ledger = getattr(inner, "ledger", None)
        rows = []
        if ledger is not None:
            psi_col = ledger.psi_col
            rows = [
                (ledger.source_col[row], ledger.sigma_col[row], psi_col[row])
                for row in range(len(ledger))
                if psi_col[row] is not None
            ]
        _bc, diameter, start = _outputs(node)
        out.append({
            "node": v,
            "rows": rows,
            "sent": inner.sent_sources(),
            "diameter": diameter,
            "start": start,
            "done": node.done,
        })
    return out


def _shard_dead_round(plan, members) -> Optional[int]:
    """First round from which *every* member is permanently crashed.

    ``None`` unless each member has a permanent crash window — the
    "kill a whole worker process" scenario.  Deterministically
    computable from the plan by every process, so coordinator and
    worker agree on the shard's death round without negotiation.
    """
    if plan is None:
        return None
    worst = 0
    for v in members:
        starts = [
            w.start for w in plan.crashes if w.node == v and w.end is None
        ]
        if not starts:
            return None
        worst = max(worst, min(starts))
    return worst


class _ShardWorker:
    """One shard's round kernel and its reports (runs in parent or child)."""

    def __init__(self, sim, shard_id, assignment, shards, dead_round):
        self.sim = sim
        self.shard_id = shard_id
        self.members = shards[shard_id]
        self.dead_round = dead_round
        self.arith = getattr(_unwrap(sim.nodes[0]), "arith", None)
        self.kernel = RoundKernel(
            sim, self.members, assignment=assignment, shard_id=shard_id
        )
        # Supervision plumbing (set by _child_main in forked children).
        self.incarnation = 0
        self.heartbeat = None
        plan = sim.faults.plan if sim.faults is not None else None
        self._hangs = tuple(
            h for h in getattr(plan, "worker_hangs", ())
            if h.shard == shard_id
        )
        self._slows = tuple(
            s for s in getattr(plan, "slow_workers", ())
            if s.shard == shard_id
        )

    # ------------------------------------------------------------------
    def _apply_infra_faults(self, round_number: int) -> None:
        """Realize scheduled WorkerHang/SlowWorker faults for this round.

        A slow worker sleeps but keeps stamping its heartbeat (a healthy
        straggler the watchdog must tolerate); a hung worker spins with
        the heartbeat frozen, so only the supervisor's timeout can end
        it.  Hangs apply to incarnations below ``repeats``: the default
        1 hangs only the original worker, letting its checkpoint-
        restored replacement sail past the same round.
        """
        for slow in self._slows:
            if slow.round == round_number:
                end = time.monotonic() + slow.delay
                while True:
                    if self.heartbeat is not None:
                        self.heartbeat.value = time.monotonic()
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        break
                    time.sleep(min(0.05, remaining))
        for hang in self._hangs:
            if hang.round == round_number and self.incarnation < hang.repeats:
                while True:  # a wedge, by construction unrecoverable
                    time.sleep(3600)

    def process_round(self, round_number: int, frames) -> Dict[str, Any]:
        """Run one synchronous round over this shard; return the report."""
        if self._hangs or self._slows:
            self._apply_infra_faults(round_number)
        sim = self.sim
        kernel = self.kernel
        # Ingest cross-shard batches.  Fresh records (due == send round
        # + 1) interleave with local fresh sends sender-sorted — the
        # single-process invariant that inboxes are sender-sorted by
        # construction; later records join the kernel's future heap,
        # whose key pops in global send order.
        in_flight = kernel.in_flight
        touched: Set[int] = set()
        for _src_shard, send_round, word, bits, opaque in frames:
            for sender, receiver, due, message in decode_shard_frame(
                word, bits, opaque, send_round, sim.wire, self.arith
            ):
                if due != send_round + 1:
                    kernel.push(due, send_round, sender, receiver, message)
                    continue
                bucket = in_flight.get(receiver)
                if bucket is None:
                    in_flight[receiver] = [(sender, message)]
                else:
                    bucket.append((sender, message))
                    touched.add(receiver)
        by_sender = itemgetter(0)
        for receiver in touched:
            # Stable: per-sender runs are contiguous within one source
            # list and a sender lives in exactly one shard.
            in_flight[receiver].sort(key=by_sender)
        done_changes: List[Tuple[int, bool]] = []
        kernel.done_changes = done_changes
        kernel.run_round(round_number)
        edge_load = kernel.edge_load
        edges = [
            (key[0], key[1], load[0], load[1])
            for key, load in edge_load.items()
        ]
        edge_load.clear()
        outbox = {}
        for dst, records in kernel.outbox.items():
            word, bits, opaque = encode_shard_frame(
                records, round_number, sim.wire
            )
            later = [
                due for _s, _r, due, _m in records if due != round_number + 1
            ]
            outbox[dst] = (
                word, bits, opaque, len(later) < len(records), len(later),
                min(later, default=None),
            )
        kernel.outbox = {}
        faults = sim.faults
        report: Dict[str, Any] = {
            "edges": edges,
            "done_changes": done_changes,
            "min_wake": kernel.wake_heap[0][0] if kernel.wake_heap else None,
            "future_len": len(kernel.future),
            "min_future": kernel.future[0][0] if kernel.future else None,
            "fresh_next": bool(kernel.in_flight),
            "last_progress": (
                faults.last_progress_round if faults is not None else 0
            ),
            "outbox": outbox,
        }
        if (
            self.dead_round is not None
            and round_number >= self.dead_round
        ):
            # Whole-shard kill: every member is permanently crashed from
            # here on.  Ship everything the coordinator needs to stand
            # in for this shard (ledger rows allow a later partial
            # collection) and let the worker exit.
            report["shard_dead"] = self._death_payload()
        return report

    # ------------------------------------------------------------------
    # run-end extraction
    # ------------------------------------------------------------------
    def _fault_payload(self):
        faults = self.sim.faults
        if faults is None:
            return None
        stats = faults.stats
        return {
            "counters": {
                name: getattr(stats, name) for name in _FAULT_COUNTERS
            },
        }

    def _common_reply(self) -> Dict[str, Any]:
        return {
            "faults": self._fault_payload(),
            "cross_messages": self.kernel.cross_messages,
            "cross_bits": self.kernel.cross_bits,
            "ledger_words": _ledger_words(
                self.sim.nodes[v] for v in self.members
            ),
        }

    def finish_reply(self) -> Dict[str, Any]:
        """Per-node protocol outputs for the clean-termination path."""
        reply = self._common_reply()
        nodes = self.sim.nodes
        reply["extracts"] = [
            (v, *_outputs(nodes[v]), nodes[v].done) for v in self.members
        ]
        return reply

    def stall_sent_sources(self) -> Dict[int, frozenset]:
        return {
            v: _unwrap(self.sim.nodes[v]).sent_sources()
            for v in self.members
        }

    def partial_reply(self, complete_set) -> Dict[str, Any]:
        """Per-node partial outputs for the stalled-run path."""
        reply = self._common_reply()
        extracts = []
        for v in self.members:
            node = self.sim.nodes[v]
            inner = _unwrap(node)
            _bc, diameter, start = _outputs(node)
            extracts.append((
                v,
                inner.partial_betweenness_raw(complete_set),
                inner.sent_sources(),
                diameter,
                start,
                node.done,
            ))
        reply["extracts"] = extracts
        return reply

    def _death_payload(self) -> Dict[str, Any]:
        """State handover when the whole shard is permanently crashed."""
        payload = self._common_reply()
        payload["nodes"] = _handover(
            {v: self.sim.nodes[v] for v in self.members}
        )
        return payload

    # ------------------------------------------------------------------
    # checkpoint snapshot / restore (barrier-quiescent state only)
    # ------------------------------------------------------------------
    def _fault_cursor(self) -> Optional[Dict[str, Any]]:
        """The injector's replay cursor: counters plus per-edge sequence
        numbers.  Pure state — restoring it replays the exact same
        keyed-hash fault decisions the original run would have made."""
        cursor = self._fault_payload()
        if cursor is not None:
            faults = self.sim.faults
            cursor["edge_seq"] = dict(faults._edge_seq)
            cursor["last_progress"] = faults.last_progress_round
        return cursor

    def snapshot_blob(self) -> bytes:
        """Pickle this shard's complete state at a round barrier.

        At a barrier every message is explicit state: fresh deliveries
        in ``in_flight``, delayed/duplicated ones in the future heap,
        undelivered arrivals in the deferred inboxes.  Node objects
        (ledger columns and all protocol fields) pickle as-is, except
        that live telemetry handles are detached for the dump — they
        hold unpicklable streams and are re-attached on restore.
        """
        sim = self.sim
        kernel = self.kernel
        detached = []
        telemetry_nodes = []
        for v in self.members:
            node = sim.nodes[v]
            for which, obj in {
                id(node): ("outer", node),
                id(_unwrap(node)): ("inner", _unwrap(node)),
            }.values():
                tel = getattr(obj, "telemetry", None)
                if tel is not None:
                    obj.telemetry = None
                    detached.append((obj, tel))
                    telemetry_nodes.append((v, which))
        try:
            state = {
                "shard": self.shard_id,
                "nodes": {v: sim.nodes[v] for v in self.members},
                "telemetry_nodes": telemetry_nodes,
                "in_flight": kernel.in_flight,
                "future": list(kernel.future),
                "fseq": kernel.seq,
                "cross_messages": kernel.cross_messages,
                "cross_bits": kernel.cross_bits,
                "deferred": {
                    v: kernel.deferred[v]
                    for v in self.members
                    if kernel.deferred[v] is not None
                },
                "wake_heap": list(kernel.wake_heap),
                "wake_pending": {
                    v: set(kernel.wake_pending[v])
                    for v in self.members
                    if kernel.wake_pending[v]
                },
                "faults": self._fault_cursor(),
            }
            return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            for obj, tel in detached:
                obj.telemetry = tel

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`snapshot_blob` (from the unpickled dict).

        Node objects are written into the simulator's shared list, the
        kernel's round state is reset wholesale to the snapshot, and
        the fault cursor is written into the inherited injector so
        shard 0's live counters and a child's copy never mix.
        """
        sim = self.sim
        for v, node in state["nodes"].items():
            sim.nodes[v] = node
        for v, which in state["telemetry_nodes"]:
            node = sim.nodes[v]
            obj = node if which == "outer" else _unwrap(node)
            obj.telemetry = sim.telemetry
        kernel = RoundKernel(
            sim, self.members, assignment=self.kernel.assignment,
            shard_id=self.shard_id,
        )
        kernel.in_flight = state["in_flight"]
        kernel.future = list(state["future"])
        kernel.seq = state["fseq"]
        kernel.cross_messages = state["cross_messages"]
        kernel.cross_bits = state["cross_bits"]
        for v, box in state["deferred"].items():
            kernel.deferred[v] = box
        kernel.wake_heap = list(state["wake_heap"])
        for v, pending in state["wake_pending"].items():
            kernel.wake_pending[v] |= pending
        self.kernel = kernel
        cursor = state["faults"]
        faults = sim.faults
        if faults is not None and cursor is not None:
            stats = faults.stats
            for name in _FAULT_COUNTERS:
                setattr(stats, name, cursor["counters"][name])
            faults._edge_seq.clear()
            faults._edge_seq.update(cursor["edge_seq"])
            faults.last_progress_round = cursor["last_progress"]


def _child_main(
    conn, worker, heartbeat=None, restore=None, incarnation=0
) -> None:
    """Command loop of a forked shard worker."""
    worker.heartbeat = heartbeat
    worker.incarnation = incarnation

    def beat():
        if heartbeat is not None:
            heartbeat.value = time.monotonic()

    try:
        if restore is not None:
            worker.restore_state(pickle.loads(restore))
        beat()
        while True:
            command = conn.recv()
            beat()
            op = command[0]
            if op == "round":
                report = worker.process_round(command[1], command[2])
                beat()
                conn.send(report)
                if "shard_dead" in report:
                    break
            elif op == "checkpoint":
                conn.send(worker.snapshot_blob())
                beat()
            elif op == "stall":
                conn.send(worker.stall_sent_sources())
            elif op == "partial":
                conn.send(worker.partial_reply(command[1]))
                break
            elif op == "finish":
                conn.send(worker.finish_reply())
                break
            elif op == "die":
                break
    except BaseException as exc:  # ship the failure to the coordinator
        try:
            conn.send({"error": exc})
        except Exception:
            try:
                conn.send({
                    "error": RuntimeError(
                        "{}: {}".format(type(exc).__name__, exc)
                    )
                })
            except Exception:
                pass
    finally:
        try:
            conn.close()
        finally:
            # Skip inherited atexit/finalizers — this process shares the
            # parent's descriptors and buffers via fork.
            os._exit(0)


class _Coordinator:
    """The parent-side outer loop replicating ``Simulator._run_event``."""

    def __init__(self, sim):
        self.sim = sim
        self.stats: SimulationStats = sim.stats
        self.workers = sim.workers
        self.partitioner = sim.partitioner
        root = 0
        proto_node = _unwrap(sim.nodes[0]) if sim.nodes else None
        for node in sim.nodes:
            inner = _unwrap(node)
            tree = getattr(inner, "tree", None)
            if tree is not None and getattr(tree, "is_root", False):
                root = inner.node_id
                break
        self.assignment, self.shards = partition_nodes(
            sim.graph, self.workers, kind=self.partitioner, root=root
        )
        self.n_shards = len(self.shards)
        self.cut_edges = edge_cut(sim.graph, self.assignment)
        plan = sim.faults.plan if sim.faults is not None else None
        self.plan = plan
        self.dead_rounds = [
            _shard_dead_round(plan, members) for members in self.shards
        ]
        self.arith = getattr(proto_node, "arith", None)
        self.config = getattr(proto_node, "config", None)
        n = len(sim.nodes)
        self.done = bytearray(1 if node.done else 0 for node in sim.nodes)
        self.done_count = sum(self.done)
        self.n = n
        # Per-shard liveness and last-report state.
        self.alive = [True] * self.n_shards
        self.min_wake: List[Optional[int]] = [None] * self.n_shards
        self.future_len = [0] * self.n_shards
        self.min_future: List[Optional[int]] = [None] * self.n_shards
        self.pending_frames: List[list] = [[] for _ in range(self.n_shards)]
        self.pending_future_len = [0] * self.n_shards
        self.pending_min_due: List[Optional[int]] = [None] * self.n_shards
        self.fresh_next = False
        self.last_progress = 0
        # Dead-shard handover state.
        self.dead_payloads: Dict[int, Dict[str, Any]] = {}
        self.merged_fault_payloads: List[Dict[str, Any]] = []
        self.cross_messages = 0
        self.cross_bits = 0
        self.ledger_words = [0] * self.n_shards
        self.children: List[Tuple[int, Any, Any]] = []  # (shard, conn, proc)
        self.worker0: Optional[_ShardWorker] = None
        # --- supervision / checkpoint state -----------------------------
        self.supervision = supervision_for(
            plan, getattr(sim, "supervision", None)
        )
        self.protocol_name = (
            sim.protocol.name if getattr(sim, "protocol", None) else None
        )
        self.start_round = 0
        self.restarts = [0] * self.n_shards
        self.hang_detections = 0
        self.rollbacks = 0
        self.checkpoints_written = 0
        self.checkpoint_bytes = 0
        self.checkpoint_seconds = 0.0
        self._last_ckpt_round = -1
        self.resumed_from: Optional[int] = None
        self.infra_dead: Set[int] = set()
        self.heartbeats: List[Optional[Any]] = [None] * self.n_shards
        self._workers: Dict[int, _ShardWorker] = {}
        self._fallback_state: Optional[Dict[str, Any]] = None
        self._join_timeout = 5.0
        self._ctx = None
        self._ckpt_run_dir: Optional[Path] = None
        self._graph_hash: Optional[str] = None
        sup = self.supervision
        if sup is not None:
            from repro.obs.history import graph_fingerprint, run_key

            self._graph_hash = graph_fingerprint(sim.graph)
            key = run_key(
                self._graph_hash,
                {
                    "protocol": self.protocol_name,
                    "partitioner": self.partitioner,
                    "workers": self.n_shards,
                    "faults": plan.to_dict() if plan is not None else None,
                },
                "shard",
            )
            self._run_key = key
            if sup.checkpoints_enabled:
                self._ckpt_run_dir = Path(sup.checkpoint_dir) / key

    # ------------------------------------------------------------------
    def start(self) -> None:
        import multiprocessing

        sim = self.sim
        self._ctx = multiprocessing.get_context("fork")
        self.worker0 = _ShardWorker(
            sim, 0, self.assignment, self.shards, self.dead_rounds[0]
        )
        for shard in range(1, self.n_shards):
            self._workers[shard] = _ShardWorker(
                sim, shard, self.assignment, self.shards,
                self.dead_rounds[shard],
            )
        sup = self.supervision
        state = None
        if sup is not None and sup.resume_from is not None:
            state = self._load_resume_state(sup.resume_from)
            self._restore_coordinator_state(
                pickle.loads(state["coordinator"])
            )
            self.worker0.restore_state(pickle.loads(state["shards"][0]))
            self.start_round = state["round"]
            self.resumed_from = state["round"]
            self._last_ckpt_round = state["round"]
        self._spawn_children(state)
        if sup is not None:
            # The in-memory rollback floor: the resume snapshot itself,
            # or (fresh run) the pristine pre-round-0 state.  Recovery
            # prefers newer on-disk checkpoints and falls back here when
            # they are corrupt or checkpointing is off.
            self._fallback_state = (
                state if state is not None else self._capture_state(0)
            )

    def _spawn_children(self, state=None) -> None:
        """Fork one child per live shard (optionally from restore blobs).

        The blob rides the fork-inherited ``Process`` args: the child
        unpickles and applies it *in its own address space*, so the
        parent's copy of the shard (frozen at round 0) and the shared
        injector are never disturbed.
        """
        sup = self.supervision
        for shard in range(1, self.n_shards):
            if not self.alive[shard]:
                continue
            heartbeat = (
                self._ctx.Value("d", 0.0, lock=False)
                if sup is not None else None
            )
            restore = state["shards"].get(shard) if state is not None else None
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_child_main,
                args=(
                    child_conn, self._workers[shard], heartbeat, restore,
                    self.restarts[shard],
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.children.append((shard, parent_conn, proc))
            self.heartbeats[shard] = heartbeat

    def _kill_children(self) -> None:
        """Tear the worker pool down hard (rollback path: no goodbyes)."""
        for _shard, conn, _proc in self.children:
            try:
                conn.close()
            except OSError:
                pass
        for _shard, _conn, proc in self.children:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self._join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self._join_timeout)
        self.children = []

    def shutdown(self, notify: bool = True) -> None:
        for shard, conn, proc in self.children:
            if notify and self.alive[shard]:
                try:
                    conn.send(("die",))
                except (BrokenPipeError, OSError):
                    pass
            try:
                conn.close()
            except OSError:
                pass
        for _shard, _conn, proc in self.children:
            proc.join(timeout=self._join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self._join_timeout)
            if proc.is_alive():
                # SIGTERM can be masked or mishandled by a wedged child;
                # SIGKILL cannot.  Nothing may outlive the coordinator.
                proc.kill()
                proc.join(timeout=self._join_timeout)

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------
    def _stats_state(self) -> Dict[str, Any]:
        stats = self.stats
        return {
            "message_count": stats.message_count,
            "bit_count": stats.bit_count,
            "max_edge_bits": stats.max_edge_bits_per_round,
            "max_edge_messages": stats.max_edge_messages_per_round,
            "round_series": list(stats.round_series),
            "worst_edge": stats.worst_edge,
            "cut": stats.cut,
        }

    def _restore_stats(self, snap: Dict[str, Any]) -> None:
        stats = self.stats
        stats.message_count = snap["message_count"]
        stats.bit_count = snap["bit_count"]
        stats.max_edge_bits_per_round = snap["max_edge_bits"]
        stats.max_edge_messages_per_round = snap["max_edge_messages"]
        stats.round_series[:] = snap["round_series"]
        stats.worst_edge = snap["worst_edge"]
        if stats.cut is not None and snap["cut"] is not None:
            stats.cut.__dict__.update(snap["cut"].__dict__)

    def _coordinator_state(self, round_number: int) -> Dict[str, Any]:
        """The merge-loop state paired with the shard snapshots.

        Restart counters are deliberately absent: the respawn budget
        tracks wall-clock reality and must never roll back with the
        protocol state.
        """
        return {
            "round": round_number,
            "done": bytes(self.done),
            "done_count": self.done_count,
            "alive": list(self.alive),
            "min_wake": list(self.min_wake),
            "future_len": list(self.future_len),
            "min_future": list(self.min_future),
            "pending_frames": [list(f) for f in self.pending_frames],
            "pending_future_len": list(self.pending_future_len),
            "pending_min_due": list(self.pending_min_due),
            "fresh_next": self.fresh_next,
            "last_progress": self.last_progress,
            "dead_payloads": dict(self.dead_payloads),
            "merged_fault_payloads": list(self.merged_fault_payloads),
            "infra_dead": set(self.infra_dead),
            "cross_messages": self.cross_messages,
            "cross_bits": self.cross_bits,
            "ledger_words": list(self.ledger_words),
            "stats": self._stats_state(),
        }

    def _restore_coordinator_state(self, snap: Dict[str, Any]) -> None:
        self.done = bytearray(snap["done"])
        self.done_count = snap["done_count"]
        self.alive = list(snap["alive"])
        self.min_wake = list(snap["min_wake"])
        self.future_len = list(snap["future_len"])
        self.min_future = list(snap["min_future"])
        self.pending_frames = [list(f) for f in snap["pending_frames"]]
        self.pending_future_len = list(snap["pending_future_len"])
        self.pending_min_due = list(snap["pending_min_due"])
        self.fresh_next = snap["fresh_next"]
        self.last_progress = snap["last_progress"]
        self.dead_payloads = dict(snap["dead_payloads"])
        self.merged_fault_payloads = list(snap["merged_fault_payloads"])
        self.infra_dead = set(snap.get("infra_dead", ()))
        self.cross_messages = snap["cross_messages"]
        self.cross_bits = snap["cross_bits"]
        self.ledger_words = list(snap["ledger_words"])
        self._restore_stats(snap["stats"])

    def _capture_state(self, round_number: int) -> Dict[str, Any]:
        """In-memory snapshot taken in the parent (pre-round-0 only for
        shards >= 1, whose parent-side copies stay frozen at round 0)."""
        blobs = {}
        for shard in range(1, self.n_shards):
            if self.alive[shard]:
                blobs[shard] = self._workers[shard].snapshot_blob()
        blobs[0] = self.worker0.snapshot_blob()
        return {
            "round": round_number,
            "shards": blobs,
            "coordinator": pickle.dumps(
                self._coordinator_state(round_number),
                protocol=pickle.HIGHEST_PROTOCOL,
            ),
        }

    def _ckpt_meta(self) -> Dict[str, Any]:
        meta = {
            "graph": self._graph_hash,
            "n": self.n,
            "workers": self.n_shards,
            "partitioner": self.partitioner,
            "protocol": self.protocol_name,
            "run_key": self._run_key,
        }
        sup = self.supervision
        if sup is not None and sup.meta:
            meta.update(sup.meta)
        return meta

    def _write_checkpoint(self, round_number: int) -> None:
        """Snapshot every shard at the current barrier and commit it."""
        sup = self.supervision
        started = time.perf_counter()
        for shard, conn, _proc in self.children:
            if self.alive[shard]:
                conn.send(("checkpoint",))
        blobs = {0: self.worker0.snapshot_blob()}
        for shard, conn, proc in self.children:
            if self.alive[shard]:
                reply = self._recv(shard, conn, proc, round_number)
                if isinstance(reply, dict) and "error" in reply:
                    self.shutdown()
                    raise reply["error"]
                blobs[shard] = reply
        coord = pickle.dumps(
            self._coordinator_state(round_number),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        ckpt = write_checkpoint(
            self._ckpt_run_dir, round_number, blobs, coord,
            self._ckpt_meta(),
        )
        self._last_ckpt_round = round_number
        self.checkpoints_written += 1
        self.checkpoint_bytes += sum(len(b) for b in blobs.values()) + len(
            coord
        )
        plan = self.plan
        if plan is not None and round_number in getattr(
            plan, "corrupt_checkpoint_rounds", ()
        ):
            corrupt_checkpoint(ckpt, plan.seed, round_number)
        prune_checkpoints(self._ckpt_run_dir, keep=sup.keep_checkpoints)
        self.checkpoint_seconds += time.perf_counter() - started
        if sup.stop_after is not None and round_number >= sup.stop_after:
            raise CheckpointPause(ckpt, round_number)

    def _load_resume_state(self, path) -> Dict[str, Any]:
        ckpt = resolve_checkpoint(Path(path))
        manifest, files = load_checkpoint(ckpt)
        meta = manifest.get("meta", {})
        mismatches = []
        for key, ours in (
            ("graph", self._graph_hash),
            ("n", self.n),
            ("workers", self.n_shards),
            ("partitioner", self.partitioner),
            ("protocol", self.protocol_name),
        ):
            theirs = meta.get(key)
            if theirs != ours:
                mismatches.append(
                    "{}: checkpoint has {!r}, this run has {!r}".format(
                        key, theirs, ours
                    )
                )
        if mismatches:
            raise CheckpointError(
                "checkpoint {} belongs to a different run — {}".format(
                    ckpt, "; ".join(mismatches)
                )
            )
        shards = {
            int(shard): files["shard-{}.bin".format(shard)]
            for shard in manifest["shards"]
        }
        return {
            "round": manifest["round"],
            "shards": shards,
            "coordinator": files["coordinator.bin"],
            "path": ckpt,
        }

    def _load_rollback_state(self) -> Dict[str, Any]:
        """Newest loadable snapshot: disk checkpoints newest-first (a
        corrupt one is skipped, which the checksum turns loud-but-safe),
        then the in-memory fallback (resume point or round 0)."""
        if self._ckpt_run_dir is not None:
            for ckpt in reversed(list_checkpoints(self._ckpt_run_dir)):
                try:
                    manifest, files = load_checkpoint(ckpt)
                except CheckpointError:
                    continue
                return {
                    "round": manifest["round"],
                    "shards": {
                        int(s): files["shard-{}.bin".format(s)]
                        for s in manifest["shards"]
                    },
                    "coordinator": files["coordinator.bin"],
                }
        return self._fallback_state

    def _restore_from_state(self, state: Dict[str, Any]) -> None:
        self._restore_coordinator_state(pickle.loads(state["coordinator"]))
        self.worker0.restore_state(pickle.loads(state["shards"][0]))
        # A rollback may land before a checkpoint the run already wrote;
        # allow the replay to rewrite the newer ones (atomically), so a
        # corrupt snapshot heals instead of poisoning every later
        # recovery.
        self._last_ckpt_round = state["round"]

    # ------------------------------------------------------------------
    # supervision: watchdog recv + recovery
    # ------------------------------------------------------------------
    def _recv(self, shard: int, conn, proc, round_number: int):
        """One worker reply — blocking when unsupervised, watchdog-polled
        (dead vs hung) when supervised."""
        sup = self.supervision
        if sup is None:
            try:
                return conn.recv()
            except EOFError:
                raise RuntimeError(
                    "shard worker {} exited unexpectedly at round "
                    "{}".format(shard, round_number)
                )
        heartbeat = self.heartbeats[shard]
        wait_start = time.monotonic()
        step = min(0.05, sup.heartbeat_timeout / 4.0)
        while True:
            try:
                if conn.poll(step):
                    return conn.recv()
            except (EOFError, OSError):
                raise WorkerFailure(
                    shard, "died",
                    "pipe closed at round {}".format(round_number),
                )
            if not proc.is_alive():
                raise WorkerFailure(
                    shard, "died",
                    "process exited at round {}".format(round_number),
                )
            last_beat = wait_start
            if heartbeat is not None and heartbeat.value > last_beat:
                last_beat = heartbeat.value
            stale = time.monotonic() - last_beat
            if stale > sup.heartbeat_timeout:
                raise WorkerFailure(
                    shard, "hung",
                    "no heartbeat for {:.1f}s at round {}".format(
                        stale, round_number
                    ),
                )

    def _death_payload_from_blob(self, state: Dict[str, Any]) -> Dict[str, Any]:
        """A ``_death_payload`` equivalent built from a checkpoint blob —
        the handover when a worker's restart budget is exhausted and its
        shard is abandoned at its last checkpointed state."""
        cursor = state["faults"]
        return {
            "faults": (
                None if cursor is None else {"counters": cursor["counters"]}
            ),
            "cross_messages": state["cross_messages"],
            "cross_bits": state["cross_bits"],
            "ledger_words": _ledger_words(state["nodes"].values()),
            "nodes": _handover(state["nodes"]),
        }

    def _recover(self, failure: WorkerFailure) -> int:
        """Global rollback after a worker failure; returns the round to
        re-enter the loop at.

        Within budget: kill every child, restore the newest loadable
        snapshot into the parent, re-fork all workers from its blobs
        (after exponential backoff) and replay — bit-identical by the
        barrier-snapshot + keyed-hash-fault argument.  Budget exhausted:
        same rollback, but the failed shard is handed to the existing
        whole-shard-kill machinery (its members reported dead at their
        checkpointed state) and the run degrades deterministically to a
        partial CompletenessReport instead of stalling forever.
        """
        sup = self.supervision
        shard = failure.shard
        if failure.reason == "hung":
            self.hang_detections += 1
        self.rollbacks += 1
        self._kill_children()
        state = self._load_rollback_state()
        if self.restarts[shard] >= sup.max_restarts:
            self._restore_from_state(state)
            payload = self._death_payload_from_blob(
                pickle.loads(state["shards"][shard])
            )
            self._mark_dead(shard, payload)
            self.infra_dead.add(shard)
            self._spawn_children(state)
            return state["round"]
        self.restarts[shard] += 1
        backoff = sup.backoff(self.restarts[shard] - 1)
        if backoff > 0:
            time.sleep(backoff)
        self._restore_from_state(state)
        self._spawn_children(state)
        return state["round"]

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    def _global_min_future(self) -> Optional[int]:
        best: Optional[int] = None
        for value in self.min_future:
            if value is not None and (best is None or value < best):
                best = value
        for value in self.pending_min_due:
            if value is not None and (best is None or value < best):
                best = value
        return best

    def _global_future_len(self) -> int:
        return sum(self.future_len) + sum(self.pending_future_len)

    def _alive_min_wake(self) -> Optional[int]:
        best: Optional[int] = None
        for shard in range(self.n_shards):
            if self.alive[shard]:
                value = self.min_wake[shard]
                if value is not None and (best is None or value < best):
                    best = value
        return best

    def _pending_nodes(self) -> Tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.done[v])

    # ------------------------------------------------------------------
    # report handling
    # ------------------------------------------------------------------
    def _apply_report(self, shard: int, report: Dict[str, Any]) -> None:
        for node_id, flag in report["done_changes"]:
            old = self.done[node_id]
            new = 1 if flag else 0
            if old != new:
                self.done[node_id] = new
                self.done_count += 1 if new else -1
        if report["last_progress"] > self.last_progress:
            self.last_progress = report["last_progress"]
        self.min_wake[shard] = report["min_wake"]
        self.future_len[shard] = report["future_len"]
        self.min_future[shard] = report["min_future"]
        if report["fresh_next"]:
            self.fresh_next = True

    def _route_outbox(
        self, shard: int, round_number: int, report: Dict[str, Any]
    ) -> None:
        for dst, batch in report["outbox"].items():
            word, bits, opaque, has_fresh, n_future, min_due = batch
            self.pending_frames[dst].append(
                (shard, round_number, word, bits, opaque)
            )
            if has_fresh:
                self.fresh_next = True
            if n_future:
                self.pending_future_len[dst] += n_future
                current = self.pending_min_due[dst]
                if current is None or min_due < current:
                    self.pending_min_due[dst] = min_due

    def _mark_dead(self, shard: int, payload: Dict[str, Any]) -> None:
        self.alive[shard] = False
        self.dead_payloads[shard] = payload
        self.min_wake[shard] = None
        self._absorb_common(shard, payload)

    def _absorb_common(self, shard: int, payload: Dict[str, Any]) -> None:
        if payload["faults"] is not None:
            self.merged_fault_payloads.append(payload["faults"])
        self.cross_messages += payload["cross_messages"]
        self.cross_bits += payload["cross_bits"]
        self.ledger_words[shard] = payload["ledger_words"]

    def _absorb_worker0(self) -> None:
        """Absorb shard 0's cross counters and ledger words.

        Shard 0 runs in-process and shares the coordinator's injector
        object, so its fault payload must NOT be merged (the counters
        are already live in ``sim.faults.stats``).
        """
        reply = self.worker0._common_reply()
        reply["faults"] = None
        self._absorb_common(0, reply)

    def _merge_fault_stats(self, round_number: int) -> None:
        faults = self.sim.faults
        if faults is None:
            return
        stats = faults.stats
        for payload in self.merged_fault_payloads:
            for name in _FAULT_COUNTERS:
                setattr(
                    stats, name,
                    getattr(stats, name) + payload["counters"][name],
                )
        self.merged_fault_payloads = []
        faults.settle_crashes(round_number)

    # ------------------------------------------------------------------
    # worker conversation
    # ------------------------------------------------------------------
    def _collect_round_reports(
        self, round_number: int
    ) -> List[Tuple[int, Dict[str, Any]]]:
        frames = self.pending_frames
        reports: List[Tuple[int, Dict[str, Any]]] = []
        for shard, conn, _proc in self.children:
            if self.alive[shard]:
                conn.send(("round", round_number, frames[shard]))
                frames[shard] = []
                self.pending_future_len[shard] = 0
                self.pending_min_due[shard] = None
        if self.alive[0]:
            report0 = self.worker0.process_round(round_number, frames[0])
            frames[0] = []
            self.pending_future_len[0] = 0
            self.pending_min_due[0] = None
            reports.append((0, report0))
        for shard, conn, proc in self.children:
            if self.alive[shard]:
                reports.append(
                    (shard, self._recv(shard, conn, proc, round_number))
                )
        for shard, report in reports:
            if "error" in report:
                self.alive[shard] = False
                self.shutdown()
                raise report["error"]
        return reports

    def _broadcast_collect(self, command, round_number: int = -1) -> Dict[int, Any]:
        """Send one command to every live child and gather the replies."""
        replies: Dict[int, Any] = {}
        for shard, conn, _proc in self.children:
            if self.alive[shard]:
                conn.send(command)
        for shard, conn, proc in self.children:
            if self.alive[shard]:
                reply = self._recv(shard, conn, proc, round_number)
                if isinstance(reply, dict) and "error" in reply:
                    self.shutdown()
                    raise reply["error"]
                replies[shard] = reply
        return replies

    # ------------------------------------------------------------------
    # run-end reconciliation
    # ------------------------------------------------------------------
    def _patch_clean(self, shard: int, extracts) -> None:
        nodes = self.sim.nodes
        for node_id, bc_raw, diameter, start, done in extracts:
            node = nodes[node_id]
            inner = _unwrap(node)
            if hasattr(inner, "aggregation"):
                inner.aggregation.betweenness_raw = bc_raw
            _patch_outputs(node, diameter, start, done)

    def _patch_partial(self, shard: int, extracts) -> None:
        nodes = self.sim.nodes
        for node_id, partial, sent, diameter, start, done in extracts:
            _patch_outputs(nodes[node_id], diameter, start, done, sent, partial)

    def _patch_dead_partial(self, payload, complete_set) -> None:
        arith = self.arith
        nodes = self.sim.nodes
        for entry in payload["nodes"]:
            node_id = entry["node"]
            total = arith.psi_zero()
            for source, sigma, psi in entry["rows"]:
                if source != node_id and source in complete_set:
                    total = arith.psi_add(
                        total, arith.dependency(psi, sigma)
                    )
            _patch_outputs(
                nodes[node_id], entry["diameter"], entry["start"],
                entry["done"], entry["sent"], total,
            )

    def _attach_shard_summary(self) -> None:
        self.stats.shard = {
            "workers": self.n_shards,
            "partitioner": self.partitioner,
            "edge_cut": self.cut_edges,
            "cross_messages": self.cross_messages,
            "cross_bits": self.cross_bits,
            "per_shard": [
                {
                    "shard": shard,
                    "nodes": len(self.shards[shard]),
                    "ledger_words": self.ledger_words[shard],
                }
                for shard in range(self.n_shards)
            ],
        }
        if self.supervision is not None or self.resumed_from is not None:
            self.stats.supervisor = {
                "restarts": sum(self.restarts),
                "restarts_per_shard": list(self.restarts),
                "hang_detections": self.hang_detections,
                "rollbacks": self.rollbacks,
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_seconds": round(self.checkpoint_seconds, 6),
                "last_checkpoint_round": (
                    self._last_ckpt_round
                    if self._last_ckpt_round >= 0 else None
                ),
                "resumed_from": self.resumed_from,
                "shards_abandoned": sorted(self.infra_dead),
            }

    def _finish(self, round_number: int) -> SimulationStats:
        replies = self._broadcast_collect(("finish",), round_number)
        for shard, reply in replies.items():
            self._absorb_common(shard, reply)
            self._patch_clean(shard, reply["extracts"])
        for shard, payload in self.dead_payloads.items():
            # A permanently-crashed shard cannot have let the run reach
            # clean termination, but reconcile defensively.
            self._patch_clean(
                shard,
                [
                    (e["node"], None, e["diameter"], e["start"], e["done"])
                    for e in payload["nodes"]
                ],
            )
        if self.alive[0]:
            self._absorb_worker0()
        self._merge_fault_stats(round_number)
        self._attach_shard_summary()
        self.stats.rounds = round_number
        return self.stats

    def _stall(self, round_number: int) -> None:
        """Three-phase stall collection, then raise the structured error."""
        sim = self.sim
        sent_by_node: Dict[int, frozenset] = {}
        if self.alive[0]:
            sent_by_node.update(self.worker0.stall_sent_sources())
        for shard, reply in self._broadcast_collect(
            ("stall",), round_number
        ).items():
            sent_by_node.update(reply)
        for payload in self.dead_payloads.values():
            for entry in payload["nodes"]:
                sent_by_node[entry["node"]] = entry["sent"]
        config = self.config
        expected = sorted(
            v for v in range(self.n)
            if config is not None and config.is_source(v)
        )
        complete = frozenset(
            source
            for source in expected
            if all(
                source in sent
                for owner, sent in sent_by_node.items()
                if owner != source
            )
        )
        for shard, reply in self._broadcast_collect(
            ("partial", complete), round_number
        ).items():
            self._absorb_common(shard, reply)
            self._patch_partial(shard, reply["extracts"])
        for payload in self.dead_payloads.values():
            self._patch_dead_partial(payload, complete)
        if self.alive[0]:
            self._absorb_worker0()
        self._merge_fault_stats(round_number)
        self._attach_shard_summary()
        crashed = (
            tuple(sim.faults.crashed_nodes(round_number))
            if sim.faults is not None else ()
        )
        if self.infra_dead:
            # Members of abandoned shards are unreachable for the same
            # practical reason crashed nodes are; report them alongside.
            merged = set(crashed)
            for shard in self.infra_dead:
                merged.update(self.shards[shard])
            crashed = tuple(sorted(merged))
        raise SimulationStalledError(
            round_number,
            self.last_progress,
            self._pending_nodes(),
            crashed,
        )

    def _abort(self, round_number: int) -> None:
        self.shutdown()
        raise SimulationNotTerminatedError(
            round_number,
            self.sim.max_rounds,
            self._pending_nodes(),
            self.sim.graph.name,
        )

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Drive the merge loop, recovering from worker failures.

        Unsupervised this is exactly one ``_run_loop`` pass.  Supervised,
        a :class:`WorkerFailure` escaping the loop (dead or hung worker,
        detected anywhere a reply is awaited) triggers a rollback in
        ``_recover`` and the loop re-enters at the restored round.
        """
        start = self.start_round
        while True:
            try:
                return self._run_loop(start)
            except WorkerFailure as failure:
                start = self._recover(failure)

    def _run_loop(self, start_round: int) -> SimulationStats:
        sim = self.sim
        stats = self.stats
        telemetry = sim.telemetry
        on_tick = None
        if telemetry is not None and getattr(telemetry, "wants_ticks", False):
            on_tick = telemetry.on_round_tick
        on_round_end = (
            telemetry.on_round_end if telemetry is not None else None
        )
        faults = sim.faults
        sup = self.supervision
        checkpoint_every = (
            sup.checkpoint_every
            if sup is not None and self._ckpt_run_dir is not None else 0
        )
        max_rounds = sim.max_rounds
        by_sender = itemgetter(0)
        round_number = start_round
        while True:
            if on_tick is not None:
                on_tick(round_number)
            deadline = None
            if faults is not None:
                deadline = stall_deadline(
                    faults.plan, self.last_progress, self.n
                )
                if round_number >= deadline and self._pending_nodes():
                    self._stall(round_number)
            if round_number > max_rounds:
                self._abort(round_number)
            min_future = self._global_min_future()
            traffic = self.fresh_next or (
                min_future is not None and min_future <= round_number
            )
            if not traffic and round_number > 0:
                if self.done_count == self.n and not self._global_future_len():
                    break
                alive_wake = self._alive_min_wake()
                if alive_wake is None or alive_wake > round_number:
                    # Idle at this round for every live shard:
                    # fast-forward like the event engine.
                    skip_to = max_rounds + 1
                    for bound in (alive_wake, min_future):
                        if bound is not None and bound < skip_to:
                            skip_to = bound
                    if skip_to == max_rounds + 1 and self.infra_dead:
                        # Nothing will ever wake again and a shard was
                        # abandoned mid-protocol.  Without a fault plan
                        # no stall-patience timer exists, so degrade to
                        # the partial-collection path here instead of
                        # fast-forwarding into the round-limit abort.
                        self._stall(round_number)
                    if deadline is not None and round_number < deadline:
                        skip_to = min(skip_to, deadline)
                    while round_number < skip_to:
                        stats.start_round()
                        round_number += 1
                    continue
            # Processed round: checkpoint at the barrier (pre-round state,
            # so a resumed run re-enters the loop right here), then the
            # barrier itself.
            if (
                checkpoint_every
                and round_number > 0
                and round_number % checkpoint_every == 0
                and round_number > self._last_ckpt_round
            ):
                self._write_checkpoint(round_number)
            self.fresh_next = False
            reports = self._collect_round_reports(round_number)
            stats.start_round()
            merged: Dict[Tuple[int, int], List[int]] = {}
            edge_lists = [
                report["edges"] for _shard, report in reports
                if report["edges"]
            ]
            if edge_lists:
                if len(edge_lists) == 1:
                    entries = edge_lists[0]
                else:
                    entries = heapq.merge(*edge_lists, key=by_sender)
                for sender, receiver, messages, bits in entries:
                    merged[(sender, receiver)] = [messages, bits]
            if merged:
                stats.observe_round(round_number, merged)
                if on_round_end is not None:
                    on_round_end(round_number, merged)
            for shard, report in reports:
                self._apply_report(shard, report)
            for shard, report in reports:
                self._route_outbox(shard, round_number, report)
            for shard, report in reports:
                if "shard_dead" in report:
                    self._mark_dead(shard, report["shard_dead"])
            round_number += 1
        return self._finish(round_number)


def run_shard(simulator) -> SimulationStats:
    """Execute ``simulator`` across ``simulator.workers`` processes.

    Called by :meth:`Simulator.run` for ``engine="shard"`` (after the
    dispatcher validated the capability envelope).  Returns the populated
    stats; raises exactly the errors the event engine would.
    """
    coordinator = _Coordinator(simulator)
    coordinator.start()
    try:
        return coordinator.run()
    finally:
        # Clean termination and the stall path already told every live
        # worker to exit (the finish/partial commands are terminal);
        # this sweep covers abrupt error paths and is idempotent.
        coordinator.shutdown()
