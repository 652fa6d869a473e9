"""The bulk engine: whole-protocol execution as closed-form schedule + arrays.

The paper's protocol is *oblivious*: once the graph, the root and the
configuration are fixed, every round of every phase is determined by
closed-form recurrences (Lemmas 2-5) — the spanning-tree flood settles
node v at its BFS depth, the DFS token walk is a fixed Euler tour, BFS(s)
reaches v exactly at round ``T_s + d(s, v)``, and the aggregation send
for (s, v) fires at ``base + T_s + D - d(s, v)``.  This engine therefore
never steps node objects.  It

1. derives the full round schedule in O(N + E) Python (tree depths,
   census/announce rounds, the token walk, the completion convergecast),
2. runs one *batched* multi-source BFS over all sources at once as numpy
   structure-of-arrays ops — per-(source, node) distance/sigma/psi lanes,
   sigma as exact integers until a count could round, and
   :mod:`repro.engines.lfmath` carrying the L-float mantissa and
   exponent in int64 arrays, bit-identical to the scalar arithmetic the
   other engines run,
3. builds a *factored* send inventory — one event per node-round
   broadcast (TreeWave, BfsWave) plus point-to-point rows for the rest —
   and reduces it into :class:`SimulationStats` with array ops, never
   listing the wave broadcasts send by send, and
4. back-fills the node objects (tree / counting / aggregation state and
   lazily-materialized ledgers) so every public observable — results,
   stats, per-node state — is indistinguishable from a ``sweep`` run.

Billed bits are computed from the closed-form wire widths (the codec's
layouts are fixed-width except the census varints, which are computed
per value); a deterministic **sampling audit** encodes a sample of
per-edge round frames through :func:`repro.wire.codec.encode_frame` and
cross-checks the charged totals, failing with the same
:class:`~repro.exceptions.WireCodecError` the sweep engine's frame audit
raises.  When a run needs per-send observability (a tracer, the full
frame audit, telemetry send/round monitors) or ends exceptionally
(strict-mode violation, round-limit overrun), the engine expands the
inventory send by send and *replays* it through the round driver and
the kernel's send path that every other engine runs — same drain
order, same message objects, same partial state at the point of raise.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from time import perf_counter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arithmetic.lfloat import LFloat, Rounding
from repro.congest.kernel import RoundKernel, drive_rounds
from repro.core.config import UNIT_STRESS
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
from repro.core.records import NodeLedger
from repro.core.schedule import (
    census_schedule,
    dfs_token_schedule,
    tree_schedule,
)
from repro.engines import lfmath
from repro.exceptions import ProtocolError, WireCodecError
from repro.wire.bits import uint_bits
from repro.wire.codec import encode_frame
from repro.wire.format import TYPE_TAG_BITS

__all__ = ["run_bulk", "populate_stats", "Inventory"]

# ---------------------------------------------------------------------------
# Drain-order slots.
#
# The sweep engine steps nodes in id order and drains each node's sends
# in the order the phase handlers enqueue them.  Within one node's round
# that order is fixed by the handler sequence in BetweennessNode.on_round
# (tree -> counting -> aggregation) and by each handler's internal order;
# the slots below encode it, so the global drain order of any send is the
# tuple (round, sender, slot, seq).  Slots 4 and 6 never co-occur (the
# separation invariant), and every (round, sender, slot, seq) is unique.
# ---------------------------------------------------------------------------
_SLOT_TREE_WAVE = 0  # TreePhase._settle: TreeWave broadcast
_SLOT_TREE_JOIN = 1  # TreePhase._settle: TreeJoin to the parent
_SLOT_CENSUS = 2  # _maybe_send_count: SubtreeCount, or the root's Announce
_SLOT_ANNOUNCE_FWD = 3  # _handle_announce: forward Announce to children
_SLOT_WAVE_SETTLE = 4  # CountingPhase._settle_source broadcast
_SLOT_TOKEN_BACK = 5  # _handle_tokens: immediate forward of a backtrack
_SLOT_WAVE_OWN = 6  # _maybe_start_bfs: own-BFS launch broadcast
_SLOT_TOKEN_DELAY = 7  # _maybe_forward_token: the one-slot-delayed forward
_SLOT_REPORT = 8  # _maybe_report_done: DoneReport, or the root's AggStart
_SLOT_AGGSTART_FWD = 9  # AggregationPhase.handle_start forward
_SLOT_AGGVALUE = 10  # AggregationPhase.on_round scheduled send
_SLOT_STRIDE = 16

# Message kinds of the expanded sends; ``aux`` carries the kind-specific
# payload handle (a scalar, or a packed pair index).
_K_TREE_WAVE = 0
_K_TREE_JOIN = 1
_K_COUNT = 2
_K_ANNOUNCE = 3
_K_TOKEN = 4
_K_WAVE = 5
_K_DONE = 6
_K_AGGSTART = 7
_K_AGGVALUE = 8

#: Edge-round frames cross-checked against the exact codec per fast run.
_AUDIT_SAMPLES = 64


def _lf(m: int, e: int, L: int, mode: Rounding) -> LFloat:
    """Rebuild a scalar LFloat from int64 mantissa/exponent lanes."""
    if m == 0:
        return LFloat.zero(L, mode)
    return LFloat(int(m), int(e), L, mode)


def _rebuild_ledger(state: Dict) -> NodeLedger:
    """Pickle helper: a materialized bulk ledger travels as a plain one."""
    ledger = NodeLedger.__new__(NodeLedger)
    ledger.__setstate__(state)
    return ledger


#: NodeLedger state read by every accessor — index, columns and the CSR
#: predecessor buffers.  Reading any of them on a not-yet-filled bulk
#: ledger triggers the one-time materialization.
_LAZY_ATTRS = frozenset(
    (
        "_index",
        "row_of",
        "source_col",
        "start_col",
        "dist_col",
        "sigma_col",
        "psi_col",
        "sent_col",
        "_pred_flat",
        "_pred_off",
    )
)


class _BulkLedger(NodeLedger):
    """A :class:`NodeLedger` whose rows materialize on first access.

    The bulk engine holds every ledger row in shared plan arrays;
    filling Theta(N^2) per-node ledger rows eagerly would cost more
    than the whole vectorized run.  Any read of the index or a column —
    directly or through a base-class accessor — triggers the one-time
    fill, in ascending settle-round order exactly as the sweep engine
    inserted them.
    """

    def __init__(
        self,
        owner: int,
        fill: Callable[["_BulkLedger"], None],
        summary: Optional[Callable[[], Dict[str, int]]] = None,
    ):
        super().__init__(owner)
        self._fill: Optional[Callable[["_BulkLedger"], None]] = fill
        self._summary = summary

    def __getattribute__(self, name):
        if (
            name in _LAZY_ATTRS
            # __dict__ lookup, not attribute lookup: _fill is absent
            # while the base __init__ seeds the empty columns.
            and object.__getattribute__(self, "__dict__").get("_fill")
            is not None
        ):
            object.__getattribute__(self, "_materialize")()
        return object.__getattribute__(self, name)

    def _materialize(self) -> None:
        fill = self._fill
        if fill is not None:
            self._fill = None
            fill(self)

    def storage_summary(self):
        # The telemetry gauges ask every ledger for its footprint; a
        # closed-form answer off the plan arrays keeps instrumented
        # bulk runs from materializing Theta(N^2) rows just to be
        # measured.
        if self.__dict__.get("_fill") is not None and self._summary is not None:
            return self._summary()
        return NodeLedger.storage_summary(self)

    def __reduce__(self):
        # Closures over the plan arrays don't pickle; a materialized
        # ledger is indistinguishable from a plain one, so ship that
        # (run_many's parallel mode pickles result nodes back).
        self._materialize()
        state = self.__getstate__()
        state.pop("_fill", None)
        state.pop("_summary", None)
        return (_rebuild_ledger, (state,))


class _Plan:
    """Everything :func:`run_bulk` derives before touching the stats."""

    __slots__ = (
        "N", "root", "L", "aggregate",
        "depth", "parent", "children", "depth_max",
        "census_send", "r_census", "subtree_size",
        "first_visit", "dfs_complete",
        "src", "s_idx_of", "T",
        "dist_flat", "sig_m", "sig_e", "psi_m", "psi_e", "val_m", "val_e",
        "pred_indptr", "pred_rows", "pair_rows",
        "ecc", "subtree_ecc", "done_send", "r_result",
        "diameter", "t_max", "base", "horizon",
        "rounds", "done_round",
        "bet_m", "bet_e",
        "indptr", "indices", "deg", "py_rows", "inv",
    )


# ---------------------------------------------------------------------------
# schedule derivation
# ---------------------------------------------------------------------------
def _csr(graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency with neighbor lists in ascending-id order."""
    n = graph.num_nodes
    deg = np.empty(n, dtype=np.int64)
    chunks: List[Tuple[int, ...]] = []
    for v in range(n):
        nbrs = graph.neighbors(v)
        deg[v] = len(nbrs)
        chunks.append(nbrs)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(
        (u for nbrs in chunks for u in nbrs), dtype=np.int64, count=int(indptr[-1])
    )
    return indptr, indices, deg


# The tree / census / DFS-token schedules are shared with the pure-
# Python progress estimator and live in repro.core.schedule; the bulk
# engine wires its drain-order slot constants into the token walk.


# ---------------------------------------------------------------------------
# the batched multi-source BFS and the psi recursion
# ---------------------------------------------------------------------------
def _ordered_fold(acc_m, acc_e, src_m, src_e, first, counts, L, mode):
    """Left-fold ``src`` rows into ``acc`` per group, in row order.

    Groups are contiguous runs ``src[first[g] : first[g] + counts[g]]``;
    the fold applies ``acc = lf_add(acc, row)`` one position at a time
    across all groups simultaneously, reproducing the scalar engines'
    strictly sequential accumulation order (ascending sender) bit for
    bit.  Groups are ranked once by count, longest first, so step ``j``
    works on the prefix of groups that still hold a ``j``-th row: the
    total work is the row count, however heavy-tailed the counts.
    """
    if counts.size == 0:
        return acc_m, acc_e
    rank = np.argsort(-counts, kind="stable")
    rows = first[rank]
    m = acc_m[rank]
    e = acc_e[rank]
    # live[j]: the number of groups with more than j rows.
    live = counts.size - np.cumsum(np.bincount(counts))
    for j, k in enumerate(live[:-1].tolist()):
        at = rows[:k] + j
        m[:k], e[:k] = lfmath.lf_add(
            m[:k], e[:k], src_m[at], src_e[at], L, mode
        )
    acc_m[rank] = m
    acc_e[rank] = e
    return acc_m, acc_e


def _batched_bfs(plan: _Plan, indptr, indices, deg):
    """All-source level-synchronous BFS with packed (source, node) keys.

    Pair ``p = s_idx * N + v`` settles at level ``d(s, v)``.  Each level
    expands the (sorted) frontier into rows ``(pred, succ)`` — grouped
    by predecessor pair with successors ascending — and stably sorts
    them by successor, which yields the (pair, pred) order: the scalar
    inbox order (ascending sender) and the record's sorted predecessor
    tuple.

    Sigma is an exact integer lane while it can be.  The scalar engines
    fold ``from_int(1)`` values with ceil rounding, but a sum of
    non-negative integers below ``2**L`` is an L-float, so every partial
    sum is exact and ceil never fires (Lemma 1).  Each level therefore
    settles with one ``add.reduceat``; the first level whose settled sum
    reaches ``2**L`` converts the lane to (m, e) and it and every later
    level fold with ceil rounding, exactly like
    ``CountingPhase._settle_source``.  Addends stay below ``2**30`` and
    number at most N per pair, so the int64 lane cannot overflow.

    Returns the per-level ``(pred, succ, order)`` rows (``order`` sorts
    them by (succ, pred)) and the pairs settled at each level.
    """
    N = plan.N
    L = plan.L
    S = len(plan.src)
    pair0 = np.arange(S, dtype=np.int64) * N + plan.src
    dist = np.full(S * N, -1, dtype=np.int64)
    dist[pair0] = 0
    sig = np.zeros(S * N, dtype=np.int64)
    sig[pair0] = 1
    sig_m = sig_e = None
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    settled: List[np.ndarray] = [pair0]
    frontier = pair0
    level = 0
    while frontier.size:
        level += 1
        vs = frontier % N
        counts = deg[vs]
        base = np.cumsum(counts) - counts
        edge = np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
            indptr[vs] - base, counts
        )
        cand = np.repeat(frontier - vs, counts) + indices[edge]
        mask = dist[cand] < 0
        succ = cand[mask]
        if succ.size == 0:
            break
        pred = np.repeat(frontier, counts)[mask]
        order = np.argsort(succ, kind="stable")
        qs = succ[order]  # settling pairs and their predecessor pairs,
        ps = pred[order]  # in (pair, pred) order
        first = np.flatnonzero(np.diff(qs, prepend=qs[:1] - 1))
        uniq = qs[first]
        dist[uniq] = level
        if sig_m is None:
            total = np.add.reduceat(sig[ps], first)
            if total.max() < (1 << L):
                sig[uniq] = total
            else:
                sig_m, sig_e = lfmath.lf_from_int(sig, L)
                sig = None
        if sig_m is not None:
            acc_m = sig_m[ps[first]]
            acc_e = sig_e[ps[first]]
            # Remaining predecessors fold in ascending-sender order (ceil).
            _ordered_fold(
                acc_m, acc_e, sig_m[ps], sig_e[ps],
                first + 1, np.diff(first, append=qs.size) - 1, L, "ceil",
            )
            sig_m[uniq] = acc_m
            sig_e[uniq] = acc_e
        levels.append((pred, succ, order))
        settled.append(uniq)
        frontier = uniq
    if sig_m is None:
        sig_m, sig_e = lfmath.lf_from_int(sig, L)
    plan.dist_flat = dist
    plan.sig_m = sig_m
    plan.sig_e = sig_e
    return levels, settled


def _psi_recursion(plan: _Plan, config, levels, settled):
    """Descending-level psi/value computation (Algorithm 3, Eq. 14).

    Values telescope down the BFS DAG: pairs at level l send
    ``unit + psi`` to their predecessors at level l - 1, whose psi is the
    ascending-sender floor-fold of the arriving values — one fold per
    pair, because all of a pair's successors send in the same round.
    The BFS expansion rows are already in that order (grouped by
    predecessor, successors ascending), so no level is re-sorted.
    Consumes ``levels`` and ``settled``, freeing each level's rows once
    folded.
    """
    N = plan.N
    L = plan.L
    size = plan.sig_m.size
    psi_m = np.zeros(size, dtype=np.int64)
    psi_e = np.zeros(size, dtype=np.int64)
    val_m = np.zeros(size, dtype=np.int64)
    val_e = np.zeros(size, dtype=np.int64)
    one = np.int64(1) << (L - 1)
    # The unit term, masked to target pairs (non-targets relay psi only).
    target_mask = np.fromiter(
        (config.is_target(v) for v in range(N)), dtype=bool, count=N
    )
    tpair = np.tile(target_mask, size // N)
    if config.unit == UNIT_STRESS:
        unit_m = np.where(tpair, one, np.int64(0))
        unit_e = np.where(tpair, np.int64(1), np.int64(0))
    else:
        rm, re = lfmath.lf_reciprocal(
            np.where(tpair, plan.sig_m, one),
            np.where(tpair, plan.sig_e, np.int64(0)),
            L,
        )
        unit_m = np.where(tpair, rm, np.int64(0))
        unit_e = np.where(tpair, re, np.int64(0))
    while levels:
        pairs = settled.pop()
        vm, ve = lfmath.lf_add(
            unit_m[pairs], unit_e[pairs], psi_m[pairs], psi_e[pairs], L, "floor"
        )
        val_m[pairs] = vm
        val_e[pairs] = ve
        recv, send = levels.pop()
        first = np.flatnonzero(np.diff(recv, prepend=recv[:1] - 1))
        # A fold from zero starts with its first row verbatim.
        acc_m = val_m[send[first]]
        acc_e = val_e[send[first]]
        _ordered_fold(
            acc_m, acc_e, val_m[send], val_e[send],
            first + 1, np.diff(first, append=recv.size) - 1, L, "floor",
        )
        uniq = recv[first]
        psi_m[uniq] = acc_m
        psi_e[uniq] = acc_e
    plan.psi_m = psi_m
    plan.psi_e = psi_e
    plan.val_m = val_m
    plan.val_e = val_e


def _betweenness_fold(plan: _Plan):
    """Per-node ledger fold of line 17-18, in settle-round order."""
    N = plan.N
    L = plan.L
    S = len(plan.src)
    dep_m, dep_e = lfmath.lf_mul(
        plan.psi_m, plan.psi_e, plan.sig_m, plan.sig_e, L, "nearest"
    )
    own = np.arange(S, dtype=np.int64) * N + plan.src
    # The node's own source contributes nothing; a zero lane is the
    # exact skip (psi_add(total, zero) returns total verbatim).
    dep_m[own] = 0
    dep_e[own] = 0
    settle = np.repeat(plan.T, N) + plan.dist_flat
    dm = dep_m.reshape(S, N).T
    de = dep_e.reshape(S, N).T
    order = np.argsort(settle.reshape(S, N).T, axis=1)
    dm = np.take_along_axis(dm, order, axis=1)
    de = np.take_along_axis(de, order, axis=1)
    acc_m = np.zeros(N, dtype=np.int64)
    acc_e = np.zeros(N, dtype=np.int64)
    for j in range(S):
        acc_m, acc_e = lfmath.lf_add(
            acc_m, acc_e, dm[:, j], de[:, j], L, "floor"
        )
    plan.bet_m = acc_m
    plan.bet_e = acc_e


# ---------------------------------------------------------------------------
# the factored send inventory
# ---------------------------------------------------------------------------
class Inventory(NamedTuple):
    """Every send of a run, factored into broadcasts and point-to-point rows.

    A *broadcast event* ``(round, sender, slot, bits)`` is one TreeWave or
    BfsWave broadcast: it puts one ``bits``-bit message on each of the
    sender's edges, the j-th neighbour of the CSR row receiving it as
    send ``seq = j`` of that slot.  The N + S * N events stand for all
    S * 2E wave sends.  *Point-to-point rows* ``(round, sender, target,
    bits, rank)`` carry the rest: the O(N + E) tree, census, token,
    report and announce sends and the AggValue sends to predecessors.
    Every send's drain rank is ``((round * N + sender) * _SLOT_STRIDE +
    slot) * N + seq``, so both parts order into one global drain order.

    ``agg_snd`` / ``agg_round`` / ``agg_src`` list the aggregation
    schedule, one entry per value a node sends, sorted by (sender,
    round); :func:`populate_stats` holds it to Lemma 4.
    """

    n_nodes: int
    rounds: int
    indptr: np.ndarray
    indices: np.ndarray
    b_round: np.ndarray
    b_snd: np.ndarray
    b_slot: np.ndarray
    b_bits: np.ndarray
    p_round: np.ndarray
    p_snd: np.ndarray
    p_tgt: np.ndarray
    p_bits: np.ndarray
    p_rank: np.ndarray
    agg_snd: np.ndarray
    agg_round: np.ndarray
    agg_src: np.ndarray

    @property
    def message_count(self) -> int:
        fan = np.diff(self.indptr)[self.b_snd]
        return int(fan.sum()) + int(self.p_round.size)


def _rank(r, snd, slot, seq, n_nodes):
    """Global drain rank of a send (see :class:`Inventory`)."""
    return ((r * n_nodes + snd) * _SLOT_STRIDE + slot) * n_nodes + seq


def _billed_widths(wire, n_nodes: int, L: int) -> Dict[int, int]:
    """Billed bits per message kind, from the codec's field widths.

    Every layout is fixed-width except SubtreeCount, whose entry is its
    tag alone: the count's varint is added per value.
    """
    tag = TYPE_TAG_BITS
    return {
        _K_TREE_WAVE: tag + wire.distance_bits,
        _K_TREE_JOIN: tag,
        _K_COUNT: tag,
        _K_ANNOUNCE: tag + uint_bits(n_nodes),
        _K_TOKEN: tag + 1,
        _K_WAVE: tag + wire.id_bits + wire.round_bits + wire.distance_bits
        + 2 * L + 1,
        _K_DONE: tag + wire.distance_bits,
        _K_AGGSTART: tag + wire.distance_bits + 2 * wire.round_bits,
        _K_AGGVALUE: tag + wire.id_bits + 2 * L + 1,
    }


def _inventory(plan: _Plan, sim, token_sends) -> Inventory:
    """Build the factored inventory: O(N + S * N) events and rows.

    Tree/census/token/report traffic is assembled in Python; the wave
    broadcasts, the AggValue rows and the aggregation schedule are array
    ops.
    """
    N = plan.N
    S = len(plan.src)
    width = _billed_widths(sim.wire, N, plan.L)

    rows: List[Tuple[int, int, int, int, int, int, int, int]] = []
    depth = plan.depth
    parent = plan.parent
    root = plan.root
    r_census = plan.r_census
    for v in range(N):
        dv = depth[v]
        if v != root:
            rows.append((dv, v, parent[v], width[_K_TREE_JOIN],
                         _SLOT_TREE_JOIN, 0, _K_TREE_JOIN, 0))
            rows.append((plan.census_send[v], v, parent[v],
                         width[_K_COUNT] + uint_bits(plan.subtree_size[v]),
                         _SLOT_CENSUS, 0, _K_COUNT, plan.subtree_size[v]))
            rows.append((plan.done_send[v], v, parent[v], width[_K_DONE],
                         _SLOT_REPORT, 0, _K_DONE, plan.subtree_ecc[v]))
        if v == root:
            ann_round, ann_slot = r_census, _SLOT_CENSUS
            agg_round, agg_slot = plan.r_result, _SLOT_REPORT
        else:
            ann_round, ann_slot = r_census + dv, _SLOT_ANNOUNCE_FWD
            agg_round, agg_slot = plan.r_result + dv, _SLOT_AGGSTART_FWD
        for i, c in enumerate(plan.children[v]):
            rows.append((ann_round, v, c, width[_K_ANNOUNCE], ann_slot, i,
                         _K_ANNOUNCE, N))
            rows.append((agg_round, v, c, width[_K_AGGSTART], agg_slot, i,
                         _K_AGGSTART, 0))
    for t, snd, tgt, returning, slot in token_sends:
        rows.append((t, snd, tgt, width[_K_TOKEN], slot, 0, _K_TOKEN,
                     returning))
    py = np.array(rows, dtype=np.int64)
    plan.py_rows = py
    p_parts = [
        [py[:, 0]], [py[:, 1]], [py[:, 2]], [py[:, 3]],
        [_rank(py[:, 0], py[:, 1], py[:, 4], py[:, 5], N)],
    ]

    # Broadcast events: each node's TreeWave at its settle round, then
    # every settled pair's BfsWave (own launches use the later slot) —
    # event i < N is node i's TreeWave, event N + p is pair p's wave.
    nodes = np.arange(N, dtype=np.int64)
    b_round = np.concatenate((
        np.asarray(depth, dtype=np.int64),
        np.repeat(plan.T, N) + plan.dist_flat,
    ))
    b_snd = np.tile(nodes, S + 1)
    b_slot = np.concatenate((
        np.full(N, _SLOT_TREE_WAVE, dtype=np.int64),
        np.where(plan.dist_flat == 0, np.int64(_SLOT_WAVE_OWN),
                 np.int64(_SLOT_WAVE_SETTLE)),
    ))
    b_bits = np.full(b_round.size, width[_K_WAVE], dtype=np.int64)
    b_bits[:N] = width[_K_TREE_WAVE]

    agg_snd = agg_round = agg_src = np.empty(0, dtype=np.int64)
    if plan.aggregate:
        # Pair (s, v) sends at base + T_s + D - d(s, v) to each
        # predecessor, in sorted-predecessor order.
        send_round = (
            plan.base + plan.diameter + np.repeat(plan.T, N) - plan.dist_flat
        )
        pair_rows, pred_rows = plan.pair_rows, plan.pred_rows
        seq = np.arange(pred_rows.size, dtype=np.int64) - np.repeat(
            plan.pred_indptr[:-1], np.diff(plan.pred_indptr)
        )
        av_r = send_round[pair_rows]
        av_snd = pair_rows % N
        for part, col in zip(p_parts, (
            av_r, av_snd, pred_rows,
            np.full(av_r.size, width[_K_AGGVALUE], dtype=np.int64),
            _rank(av_r, av_snd, _SLOT_AGGVALUE, seq, N),
        )):
            part.append(col)
        # The schedule, sender-major: a source never sends for itself,
        # so its own pair parks at the int64 max, sorts last and drops.
        by_node = send_round.reshape(S, N).T.copy()
        by_node[plan.src, np.arange(S)] = np.iinfo(np.int64).max
        order = np.argsort(by_node, axis=1)
        by_node = np.take_along_axis(by_node, order, axis=1)
        real = by_node != np.iinfo(np.int64).max
        agg_round = by_node[real]
        agg_src = plan.src[order[real]]
        agg_snd = np.repeat(nodes, real.sum(axis=1))

    return Inventory(
        N, plan.rounds, plan.indptr, plan.indices,
        b_round, b_snd, b_slot, b_bits,
        *(np.concatenate(part) for part in p_parts),
        agg_snd, agg_round, agg_src,
    )


def _b_refs(plan: _Plan, ev):
    """(kind, aux) message handles of broadcast events ``ev``."""
    tree = ev < plan.N
    kind = np.where(tree, _K_TREE_WAVE, _K_WAVE)
    aux = np.where(tree, plan.inv.b_round[ev], ev - plan.N)
    return kind, aux


def _p_refs(plan: _Plan, rows):
    """(kind, aux) message handles of point-to-point rows ``rows``."""
    py = plan.py_rows
    n_py = py.shape[0]
    in_py = rows < n_py
    at_py = np.minimum(rows, n_py - 1)
    kind = np.where(in_py, py[at_py, 6], _K_AGGVALUE)
    aux = np.where(
        in_py, py[at_py, 7], plan.pair_rows[np.maximum(rows - n_py, 0)]
    )
    return kind, aux


def _expand(plan: _Plan):
    """Per-send ``(round, sender, target, kind, aux)`` lists, drain order.

    The only per-send builder: replay alone needs the sends one by one.
    """
    inv = plan.inv
    N = plan.N
    fan = plan.deg[inv.b_snd]
    ev = np.repeat(np.arange(fan.size, dtype=np.int64), fan)
    seq = np.arange(ev.size, dtype=np.int64) - np.repeat(
        np.cumsum(fan) - fan, fan
    )
    b_r = inv.b_round[ev]
    b_snd = inv.b_snd[ev]
    b_kind, b_aux = _b_refs(plan, ev)
    p_kind, p_aux = _p_refs(
        plan, np.arange(inv.p_round.size, dtype=np.int64)
    )
    rank = np.concatenate(
        (_rank(b_r, b_snd, inv.b_slot[ev], seq, N), inv.p_rank)
    )
    order = np.argsort(rank)
    return [
        np.concatenate(cols)[order].tolist()
        for cols in (
            (b_r, inv.p_round),
            (b_snd, inv.p_snd),
            (inv.indices[inv.indptr[b_snd] + seq], inv.p_tgt),
            (b_kind, p_kind),
            (b_aux, p_aux),
        )
    ]


# ---------------------------------------------------------------------------
# stats assembly (the fast path)
# ---------------------------------------------------------------------------
class _Reduction(NamedTuple):
    """The groupings :func:`populate_stats` builds, kept for the audit.

    ``b_*``: one broadcast group per (round, sender) node-round, keyed
    ``round * N + sender``.  ``p_*``: one point-to-point group per
    (round, sender, target) edge-round, keyed ``key_b * N + target``;
    ``mixed`` marks those whose sender also broadcast that round, ``at``
    is the matching broadcast group.  Order/first/count locate a group's
    members in the inventory.
    """

    b_order: np.ndarray
    b_first: np.ndarray
    b_cnt: np.ndarray
    b_keys: np.ndarray
    b_load: np.ndarray
    p_order: np.ndarray
    p_first: np.ndarray
    p_cnt: np.ndarray
    p_keys: np.ndarray
    p_load: np.ndarray
    mixed: np.ndarray
    at: np.ndarray


def _group(key):
    """Sort ``key`` into runs: ``(order, first, counts, unique keys)``."""
    order = np.argsort(key)
    ks = key[order]
    starts = np.empty(ks.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    return order, first, np.diff(first, append=ks.size), ks[first]


def _lookup(keys, want):
    """Positions of ``want`` in sorted ``keys``, and which are present."""
    at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    return at, keys[at] == want


def _nbr_seq(inv: Inventory, u, w):
    """Index of neighbour ``w`` in ``u``'s CSR row (vectorized)."""
    n = inv.n_nodes
    csr_key = np.repeat(np.arange(n, dtype=np.int64), np.diff(inv.indptr))
    csr_key = csr_key * n + inv.indices
    return np.searchsorted(csr_key, u * n + w) - inv.indptr[u]


def _check_lemma4(inv: Inventory) -> None:
    """Raise when two aggregation sends share a (round, sender) key."""
    if inv.agg_round.size < 2:
        return
    key = inv.agg_snd * (int(inv.agg_round.max()) + 1) + inv.agg_round
    if (np.diff(key) > 0).all():  # sorted and distinct, as built
        return
    order = np.argsort(key, kind="stable")
    ks = key[order]
    dup = np.flatnonzero(ks[1:] == ks[:-1])
    if dup.size:
        i, j = order[dup[0]], order[dup[0] + 1]
        raise ProtocolError(
            "node {}: sources {} and {} share send round {} — "
            "Lemma 4 violated".format(
                int(inv.agg_snd[i]), int(inv.agg_src[i]),
                int(inv.agg_src[j]), int(inv.agg_round[i]),
            )
        )


def populate_stats(stats, inv: Inventory, budget: Optional[int] = None):
    """Reduce a factored inventory into ``stats`` with array ops.

    An edge-round's load is its sender's broadcast load in that round
    plus any point-to-point load on that edge.  Broadcast events group
    by (round, sender) and point-to-point rows by (round, sender,
    target), both by sorting, so the cost is O(events log events): it
    never touches a rounds x N table nor one entry per wave send (the
    bench suite gates the N-independence).  Reproduces
    ``observe_round`` exactly:

    * ``worst_edge`` is the first edge-round group, scanning rounds in
      order and groups in first-send order within a round, to reach the
      global per-edge bit maximum — the minimum first-send drain rank
      among the groups at the maximum;
    * the cut tracker (if armed) counts crossing edge-round groups and
      their loads, per-round totals keyed in ascending round order.

    Raises :class:`ProtocolError` when the aggregation schedule sends
    twice from one node in one round (Lemma 4).  Returns ``None``,
    leaving ``stats`` untouched, when an edge-round carries more than
    ``budget`` bits — the caller replays to raise at the exact send —
    else the :class:`_Reduction` for the sampling audit.  Both parts of
    the inventory must be non-empty, as in every protocol run.
    """
    _check_lemma4(inv)
    N = inv.n_nodes
    rounds = inv.rounds
    deg = np.diff(inv.indptr)
    b_order, b_first, b_cnt, b_keys = _group(inv.b_round * N + inv.b_snd)
    b_load = np.add.reduceat(inv.b_bits[b_order], b_first)
    b_fan = deg[b_keys % N]
    p_order, p_first, p_cnt, p_keys = _group(
        (inv.p_round * N + inv.p_snd) * N + inv.p_tgt
    )
    p_load = np.add.reduceat(inv.p_bits[p_order], p_first)
    p_node_round = p_keys // N
    at, mixed = _lookup(b_keys, p_node_round)
    # Mixed groups are few: add their broadcast loads in place.
    e_load = p_load.copy()
    e_load[mixed] += b_load[at[mixed]]
    max_bits = max(int(b_load.max()), int(e_load.max()))
    if budget is not None and max_bits > budget:
        return None

    # worst_edge.  A broadcast group at the maximum has no point-to-point
    # load on any edge (it would push that edge past the maximum), so its
    # first send, to neighbour 0, opens a broadcast-only group.
    b_slot = np.minimum.reduceat(inv.b_slot[b_order], b_first)
    b_at = np.flatnonzero(b_load == max_bits)
    e_at = np.flatnonzero(e_load == max_bits)
    e_rank = np.minimum.reduceat(inv.p_rank[p_order], p_first)[e_at]
    m_at = mixed[e_at]
    if m_at.any():
        g = at[e_at[m_at]]
        u = b_keys[g] % N
        e_rank[m_at] = np.minimum(e_rank[m_at], _rank(
            b_keys[g] // N, u, b_slot[g],
            _nbr_seq(inv, u, p_keys[e_at[m_at]] % N), N,
        ))
    b_rank = _rank(b_keys[b_at] // N, b_keys[b_at] % N, b_slot[b_at], 0, N)
    if b_rank.size and (not e_rank.size or b_rank.min() < e_rank.min()):
        key = int(b_keys[b_at[np.argmin(b_rank)]])
        u = key % N
        worst = (key // N, u, int(inv.indices[inv.indptr[u]]))
    else:
        key = int(p_keys[e_at[np.argmin(e_rank)]])
        worst = (key // (N * N), (key // N) % N, key % N)

    b_round = b_keys // N
    b_msgs = b_cnt * b_fan
    b_bits = b_load * b_fan
    msgs_pr = np.bincount(b_round, weights=b_msgs, minlength=rounds)
    msgs_pr += np.bincount(inv.p_round, minlength=rounds)
    bits_pr = np.bincount(b_round, weights=b_bits, minlength=rounds)
    bits_pr += np.bincount(inv.p_round, weights=inv.p_bits, minlength=rounds)
    stats.message_count += int(b_msgs.sum()) + int(inv.p_round.size)
    stats.bit_count += int(b_bits.sum()) + int(inv.p_bits.sum())
    stats.round_series.extend(zip(
        msgs_pr.astype(np.int64).tolist(), bits_pr.astype(np.int64).tolist()
    ))
    stats.max_edge_bits_per_round = max_bits
    stats.max_edge_messages_per_round = max(
        int(b_cnt.max()),
        int(p_cnt.max()),
        int((p_cnt[mixed] + b_cnt[at[mixed]]).max(initial=0)),
    )
    stats.worst_edge = worst
    cut = stats.cut
    if cut is not None:
        # CutTracker.observe runs once per (round, edge) accounting
        # group, so ``messages`` counts crossing *groups* (matching the
        # batched sweep semantics), while ``bits`` sums their loads.  A
        # broadcast group crosses on each of its sender's cut edges.
        left = np.zeros(N, dtype=bool)
        left[list(cut.left)] = True
        owner = np.repeat(np.arange(N, dtype=np.int64), deg)
        cut_deg = np.bincount(
            owner[left[owner] != left[inv.indices]], minlength=N
        )
        b_cross = cut_deg[b_keys % N]
        p_cross = left[p_node_round % N] != left[p_keys % N]
        b_cbits = b_load * b_cross
        cut.messages += int(b_cross.sum()) + int((p_cross & ~mixed).sum())
        cut.bits += int(b_cbits.sum()) + int(p_load[p_cross].sum())
        per_round = np.bincount(b_round, weights=b_cbits, minlength=rounds)
        per_round += np.bincount(
            p_keys[p_cross] // (N * N), weights=p_load[p_cross],
            minlength=rounds,
        )
        for rr in np.flatnonzero(per_round):
            cut.bits_per_round[int(rr)] = (
                cut.bits_per_round.get(int(rr), 0) + int(per_round[rr])
            )
    return _Reduction(
        b_order, b_first, b_cnt, b_keys, b_load,
        p_order, p_first, p_cnt, p_keys, p_load, mixed, at,
    )


# ---------------------------------------------------------------------------
# message materialization (replay + sampling audit)
# ---------------------------------------------------------------------------
class _Materializer:
    """Rebuilds the concrete :mod:`repro.wire` message for a send row."""

    def __init__(self, plan: _Plan):
        self.plan = plan
        self._lf_cache: Dict[Tuple[int, int], Any] = {}
        self._agg_start = AggStart(plan.diameter, plan.t_max, plan.base)
        n = plan.N
        self._announce = Announce(n)
        self._token = DfsToken()
        self._token_back = DfsToken(returning=True)
        self._join = TreeJoin()

    def message(self, kind: int, aux: int):
        plan = self.plan
        if kind == _K_WAVE:
            cached = self._lf_cache.get((kind, aux))
            if cached is None:
                p = aux
                sigma = _lf(
                    plan.sig_m[p], plan.sig_e[p], plan.L, Rounding.CEIL
                )
                cached = BfsWave(
                    int(plan.src[p // plan.N]),
                    int(plan.T[p // plan.N]),
                    int(plan.dist_flat[p]),
                    sigma,
                )
                self._lf_cache[(kind, aux)] = cached
            return cached
        if kind == _K_AGGVALUE:
            cached = self._lf_cache.get((kind, aux))
            if cached is None:
                p = aux
                value = _lf(
                    plan.val_m[p], plan.val_e[p], plan.L, Rounding.FLOOR
                )
                cached = AggValue(int(plan.src[p // plan.N]), value)
                self._lf_cache[(kind, aux)] = cached
            return cached
        if kind == _K_TREE_WAVE:
            return TreeWave(aux)
        if kind == _K_TREE_JOIN:
            return self._join
        if kind == _K_COUNT:
            return SubtreeCount(aux)
        if kind == _K_ANNOUNCE:
            return self._announce
        if kind == _K_TOKEN:
            return self._token_back if aux else self._token
        if kind == _K_DONE:
            return DoneReport(aux)
        return self._agg_start  # _K_AGGSTART


def _spread(pool: np.ndarray, k: int) -> np.ndarray:
    """``k`` entries of ``pool`` at an even stride (all when it is small)."""
    if pool.size <= k:
        return pool
    return pool[np.linspace(0, pool.size - 1, k).astype(np.int64)]


def _audit_edges(
    plan: _Plan, red: _Reduction, worst
) -> List[Tuple[int, int, int]]:
    """The (round, sender, target) edge-rounds the sampling audit encodes.

    ``_AUDIT_SAMPLES`` groups spread over the three group classes —
    broadcast-only, mixed and point-to-point-only, a class short of its
    share leaving the rest to the others — plus, for every message kind,
    the edge carrying its first send, plus the worst edge.
    """
    inv = plan.inv
    N = plan.N
    mixed_pool = np.flatnonzero(red.mixed)
    p_pool = np.flatnonzero(~red.mixed)
    covered = np.bincount(red.at[red.mixed], minlength=red.b_keys.size)
    b_pool = np.flatnonzero(covered < plan.deg[red.b_keys % N])
    pools = [b_pool, mixed_pool, p_pool]
    share = [0, 0, 0]
    left = _AUDIT_SAMPLES
    for n_left, c in enumerate(sorted(range(3), key=lambda c: pools[c].size)):
        share[c] = min(pools[c].size, left // (3 - n_left))
        left -= share[c]
    edges: List[Tuple[int, int, int]] = []
    p_keys = red.p_keys
    for g in _spread(b_pool, share[0]).tolist():
        # The first neighbour this node-round sends nothing else to.
        key = int(red.b_keys[g])
        u = key % N
        nbrs = inv.indices[inv.indptr[u]: inv.indptr[u + 1]]
        _at, taken = _lookup(p_keys, key * N + nbrs)
        edges.append((key // N, u, int(nbrs[np.argmin(taken)])))
    for h in np.concatenate(
        (_spread(mixed_pool, share[1]), _spread(p_pool, share[2]))
    ).tolist():
        key = int(p_keys[h])
        edges.append((key // (N * N), (key // N) % N, key % N))
    for ev in (0, N):  # each node's TreeWave, then the pairs' BfsWaves
        if ev < inv.b_round.size:
            u = int(inv.b_snd[ev])
            edges.append(
                (int(inv.b_round[ev]), u, int(inv.indices[inv.indptr[u]]))
            )
    _kinds, first_rows = np.unique(plan.py_rows[:, 6], return_index=True)
    rows = first_rows.tolist()
    if inv.p_round.size > plan.py_rows.shape[0]:
        rows.append(plan.py_rows.shape[0])  # the first AggValue
    for i in rows:
        edges.append(
            (int(inv.p_round[i]), int(inv.p_snd[i]), int(inv.p_tgt[i]))
        )
    edges.append(worst)
    return list(dict.fromkeys(edges))


def _sampling_audit(sim, plan: _Plan, red: _Reduction) -> None:
    """Spot-check billed totals against the exact codec.

    Each sampled edge-round (see :func:`_audit_edges`) is rebuilt from
    the factored inventory — its sender's broadcasts that round plus its
    point-to-point rows, merged in drain order — and re-encoded through
    :func:`encode_frame`; any disagreement with the load the reduction
    billed raises the same :class:`WireCodecError` as the sweep engine's
    frame audit.
    """
    inv = plan.inv
    N = plan.N
    mat = _Materializer(plan)
    wire = sim.wire
    for r, u, w in _audit_edges(plan, red, sim.stats.worst_edge):
        ranks: List[np.ndarray] = []
        kinds: List[np.ndarray] = []
        auxs: List[np.ndarray] = []
        billed = 0
        key = r * N + u
        g, found = _lookup(red.b_keys, key)
        if found:
            ev = red.b_order[red.b_first[g]: red.b_first[g] + red.b_cnt[g]]
            seq = int(_nbr_seq(inv, u, w))
            ranks.append(_rank(r, u, inv.b_slot[ev], seq, N))
            kind, aux = _b_refs(plan, ev)
            kinds.append(kind)
            auxs.append(aux)
            billed += int(red.b_load[g])
        h, found = _lookup(red.p_keys, key * N + w)
        if found:
            rows = red.p_order[red.p_first[h]: red.p_first[h] + red.p_cnt[h]]
            ranks.append(inv.p_rank[rows])
            kind, aux = _p_refs(plan, rows)
            kinds.append(kind)
            auxs.append(aux)
            billed += int(red.p_load[h])
        order = np.argsort(np.concatenate(ranks))
        messages = [
            mat.message(k, a)
            for k, a in zip(
                np.concatenate(kinds)[order].tolist(),
                np.concatenate(auxs)[order].tolist(),
            )
        ]
        _word, frame_bits = encode_frame(messages, wire)
        if frame_bits != billed:
            raise WireCodecError(
                "round {}: edge {}->{} charged {} bits but its "
                "encoded frame is {} bits".format(r, u, w, billed, frame_bits)
            )


# ---------------------------------------------------------------------------
# replay (exact per-send observability)
# ---------------------------------------------------------------------------
class _ReplayWorld:
    """The planned run as a :func:`~repro.congest.kernel.drive_rounds`
    world: each round bills ``_expand``'s sends through the kernel's send
    path, one call per sender, and discards the deliveries — the plan
    already knows every outcome.  Every node steps every round, and no
    fault plan reaches the bulk engine, so nothing waits or stalls."""

    fresh_next = False
    abandoned = False

    def __init__(self, sim, plan: _Plan):
        self.kernel = RoundKernel(sim, (), sweep=True)
        self.edge_load = self.kernel.edge_load
        self.sends = _expand(plan)
        self.message = _Materializer(plan).message
        self.done_round = plan.done_round
        self.rounds = plan.rounds
        self.cursor = 0  # first send of the next round
        self.completed = 0  # rounds run so far

    def next_due(self) -> None:
        return None

    def next_wake(self, round_number: int) -> int:
        return round_number

    def quiescent(self) -> bool:
        return self.completed >= self.rounds

    def pending_nodes(self) -> Tuple[int, ...]:
        return tuple(
            v for v, last in enumerate(self.done_round)
            if last >= self.completed
        )

    def run_round(self, round_number: int) -> int:
        r_l, snd_l, tgt_l, kind_l, aux_l = self.sends
        first = self.cursor
        self.cursor = bisect_right(r_l, round_number, first)
        self.completed = round_number + 1
        senders = 0
        for sender, sends in groupby(
            range(first, self.cursor), snd_l.__getitem__
        ):
            self.kernel.send(round_number, sender, [
                (tgt_l[i], self.message(kind_l[i], aux_l[i])) for i in sends
            ])
            senders += 1
        self.kernel.in_flight.clear()
        self.kernel.audit(round_number)
        return senders


def _replay(sim, plan: _Plan) -> None:
    """Run the expanded send inventory through the round driver.

    Used whenever a run needs per-send hooks (tracer, telemetry send or
    round monitors, the full frame audit) or ends exceptionally.  The
    driver and the kernel's send path are the ones every other engine
    runs, so the drain order, the per-edge totals, the raise points and
    the partial tracer/stats state are theirs by construction.
    """
    drive_rounds(sim, _ReplayWorld(sim, plan))


# ---------------------------------------------------------------------------
# node back-fill
# ---------------------------------------------------------------------------
def _plan_storage_summary(plan: _Plan, v: int) -> Dict[str, int]:
    """One node's NodeLedger.storage_summary(), straight off the plan."""
    S = len(plan.src)
    pairs = np.arange(S, dtype=np.int64) * plan.N + v
    links = int(
        (plan.pred_indptr[pairs + 1] - plan.pred_indptr[pairs]).sum()
    )
    return {
        "records": S,
        "pred_links": links,
        "fields": 4 * S,
        "words": 4 * S + links,
    }


def _fill_ledger(plan: _Plan, ledger: NodeLedger) -> None:
    """Materialize one node's rows, in ascending settle-round order."""
    v = ledger.owner
    N = plan.N
    L = plan.L
    S = len(plan.src)
    pairs = np.arange(S, dtype=np.int64) * N + v
    dists = plan.dist_flat[pairs]
    order = np.argsort(plan.T + dists)
    src = plan.src
    aggregate = plan.aggregate
    psi_col = ledger.psi_col
    sent_col = ledger.sent_col
    for s_i in order.tolist():
        p = s_i * N + v
        source = int(src[s_i])
        sigma = _lf(plan.sig_m[p], plan.sig_e[p], L, Rounding.CEIL)
        lo, hi = plan.pred_indptr[p], plan.pred_indptr[p + 1]
        preds = tuple(int(x) for x in plan.pred_rows[lo:hi])
        row = ledger.add_row(
            source, int(plan.T[s_i]), int(dists[s_i]), sigma, preds
        )
        if aggregate:
            psi_col[row] = _lf(plan.psi_m[p], plan.psi_e[p], L, Rounding.FLOOR)
            sent_col[row] = 1 if source != v else 0


def _populate_nodes(sim, plan: _Plan) -> None:
    """Back-fill node/phase state to match a completed sweep run."""
    N = plan.N
    L = plan.L
    root = plan.root
    aggregate = plan.aggregate
    horizon = plan.horizon
    # Each node's ascending aggregation send rounds: its slice of the
    # inventory's sender-major schedule.
    send_rounds = plan.inv.agg_round.tolist()
    send_ptr = np.searchsorted(plan.inv.agg_snd, np.arange(N + 1)).tolist()
    s_idx_of = plan.s_idx_of
    for v in range(N):
        node = sim.nodes[v]
        tree = node.tree
        counting = node.counting
        agg = node.aggregation
        dv = plan.depth[v]
        ch = plan.children[v]
        tree.dist = dv
        tree.parent = plan.parent[v]
        tree.settle_round = dv
        tree.children = set(ch)
        tree.children_final = True
        tree._count_sent = True
        tree._child_counts = {c: plan.subtree_size[c] for c in ch}
        tree.num_nodes = N
        if v == root:
            tree.census_round = plan.r_census
        counting.visited = True
        counting._bfs_start_round = None
        counting._token_forward_round = None
        counting._next_child_index = len(ch)
        s_i = s_idx_of[v]
        counting.own_start_time = int(plan.T[s_i]) if s_i >= 0 else None
        counting._done_reported = True
        counting._child_done = {c: plan.subtree_ecc[c] for c in ch}
        if v == root:
            counting.dfs_complete_round = plan.dfs_complete
            counting.counting_result = (plan.diameter, plan.t_max, plan.base)
            counting.result_round = plan.r_result
            node._dfs_started = True
        agg.armed = True
        agg.diameter = plan.diameter
        agg.max_start_time = plan.t_max
        agg.base = plan.base
        agg._horizon = horizon
        agg._schedule = {}
        if aggregate:
            lo, hi = send_ptr[v], send_ptr[v + 1]
            agg._send_rounds = send_rounds[lo:hi]
            agg._send_cursor = hi - lo  # every scheduled send fired
            agg.betweenness_raw = _lf(
                plan.bet_m[v], plan.bet_e[v], L, Rounding.FLOOR
            )
            agg.finished_round = horizon + 1
        else:
            agg._send_rounds = []
            agg._send_cursor = 0
            agg.betweenness_raw = node.arith.psi_zero()
            agg.finished_round = None
        agg.finished = True
        node.done = True
        if node.telemetry is not None:
            node._phase_cursor = 4 if aggregate else 3
        ledger = _BulkLedger(
            v,
            lambda led, _plan=plan: _fill_ledger(_plan, led),
            lambda _plan=plan, _v=v: _plan_storage_summary(_plan, _v),
        )
        node.ledger = ledger
        counting.ledger = ledger
        agg.ledger = ledger


def _emit_phase_marks(sim, plan: _Plan) -> None:
    """Emit the root's telemetry phase marks, sweep-identically."""
    telemetry = sim.nodes[plan.root].telemetry
    if telemetry is None:
        return
    telemetry.phase_begin("tree_build", 0)
    telemetry.phase_begin("counting", plan.r_census)
    telemetry.phase_begin("diameter_broadcast", plan.r_result)
    telemetry.phase_begin("aggregation", plan.base)
    if plan.aggregate:
        telemetry.phase_end(plan.horizon + 1)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------
def _compute(sim) -> _Plan:
    """Derive the complete plan: schedule, arrays, sends, results."""
    graph = sim.graph
    N = graph.num_nodes
    node0 = sim.nodes[0]
    config = node0.config
    arith = node0.arith
    plan = _Plan()
    plan.N = N
    plan.L = arith.precision
    plan.aggregate = config.aggregate
    plan.root = next(
        v for v in range(N) if sim.nodes[v].tree.is_root
    )
    indptr, indices, deg = _csr(graph)
    plan.indptr, plan.indices, plan.deg = indptr, indices, deg
    depth, parent, children = tree_schedule(graph, plan.root)
    plan.depth = depth
    plan.parent = parent
    plan.children = children
    plan.depth_max = max(depth)
    plan.census_send, plan.r_census, plan.subtree_size = census_schedule(
        depth, children, plan.root
    )
    plan.first_visit, token_sends, plan.dfs_complete = dfs_token_schedule(
        children, parent, plan.root, plan.r_census,
        _SLOT_TOKEN_DELAY, _SLOT_TOKEN_BACK,
    )
    if config.sources is None:
        src_list = list(range(N))
    else:
        src_list = sorted(config.sources)
    S = len(src_list)
    plan.src = np.asarray(src_list, dtype=np.int64)
    plan.s_idx_of = np.full(N, -1, dtype=np.int64)
    plan.s_idx_of[plan.src] = np.arange(S, dtype=np.int64)
    plan.T = np.asarray(
        [plan.first_visit[s] + 1 for s in src_list], dtype=np.int64
    )

    levels, settled = _batched_bfs(plan, indptr, indices, deg)
    # Each level's rows sort by (pair, pred) through their level order,
    # and every pair settles at one level, so a stable sort by pair
    # alone orders the concatenation the same way.
    qs_all = np.concatenate([succ[order] for _, succ, order in levels])
    row_order = np.argsort(qs_all, kind="stable")
    plan.pair_rows = qs_all[row_order]
    plan.pred_rows = np.concatenate(
        [pred[order] for pred, _, order in levels]
    )[row_order] % N
    del qs_all, row_order
    levels = [(pred, succ) for pred, succ, _ in levels]
    plan.pred_indptr = np.zeros(S * N + 1, dtype=np.int64)
    plan.pred_indptr[1:] = np.cumsum(
        np.bincount(plan.pair_rows, minlength=S * N)
    )

    # Completion convergecast: eccentricities, done-report rounds, and
    # the root's counting result.
    dist2d = plan.dist_flat.reshape(S, N)
    ecc = dist2d.max(axis=0)
    plan.ecc = [int(x) for x in ecc]
    bottom_up = sorted(range(N), key=depth.__getitem__, reverse=True)
    subtree_ecc = [0] * N
    for v in bottom_up:
        e = int(ecc[v])
        for c in children[v]:
            if subtree_ecc[c] > e:
                e = subtree_ecc[c]
        subtree_ecc[v] = e
    plan.subtree_ecc = subtree_ecc
    last_settle = (plan.T[:, None] + dist2d).max(axis=0)
    all_sources = config.sources is None
    done_send = [0] * N
    for v in bottom_up:
        r = depth[v] + 2  # children_final
        if all_sources:
            # num_nodes (hence the expected ledger size) is known to the
            # root at the census and to others when the announce arrives.
            known = plan.r_census if v == plan.root else (
                plan.r_census + depth[v]
            )
            if known > r:
                r = known
        ls = int(last_settle[v])
        if ls > r:
            r = ls
        for c in children[v]:
            if done_send[c] + 1 > r:
                r = done_send[c] + 1
        done_send[v] = r
    plan.done_send = done_send
    plan.r_result = done_send[plan.root]
    plan.diameter = subtree_ecc[plan.root]
    plan.t_max = int(plan.T.max())
    plan.base = plan.r_result + plan.diameter + 1
    plan.horizon = plan.base + plan.t_max + plan.diameter
    if plan.aggregate:
        plan.rounds = plan.horizon + 2
        plan.done_round = [plan.horizon + 1] * N
        _psi_recursion(plan, config, levels, settled)
        _betweenness_fold(plan)
    else:
        # Counting-only runs (distributed APSP): every node halts the
        # round its AggStart arrives; the last delivery reaches the
        # deepest leaves at r_result + depth_max.
        plan.rounds = plan.r_result + plan.depth_max + 1
        plan.done_round = [plan.r_result + depth[v] for v in range(N)]
        plan.psi_m = plan.psi_e = None
        plan.val_m = plan.val_e = None
        plan.bet_m = plan.bet_e = None

    plan.inv = _inventory(plan, sim, token_sends)
    return plan


def run_bulk(sim):
    """Execute ``sim`` with the bulk engine; returns the populated stats.

    The caller (:meth:`Simulator.run`) has already resolved capability
    via the dispatcher; this function assumes the protocol envelope
    (stock nodes, one root, shared L-float arithmetic, no faults, a
    connected graph).
    """
    telemetry = sim.telemetry
    profiler = telemetry.profiler if telemetry is not None else None
    started = perf_counter()
    plan = _compute(sim)
    if profiler is not None:
        profiler.add("engine.bulk.plan", perf_counter() - started)
        profiler.bump("engine.bulk.sends", plan.inv.message_count)
    observed = (
        sim.tracer is not None
        or sim.frame_audit
        or (
            telemetry is not None
            and (
                telemetry.wants_sends
                or getattr(telemetry, "wants_rounds", True)
            )
        )
    )
    started = perf_counter()
    reduction = None
    if not observed and plan.rounds <= sim.max_rounds + 1:
        # None when an edge-round is over the strict budget.
        reduction = populate_stats(
            sim.stats, plan.inv, sim.bit_budget if sim.strict else None
        )
    if reduction is None:
        _replay(sim, plan)  # raises on violation / round-limit overrun
        if profiler is not None:
            profiler.add("engine.bulk.replay", perf_counter() - started)
    else:
        _sampling_audit(sim, plan, reduction)
        del reduction  # free the groupings before the node back-fill
        if profiler is not None:
            profiler.add("engine.bulk.stats", perf_counter() - started)
    _emit_phase_marks(sim, plan)
    _populate_nodes(sim, plan)
    sim.stats.rounds = plan.rounds
    return sim.stats
