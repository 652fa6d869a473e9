"""E17 — supervised shard runtime: resume identity, respawn, overhead.

The supervisor adds three things to the shard engine (`docs/recovery.md`):
a heartbeat watchdog, round-boundary checkpoints, and worker respawn
with rollback.  This benchmark proves each is *invisible in the answer*
and *bounded in cost*, writing ``BENCH_recovery.json``:

* **Resume identity** — family × N × protocol rows: run supervised with
  checkpoints, resume from the newest snapshot, and demand the resumed
  run reproduce the uninterrupted run bit for bit (betweenness, rounds,
  bits, messages, per-round series, worst edge).  Hard-gated.
* **Hang respawn** — a worker wedged mid-run is detected by the
  watchdog, respawned, rolled back, and still finishes bit-identical;
  the restart count must replay exactly (fault plans are keyed hashes).
  Hard-gated.
* **Checkpoint overhead** — at N = 400, the supervisor's own
  ``checkpoint_seconds`` gauge over the rest of the run's wall, taken
  within one run (A/B wall differences on a shared single-core
  container drift more than the whole checkpoint cost; a single run's
  internal ratio does not).  ``overhead_fraction`` is soft-gated
  at ≤ 5%
  (:data:`repro.obs.history.MAX_CHECKPOINT_OVERHEAD`).  The watchdog's
  own cost is *not* hidden inside that ratio: rows carry
  ``uninterrupted_seconds`` (no supervision at all) next to
  ``supervised_seconds`` so the heartbeat tax stays visible, gated as a
  latency ratio like every other wall figure (skipped by ``--no-wall``).
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.analysis import print_table
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.faults import FaultPlan, WorkerHang
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.shard import SupervisionConfig, resolve_checkpoint

from .conftest import once

WORKERS = 3
PARTITIONER = "greedy"
SIZES = (64,)
FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
}
PROTOCOLS = ("hua-bc", "cfp-bc")
OVERHEAD_N = 400
OVERHEAD_EVERY = 1200
OVERHEAD_REPEATS = 3
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_recovery.json"


def _fingerprint(result):
    """Everything a recovered run must agree on, in comparable form."""
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        sorted(result.start_times.items()),
        result.stats.round_series,
        result.stats.worst_edge,
    )


def _run(graph, protocol="hua-bc", supervision=None, **kwargs):
    return distributed_betweenness(
        graph,
        arithmetic="lfloat",
        options=RunOptions(
            engine="shard",
            workers=WORKERS,
            partitioner=PARTITIONER,
            supervision=supervision,
        ),
        protocol=protocol,
        **kwargs,
    )


def measure_resume(sizes=SIZES, families=None, protocols=PROTOCOLS):
    """One ``resume`` row per family × N × protocol."""
    families = dict(FAMILIES) if families is None else families
    rows = []
    for family, build in sorted(families.items()):
        for n in sizes:
            graph = build(n)
            for protocol in protocols:
                reference = _run(graph, protocol)
                ref_print = _fingerprint(reference)
                ckpt_dir = tempfile.mkdtemp(prefix="bench-recovery-")
                try:
                    start = time.perf_counter()
                    supervised = _run(
                        graph,
                        protocol,
                        supervision=SupervisionConfig(
                            checkpoint_every=20, checkpoint_dir=ckpt_dir
                        ),
                    )
                    supervised_seconds = time.perf_counter() - start
                    ckpt = resolve_checkpoint(Path(ckpt_dir))
                    start = time.perf_counter()
                    resumed = _run(
                        graph,
                        protocol,
                        supervision=SupervisionConfig(resume_from=str(ckpt)),
                    )
                    recovery_seconds = time.perf_counter() - start
                finally:
                    shutil.rmtree(ckpt_dir, ignore_errors=True)
                summary = resumed.stats.summary()
                sup = resumed.stats.supervisor
                rows.append({
                    "family": family,
                    "n": graph.num_nodes,
                    "protocol": protocol,
                    "scenario": "resume",
                    "workers": WORKERS,
                    "rounds": resumed.rounds,
                    "bits": summary["bits"],
                    "messages": summary["messages"],
                    "identical_after_resume": (
                        _fingerprint(supervised) == ref_print
                        and _fingerprint(resumed) == ref_print
                    ),
                    "resumed_from_round": sup["resumed_from"],
                    "checkpoints_written":
                        supervised.stats.supervisor["checkpoints_written"],
                    "checkpoint_bytes":
                        supervised.stats.supervisor["checkpoint_bytes"],
                    "restarts": 0,
                    "supervised_seconds": round(supervised_seconds, 4),
                    "recovery_seconds": round(recovery_seconds, 4),
                })
    return rows


def measure_respawn(n=SIZES[0], protocols=PROTOCOLS):
    """One ``hang_respawn`` row per protocol × hang-repeat count.

    ``repeats`` is the restart matrix axis: a worker that wedges once,
    then twice in a row, against a budget of three.  The supervisor must
    burn exactly ``repeats`` restarts — deterministic, because the
    fault plan is a keyed hash replayed identically after rollback.
    """
    graph = cycle_graph(n)
    rows = []
    for protocol in protocols:
        reference = _fingerprint(_run(graph, protocol))
        for repeats in (1, 2):
            plan = FaultPlan(
                seed=7,
                worker_hangs=(
                    WorkerHang(shard=1, round=9, repeats=repeats),
                ),
            )
            start = time.perf_counter()
            recovered = _run(
                graph,
                protocol,
                faults=plan,
                supervision=SupervisionConfig(
                    heartbeat_timeout=0.5,
                    max_restarts=3,
                    backoff_base=0.01,
                ),
            )
            recovery_seconds = time.perf_counter() - start
            summary = recovered.stats.summary()
            summary.pop("faults", None)  # all-zero block, plan attached
            sup = recovered.stats.supervisor
            rows.append({
                "family": "cycle",
                "n": graph.num_nodes,
                "protocol": protocol,
                "scenario": "hang_respawn_x{}".format(repeats),
                "workers": WORKERS,
                "rounds": recovered.rounds,
                "bits": summary["bits"],
                "messages": summary["messages"],
                "identical_after_resume":
                    _fingerprint(recovered) == reference,
                "restarts": sup["restarts"],
                "hang_detections": sup["hang_detections"],
                "faults": "hang@9x{}".format(repeats),
                "recovery_seconds": round(recovery_seconds, 4),
            })
    return rows


def measure_overhead(n=OVERHEAD_N, every=OVERHEAD_EVERY,
                     repeats=OVERHEAD_REPEATS):
    """The ``overhead`` row: checkpoint cost at N = 400.

    Three configurations, interleaved min-of-``repeats`` walls for
    context: no supervision at all (``uninterrupted_seconds``),
    heartbeats only (``supervised_seconds``), heartbeats + checkpoints
    every ``every`` rounds (``checkpointed_seconds``).

    ``overhead_fraction`` — the gated figure — is *not* an A/B
    difference of those walls: on a shared single-core container,
    back-to-back identical runs drift by more than the entire
    checkpoint cost, so subtracting two noisy runs measures the host's
    neighbours, not the subsystem.  Instead the supervisor's own
    ``checkpoint_seconds`` gauge times every ``_write_checkpoint``
    call from inside the run — on one core the coordinator blocks
    while workers serialize, so the gauge covers the whole marginal
    cost (snapshot, pipe transfer, checksum, write, prune) — and the
    ratio ``checkpoint_seconds / (wall - checkpoint_seconds)`` shares
    one run's noise regime between numerator and denominator.  The
    minimum ratio across the checkpointed repeats is reported.
    """
    graph = grid_graph(int(n ** 0.5), int(n ** 0.5))
    walls = {"plain": [], "hb": [], "ckpt": []}
    ratios = []
    result = plain = None
    for _ in range(repeats):
        start = time.perf_counter()
        plain = _run(graph)
        walls["plain"].append(time.perf_counter() - start)
        start = time.perf_counter()
        _run(graph, supervision=SupervisionConfig(heartbeat_timeout=30.0))
        walls["hb"].append(time.perf_counter() - start)
        ckpt_dir = tempfile.mkdtemp(prefix="bench-recovery-")
        try:
            start = time.perf_counter()
            result = _run(
                graph,
                supervision=SupervisionConfig(
                    checkpoint_every=every, checkpoint_dir=ckpt_dir
                ),
            )
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        walls["ckpt"].append(wall)
        spent = result.stats.supervisor["checkpoint_seconds"]
        ratios.append(spent / (wall - spent))
    summary = result.stats.summary()
    sup = result.stats.supervisor
    return {
        "family": "grid",
        "n": graph.num_nodes,
        "protocol": "hua-bc",
        "scenario": "overhead",
        "workers": WORKERS,
        "rounds": result.rounds,
        "bits": summary["bits"],
        "messages": summary["messages"],
        "identical_after_resume":
            _fingerprint(result) == _fingerprint(plain),
        "restarts": 0,
        "checkpoint_every": every,
        "checkpoints_written": sup["checkpoints_written"],
        "checkpoint_bytes": sup["checkpoint_bytes"],
        "checkpoint_seconds": round(sup["checkpoint_seconds"], 4),
        "uninterrupted_seconds": round(min(walls["plain"]), 4),
        "supervised_seconds": round(min(walls["hb"]), 4),
        "checkpointed_seconds": round(min(walls["ckpt"]), 4),
        "overhead_fraction": round(min(ratios), 4),
    }


def write_json(rows, path=OUTPUT):
    payload = {
        "benchmark": "recovery",
        "arithmetic": "lfloat",
        "partitioner": PARTITIONER,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "timing_note": (
            "wall clocks on this {}-core container are noisy; every "
            "timed figure is an interleaved min-of-{}.  "
            "overhead_fraction is checkpoint_seconds (time inside "
            "_write_checkpoint, which on one core covers worker "
            "serialization, transfer, checksum and write) over the "
            "rest of the same run's wall — an in-run ratio, because "
            "A/B differences between runs drift more than the whole "
            "checkpoint cost here; the watchdog's own cost is the "
            "separate supervised_seconds vs uninterrupted_seconds "
            "gap".format(os.cpu_count(), OVERHEAD_REPEATS)
        ),
        "rows": rows,
        "summary": {
            "all_identical": all(
                r["identical_after_resume"] for r in rows
            ),
            "max_overhead_fraction": max(
                (r["overhead_fraction"] for r in rows
                 if "overhead_fraction" in r),
                default=None,
            ),
            "total_restarts": sum(r.get("restarts", 0) for r in rows),
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _print_rows(rows, title):
    print_table(
        ["family", "N", "protocol", "scenario", "rounds", "restarts",
         "identical", "seconds"],
        [
            [r["family"], r["n"], r["protocol"], r["scenario"],
             r["rounds"], r.get("restarts", 0),
             r["identical_after_resume"],
             r.get("recovery_seconds",
                   r.get("checkpointed_seconds", ""))]
            for r in rows
        ],
        title=title,
    )


def test_recovery_identity_and_overhead(benchmark):
    rows = once(benchmark, measure_resume)
    rows += measure_respawn()
    overhead = measure_overhead()
    rows.append(overhead)
    payload = write_json(rows)
    _print_rows(rows, "E17 recovery -> {}".format(OUTPUT.name))
    assert payload["summary"]["all_identical"]
    for row in rows:
        if row["scenario"].startswith("hang_respawn"):
            # The restart count replays exactly: one per scheduled wedge.
            assert row["restarts"] == int(row["scenario"][-1])
    assert overhead["checkpoints_written"] >= 2
