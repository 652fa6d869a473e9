"""E16 — streaming telemetry overhead: the live bus must be near-free.

The streaming layer (:mod:`repro.obs.stream`) publishes telemetry rows
*during* the run — meta at start, phase rows as spans close, a flushed
JSONL line per row, progress heartbeats from the engines' round loops.
The design constraint is that none of this disturbs the engines' fast
paths: ``wants_ticks`` gates the per-round hook the same way
``wants_sends``/``wants_rounds`` gate the per-send and per-round
snapshots, and streaming flips **only** ``wants_ticks`` — so the bulk
engine keeps its closed-form no-replay path and the sweep/event round
loops add a single predictable branch.

This benchmark measures that claim on the acceptance configuration
(bulk engine, N=400 cycle): a live-streaming run — bus, flushed JSONL
sink and progress estimator attached — against a telemetry-free run.
Gate: ≤5% wall-clock overhead (best-of-``REPS`` interleaved, so noise
hits both arms equally).  It also asserts the streamed run's outputs
are bit-identical to the bare run's — streaming must observe, never
perturb.
"""

import json
import time
from pathlib import Path

from repro.analysis import print_table
from repro.congest.options import RunOptions
from repro.core import distributed_betweenness
from repro.graphs import cycle_graph
from repro.obs import Telemetry

from .conftest import once

N = 400
REPS = 7
MAX_OVERHEAD = 1.05
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_stream.json"


def _fingerprint(result):
    return (
        sorted(result.betweenness.items()),
        result.diameter,
        result.rounds,
        result.stats.summary(),
    )


def measure(n=N, reps=REPS, tmp_dir=None):
    """Best-of-``reps`` wall clock: telemetry-off vs live streaming.

    The two arms interleave within each repetition.  The streaming arm
    rebuilds its Telemetry every repetition (a bus is one-run state)
    and writes its JSONL to a throwaway path.
    """
    import tempfile

    graph = cycle_graph(n)
    stream_path = Path(
        tmp_dir or tempfile.gettempdir()
    ) / "bench_stream_live.jsonl"
    best_off = None
    best_stream = None
    fingerprint_off = fingerprint_stream = None
    rows_written = 0
    for _ in range(max(1, reps)):
        start = time.perf_counter()
        result = distributed_betweenness(
            graph,
            options=RunOptions(engine="bulk"),
        )
        elapsed = time.perf_counter() - start
        best_off = elapsed if best_off is None else min(best_off, elapsed)
        fingerprint_off = _fingerprint(result)

        telemetry = Telemetry.with_streaming(
            jsonl_path=str(stream_path), progress=True
        )
        start = time.perf_counter()
        result = distributed_betweenness(
            graph,
            options=RunOptions(engine="bulk"),
            telemetry=telemetry,
        )
        elapsed = time.perf_counter() - start
        telemetry.bus.close()
        best_stream = (
            elapsed if best_stream is None else min(best_stream, elapsed)
        )
        fingerprint_stream = _fingerprint(result)
        rows_written = telemetry.bus.published
    stream_path.unlink(missing_ok=True)
    return {
        "n": n,
        "engine": "bulk",
        "reps": reps,
        "off_seconds": round(best_off, 5),
        "stream_seconds": round(best_stream, 5),
        "overhead_ratio": round(best_stream / best_off, 4),
        "rows_streamed": rows_written,
        "identical_results": fingerprint_stream == fingerprint_off,
    }


def write_json(stats, path=OUTPUT):
    payload = {"benchmark": "stream_overhead", **stats}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_streaming_overhead_within_five_percent(benchmark, tmp_path):
    stats = once(benchmark, measure, tmp_dir=tmp_path)
    write_json(stats)
    print_table(
        ["metric", "value"],
        [[key, value] for key, value in stats.items()],
        title="E16 streaming overhead (bulk, cycle N={}) -> {}".format(
            N, OUTPUT.name
        ),
    )
    # Streaming must observe, never perturb.
    assert stats["identical_results"]
    # The bus published the run's full core-row set plus the final
    # progress heartbeat (bulk has no round loop to tick in).
    assert stats["rows_streamed"] >= 6
    # The acceptance gate: ≤5% wall-clock over the telemetry-off run.
    assert stats["overhead_ratio"] <= MAX_OVERHEAD, stats


def test_streaming_off_keeps_fast_paths_dark():
    """Without a bus, telemetry reports no tick appetite at all.

    This is the zero-cost contract: the engines consult ``wants_ticks``
    once per run, and a plain (post-hoc) Telemetry keeps every
    streaming hook switched off.
    """
    plain = Telemetry()
    assert plain.wants_ticks is False
    assert plain.wants_rounds is False
    assert plain.wants_sends is False
    streaming = Telemetry.with_streaming(progress=True)
    assert streaming.wants_ticks is True
    # Streaming must NOT flip the expensive per-send/per-round hooks —
    # that would silently force the bulk engine into replay mode.
    assert streaming.wants_rounds is False
    assert streaming.wants_sends is False
