"""Per-layer tracing of one ``repro`` CLI run, installed from outside ``src/``.

The traced run wraps public functions of the ``repro`` modules.  Modules
the CLI has already imported are patched at once; modules it imports
lazily (the bulk engine, the shard runtime, ...) are patched the moment
they finish importing, so their import cost stays where the program pays
it.

A wrapped call is a span.  Coarse spans are kept as records (name, start,
end, parent); hot spans (one per protocol step, per frame, per fault
delivery) are only summed per name.  Every span, kept or summed, adds its
duration to its parent's child time, so self times stay exact:
``self = duration - time covered by child spans``.

Counters that would cost more to time than the work they count (L-float
operations, wire sizing) are counts only.

The forked shard worker inherits the patches.  On entry it resets its
tracer, and when it closes its pipe it writes its own figures to
``worker-<pid>.json`` in the trace directory.
"""

from __future__ import annotations

import functools
import gc
import importlib.abc
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: open spans: [child time, name]
        self.stack: List[list] = []
        #: kept spans: (name, start, end, parent name)
        self.spans: List[tuple] = []
        #: name -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        #: name -> count
        self.counts: Dict[str, int] = {}
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None

    # -- recording ---------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def add_span(self, name: str, start: float, end: float, keep: bool = True) -> None:
        """Record a span measured by the caller (it has no children)."""
        duration = end - start
        record = self.layers.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        record[1] += duration
        record[2] += duration
        if self.stack:
            self.stack[-1][0] += duration
        if keep:
            parent = self.stack[-1][1] if self.stack else None
            self.spans.append((name, start, end, parent))

    def timed(self, name: str, fn: Callable, keep: bool = False) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                record = tracer.layers.get(name)
                if record is None:
                    record = tracer.layers[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                if tracer.stack:
                    tracer.stack[-1][0] += duration
                if keep:
                    parent = tracer.stack[-1][1] if tracer.stack else None
                    tracer.spans.append((name, start, end, parent))

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a call counter (no timing)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def on_gc(self, phase: str, _info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "spans": [list(span) for span in self.spans],
            "layers": self.layers,
            "counts": self.counts,
            "gc": {
                "collections": self.gc_collections,
                "pause_s": self.gc_pause_s,
            },
        }


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Run a patch function on a module right after it first imports."""

    def __init__(self, hooks: Dict[str, Callable[[Any], None]]) -> None:
        self.hooks = hooks

    def find_spec(self, name, path, target=None):
        hook = self.hooks.get(name)
        if hook is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        original = loader.exec_module

        def exec_module(module):
            original(module)
            hook(module)

        loader.exec_module = exec_module
        return spec


class _TimedConn:
    """A worker's pipe end that times blocking reads and flushes on close."""

    def __init__(self, conn, tracer: Tracer, on_close: Callable[[], None]) -> None:
        self._conn = conn
        self._tracer = tracer
        self._on_close = on_close

    def recv(self):
        start = perf_counter()
        try:
            return self._conn.recv()
        finally:
            self._tracer.add_span(
                "shard.worker.wait", start, perf_counter(), keep=False
            )

    def close(self):
        try:
            self._on_close()
        finally:
            self._conn.close()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, keep: bool = False) -> None:
    setattr(cls, attr, tracer.timed(name, getattr(cls, attr), keep=keep))


def install(tracer: Tracer, protocol: str, trace_dir: Path) -> None:
    """Patch every layer boundary of the ``repro`` modules."""
    import repro.cli as cli
    from repro.arithmetic.lfloat import LFloat
    from repro.congest.simulator import Simulator
    from repro.congest.stats import SimulationStats
    import repro.wire.messages as wire_messages
    from repro.faults.injector import FaultInjector

    gc.callbacks.append(tracer.on_gc)

    cli.read_edge_list = tracer.timed("graphs.io.load", cli.read_edge_list, keep=True)
    cli.print_table = tracer.timed("cli.print", cli.print_table, keep=True)
    _wrap_method(tracer, Simulator, "__init__", "congest.simulator.build", keep=True)
    _wrap_method(tracer, Simulator, "run", "congest.simulator.run", keep=True)
    _wrap_method(tracer, SimulationStats, "observe_round", "congest.stats.observe")
    _wrap_method(tracer, FaultInjector, "deliveries", "faults.injector.deliver")
    wire_messages.layout_bits = tracer.counted("wire.size", wire_messages.layout_bits)
    for op in ("add", "mul", "div", "reciprocal"):
        setattr(LFloat, op, tracer.counted("arithmetic.lfloat.ops", getattr(LFloat, op)))

    def patch_engines(module):
        module.decide_engine = tracer.timed(
            "engines.dispatcher.decide", module.decide_engine, keep=True
        )

    def patch_bulk(module):
        module.run_bulk = tracer.timed("engines.bulk.run", module.run_bulk, keep=True)
        module.populate_stats = tracer.timed(
            "engines.bulk.stats", module.populate_stats, keep=True
        )

    def patch_lfmath(module):
        for fn in ("lf_add", "lf_mul", "lf_reciprocal"):
            setattr(module, fn, tracer.timed("engines.lfmath", getattr(module, fn)))

    def patch_protocols(module):
        cls = module.get_protocol(protocol).node_class
        step = tracer.timed("protocols.step", cls.on_round)

        def on_round(node, ctx, inbox):
            outbox = getattr(ctx, "_outbox", None)
            before = len(outbox) if outbox is not None else 0
            step(node, ctx, inbox)
            if inbox or (outbox is not None and len(outbox) > before):
                tracer.count("protocols.useful_steps")

        cls.on_round = on_round

    def patch_shard(module):
        import multiprocessing.connection as mpc

        module.partition_nodes = tracer.timed(
            "shard.partition", module.partition_nodes, keep=True
        )
        module.encode_shard_frame = tracer.timed(
            "shard.frames.encode", module.encode_shard_frame
        )
        module.decode_shard_frame = tracer.timed(
            "shard.frames.decode", module.decode_shard_frame
        )
        write = tracer.timed(
            "shard.checkpoint.write", module.write_checkpoint, keep=True
        )

        def write_checkpoint(run_dir, round_number, blobs, coord, meta):
            tracer.count(
                "shard.checkpoint.bytes",
                sum(len(blob) for blob in blobs.values()) + len(coord),
            )
            return write(run_dir, round_number, blobs, coord, meta)

        module.write_checkpoint = write_checkpoint
        coordinator = module._Coordinator
        _wrap_method(tracer, coordinator, "_recv", "shard.runtime.barrier_wait")
        barrier = tracer.timed(
            "shard.runtime.barrier", coordinator._collect_round_reports
        )

        def collect_round_reports(coord, round_number):
            carried = any(
                coord.pending_frames[shard] for shard in range(coord.n_shards)
            )
            reports = barrier(coord, round_number)
            if carried or any(report.get("outbox") for _s, report in reports):
                tracer.count("shard.runtime.useful_barriers")
            return reports

        coordinator._collect_round_reports = collect_round_reports
        worker = module._ShardWorker
        _wrap_method(tracer, worker, "process_round", "shard.worker.round")
        _wrap_method(tracer, worker, "snapshot_blob", "shard.checkpoint.snapshot")

        send_bytes = mpc.Connection._send_bytes
        recv_bytes = mpc.Connection._recv_bytes

        def counted_send(conn, buf):
            tracer.count("shard.runtime.exchange_bytes", len(buf))
            return send_bytes(conn, buf)

        def counted_recv(conn, maxsize=None):
            buf = recv_bytes(conn, maxsize)
            tracer.count("shard.runtime.exchange_bytes", buf.getbuffer().nbytes)
            return buf

        mpc.Connection._send_bytes = counted_send
        mpc.Connection._recv_bytes = counted_recv

        child_main = module._child_main

        def traced_child_main(conn, *args, **kwargs):
            tracer.reset()
            born = perf_counter()

            def flush():
                snap = tracer.snapshot()
                lifetime = perf_counter() - born
                snap["lifetime_s"] = lifetime
                path = Path(trace_dir) / "worker-{}.json".format(os.getpid())
                path.write_text(json.dumps(snap), encoding="utf-8")

            return child_main(_TimedConn(conn, tracer, flush), *args, **kwargs)

        module._child_main = traced_child_main

    hooks = {
        "repro.engines": patch_engines,
        "repro.engines.bulk": patch_bulk,
        "repro.engines.lfmath": patch_lfmath,
        "repro.protocols": patch_protocols,
        "repro.shard.runtime": patch_shard,
    }
    for name in list(hooks):
        module = sys.modules.get(name)
        if module is not None:
            hooks.pop(name)(module)
    sys.meta_path.insert(0, _PatchOnImport(hooks))
