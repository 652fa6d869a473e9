"""Run one ``repro`` CLI invocation and record what the benchmark checks.

Usage::

    python3 perfbench/driver.py OUT.json [TRACE_DIR] [--cpu N] -- <repro argv>

The driver imports ``repro`` from the checkout's ``src/``, calls
``repro.cli.main(argv)`` and, after it returns, writes ``OUT.json``: the
monotonic clock stamps of the run's phases, the resolved engine, the
run's exact counts and the full-precision betweenness (the CLI table
prints 3 decimals, too few to check against Theorem 1).  Two wrappers
capture these, on ``Simulator.run`` and on the CLI's
``distributed_betweenness``; both are installed in every run.

``--cpu N`` pins the driver, and every process it forks, to CPU ``N``.

With ``TRACE_DIR`` the per-layer tracer of :mod:`layers` is installed as
well, and its spans and counters are added to ``OUT.json``.  A forked
shard worker writes its own figures into ``TRACE_DIR``.

The exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from time import perf_counter


def _record(capture, code, stamps):
    sim = capture.get("sim")
    result = capture.get("result")
    out = {"exit_code": code, "stamps": stamps}
    if sim is None or result is None:
        return out
    stats = result.stats
    decision = sim.engine_decision
    graph = result.graph
    precision = None
    if result.arithmetic.startswith("lfloat-"):
        precision = int(result.arithmetic.split("-", 1)[1])
    out.update(
        engine=stats.engine,
        engine_requested=sim.engine_requested,
        engine_reason=(
            decision.reason if decision is not None
            else "explicitly requested"
        ),
        rounds=stats.rounds,
        bits=stats.bit_count,
        messages=stats.message_count,
        max_edge_bits=stats.max_edge_bits_per_round,
        bit_budget=sim.bit_budget,
        strict=sim.strict,
        precision=precision,
        nodes=graph.num_nodes,
        diameter=result.diameter,
        complete=bool(result.completeness is None or result.completeness.complete),
        betweenness=[result.betweenness[v] for v in range(graph.num_nodes)],
        faults=stats.faults.as_dict() if stats.faults is not None else None,
        shard=stats.shard,
        supervisor=stats.supervisor,
    )
    return out


def main(argv) -> int:
    stamps = {"start": time.monotonic()}
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    own, cli_argv = argv[:split], argv[split + 1:]
    if "--cpu" in own:
        at = own.index("--cpu")
        os.sched_setaffinity(0, {int(own[at + 1])})
        del own[at:at + 2]
    out_path = Path(own[0])
    trace_dir = Path(own[1]) if len(own) > 1 else None
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "cli.py").is_file():
        print("driver: no repro sources at {}".format(src), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro.cli as cli
    from repro.congest.simulator import Simulator

    stamps["imported"] = time.monotonic()
    tracer = None
    if trace_dir is not None:
        import layers

        started = perf_counter()
        tracer = layers.Tracer()
        protocol = cli_argv[cli_argv.index("--protocol") + 1]
        layers.install(tracer, protocol, trace_dir)
        tracer.add_span("trace.install", started, perf_counter())

    capture = {}
    run = Simulator.run
    solve = cli.distributed_betweenness

    def timed_run(sim):
        capture["sim"] = sim
        stamps["run_enter"] = time.monotonic()
        try:
            return run(sim)
        finally:
            stamps["run_exit"] = time.monotonic()

    def captured_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        stamps["solve_exit"] = time.monotonic()
        capture["result"] = result
        if tracer is not None:
            # run exit -> distributed_betweenness return: result collection
            collected = stamps["solve_exit"] - stamps["run_exit"]
            now = perf_counter()
            tracer.add_span("core.collect", now - collected, now)
        return result

    Simulator.run = timed_run
    cli.distributed_betweenness = captured_solve
    code = cli.main(cli_argv)
    sys.stdout.flush()
    stamps["main_exit"] = time.monotonic()
    started = perf_counter()
    record = _record(capture, code, stamps)
    if tracer is not None:
        tracer.add_span("trace.write", started, perf_counter())
        record["trace"] = tracer.snapshot()
    out_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
