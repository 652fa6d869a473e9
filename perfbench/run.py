"""The repository benchmark: ``repro`` CLI runs in a closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs the workload's CLI invocation again and again, one run
at a time, for ``S`` seconds (at least ``MIN_RUNS`` runs).  Each run is a
subprocess (:mod:`driver`) timed from exec to exit; ``os.wait4`` gives
its user + sys CPU and peak RSS, which include the forked shard worker
because the coordinator reaps it.  Every run is checked (:mod:`oracle`);
a run that fails any check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: it alternates untraced and traced runs and reads the traced runs'
spans (:mod:`layers`).  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON object.

Inputs, the cached Brandes reference and per-run scratch files live under
``.perfbench/`` in the checkout; a results file with every sample, the
resolved engine and ``cpu_count`` is written there too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from oracle import bc_err_ratio, reference, run_failures  # noqa: E402
from workloads import WORKLOADS, cli_argv, write_inputs  # noqa: E402

#: fewest timed runs per invocation, whatever ``--seconds`` says
MIN_RUNS = 2
#: an invocation starts no run that would end after this many seconds
INVOCATION_LIMIT_S = 165.0
#: a run still going after this long is killed and counted as failed
RUN_TIMEOUT_S = 120.0

_BULK = ("solve_s, peak_rss_mb", "bulk-ba")
_ROUND_LOOP = ("solve_s, msgs_per_s", "event-cfp-grid, chaos-lossy-ws, shard worker")
_SHARD = ("solve_s, wall_s, cpu_s", "shard-ckpt-grid")
_CHECKPOINT = ("solve_s", "shard-ckpt-grid")
_FAULTS = ("solve_s", "chaos-lossy-ws")

#: per-layer metric -> (end-to-end metric it should move, workloads)
LAYER_MOVES = {
    "cli.import_s": ("setup_s", "all"),
    "graphs.io.load_s": ("setup_s", "all"),
    "engines.dispatcher.decide_s": ("setup_s", "all"),
    "congest.simulator.build_s": ("setup_s", "all; largest on bulk-ba"),
    "core.collect_s": ("wall_s", "all"),
    "cli.print_s": ("wall_s", "all"),
    "engines.bulk.run_s": _BULK,
    "engines.bulk.stats_s": _BULK,
    "engines.lfmath.calls": _BULK,
    "engines.lfmath.s": _BULK,
    "congest.simulator.run_s": _ROUND_LOOP,
    "protocols.step_calls": _ROUND_LOOP,
    "protocols.step_s": _ROUND_LOOP,
    "protocols.useful_step_ratio": _ROUND_LOOP,
    "arithmetic.lfloat.ops": _ROUND_LOOP,
    "arithmetic.bc_err_ratio": ("none (accuracy; gated at <= 1 on every run)", "all"),
    "wire.size_calls": _ROUND_LOOP,
    "congest.stats.observe_calls": _ROUND_LOOP,
    "congest.stats.observe_s": _ROUND_LOOP,
    "gc.collections": _ROUND_LOOP,
    "gc.pause_s": _ROUND_LOOP,
    "shard.partition.s": _SHARD,
    "shard.runtime.barriers": _SHARD,
    "shard.runtime.useful_barrier_ratio": _SHARD,
    "shard.runtime.barrier_wait_s": _SHARD,
    "shard.runtime.exchange_bytes": _SHARD,
    "shard.frames.encode_s": _SHARD,
    "shard.frames.decode_s": _SHARD,
    "shard.runtime.worker_busy_s": _SHARD,
    "shard.runtime.worker_wait_s": _SHARD,
    "shard.runtime.cross_msgs": _SHARD,
    "shard.runtime.cross_bits": _SHARD,
    "shard.runtime.edge_cut": _SHARD,
    "shard.checkpoint.writes": _CHECKPOINT,
    "shard.checkpoint.bytes": _CHECKPOINT,
    "shard.checkpoint.write_s": _CHECKPOINT,
    "shard.checkpoint.snapshot_s": _CHECKPOINT,
    "faults.injector.injected": _FAULTS,
    "faults.injector.deliver_s": _FAULTS,
    "faults.transport.goodput_ratio": _FAULTS,
    "trace.overhead": ("none (tracing cost)", "all"),
    "trace.accounted_fraction": ("none (trace coverage)", "all"),
}


class Run:
    """One CLI run: the driver's record plus what the parent measured."""

    def __init__(self, record, wall_s, cpu_s, rss_mb, spawned):
        self.record = record
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.spawned = spawned
        self.failures: List[str] = []
        #: per-layer figures, for a passing traced run
        self.layers: Dict[str, float] = {}

    def stamp(self, name: str) -> float:
        """Seconds from exec to the driver's stamp ``name``."""
        return self.record["stamps"][name] - self.spawned


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a run's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(
    argv: List[str],
    run_dir: Path,
    trace_dir: Optional[Path],
    timeout: float,
    cpu: Optional[int] = None,
) -> Run:
    """Run the driver on ``argv`` once; time it from exec to exit.

    ``cpu`` pins the run's whole process tree to that CPU.
    """
    out = run_dir / "record.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(HERE / "driver.py"), str(out)]
    if trace_dir is not None:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        cmd.append(str(trace_dir))
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    cmd += ["--"] + argv
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=str(tmp))
    env.pop("PYTHONPATH", None)
    timed_out = threading.Event()
    with open(run_dir / "stdout.txt", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
            start_new_session=True,
        )

        def kill():
            timed_out.set()
            _reap_group(proc.pid)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_group(proc.pid)
    record = json.loads(out.read_text()) if out.exists() else None
    if record is not None and timed_out.is_set():
        record["timed_out"] = True
    return Run(
        record,
        wall_s=exited - spawned,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        spawned=spawned,
    )


def end_to_end(runs: List[Run], attempted: int, failed: int) -> Dict[str, float]:
    """Every end-to-end metric; timings are medians over passing runs."""
    ok = [run for run in runs if not run.failures]
    metrics = {"ok_frac": (attempted - failed) / attempted}
    if not ok:
        return metrics
    first = ok[0].record
    metrics.update(
        wall_s=statistics.median(run.wall_s for run in ok),
        setup_s=statistics.median(run.stamp("run_enter") for run in ok),
        solve_s=statistics.median(
            run.record["stamps"]["run_exit"] - run.record["stamps"]["run_enter"]
            for run in ok
        ),
        cpu_s=statistics.median(run.cpu_s for run in ok),
        msgs_per_s=statistics.median(
            run.record["messages"]
            / (run.record["stamps"]["run_exit"] - run.record["stamps"]["run_enter"])
            for run in ok
        ),
        peak_rss_mb=statistics.median(run.rss_mb for run in ok),
        rounds=first["rounds"],
        bits=first["bits"],
        messages=first["messages"],
        max_edge_bits=first["max_edge_bits"],
    )
    return metrics


def _worker_files(trace_dir: Path) -> List[Dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(trace_dir.glob("worker-*.json"))
    ]


def per_layer(run: Run, workers: List[Dict], exact) -> Dict[str, float]:
    """Per-layer figures of one traced run (0 for a bypassed layer)."""
    record = run.record
    trace = record["trace"]
    procs = [trace] + workers

    def total(name, where=(trace,)):
        return sum(p["layers"].get(name, [0, 0.0, 0.0])[1] for p in where)

    def calls(name, where=(trace,)):
        return sum(p["layers"].get(name, [0, 0.0, 0.0])[0] for p in where)

    def count(name, where=(trace,)):
        return sum(p["counts"].get(name, 0) for p in where)

    def ratio(num, den):
        return num / den if den else 0.0

    shard = record.get("shard") or {}
    faults = record.get("faults") or {}
    steps = calls("protocols.step", procs)
    barriers = calls("shard.runtime.barrier")
    cli_import = run.stamp("imported")
    covered = cli_import + sum(layer[2] for layer in trace["layers"].values())
    return {
        "cli.import_s": cli_import,
        "graphs.io.load_s": total("graphs.io.load"),
        "engines.dispatcher.decide_s": total("engines.dispatcher.decide"),
        "congest.simulator.build_s": total("congest.simulator.build"),
        "core.collect_s": total("core.collect"),
        "cli.print_s": total("cli.print"),
        "engines.bulk.run_s": total("engines.bulk.run"),
        "engines.bulk.stats_s": total("engines.bulk.stats"),
        "engines.lfmath.calls": calls("engines.lfmath"),
        "engines.lfmath.s": total("engines.lfmath"),
        "congest.simulator.run_s": total("congest.simulator.run"),
        "protocols.step_calls": steps,
        "protocols.step_s": total("protocols.step", procs),
        "protocols.useful_step_ratio": ratio(count("protocols.useful_steps", procs), steps),
        "arithmetic.lfloat.ops": count("arithmetic.lfloat.ops", procs),
        "arithmetic.bc_err_ratio": bc_err_ratio(record, exact),
        "wire.size_calls": count("wire.size", procs),
        "congest.stats.observe_calls": calls("congest.stats.observe", procs),
        "congest.stats.observe_s": total("congest.stats.observe", procs),
        "gc.collections": sum(p["gc"]["collections"] for p in procs),
        "gc.pause_s": sum(p["gc"]["pause_s"] for p in procs),
        "shard.partition.s": total("shard.partition"),
        "shard.runtime.barriers": barriers,
        "shard.runtime.useful_barrier_ratio": ratio(
            count("shard.runtime.useful_barriers"), barriers
        ),
        "shard.runtime.barrier_wait_s": total("shard.runtime.barrier_wait"),
        "shard.runtime.exchange_bytes": count("shard.runtime.exchange_bytes"),
        "shard.frames.encode_s": total("shard.frames.encode", procs),
        "shard.frames.decode_s": total("shard.frames.decode", procs),
        "shard.runtime.worker_busy_s": sum(
            w["lifetime_s"] - total("shard.worker.wait", (w,)) for w in workers
        ),
        "shard.runtime.worker_wait_s": total("shard.worker.wait", workers),
        "shard.runtime.cross_msgs": shard.get("cross_messages", 0),
        "shard.runtime.cross_bits": shard.get("cross_bits", 0),
        "shard.runtime.edge_cut": shard.get("edge_cut", 0),
        "shard.checkpoint.writes": calls("shard.checkpoint.write"),
        "shard.checkpoint.bytes": count("shard.checkpoint.bytes"),
        "shard.checkpoint.write_s": total("shard.checkpoint.write"),
        "shard.checkpoint.snapshot_s": total("shard.checkpoint.snapshot", procs),
        "faults.injector.injected": faults.get("total_injected", 0),
        "faults.injector.deliver_s": total("faults.injector.deliver"),
        "trace.accounted_fraction": covered / run.wall_s,
    }


def layer_metrics(untraced: List[Run], traced: List[Run], goodput: float) -> Dict[str, float]:
    rows = [run.layers for run in traced if not run.failures]
    if not rows:
        return {}
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain = [run.wall_s for run in untraced if not run.failures]
    metrics["trace.overhead"] = (
        statistics.median(run.wall_s for run in traced if not run.failures)
        / statistics.median(plain)
        if plain else 0.0
    )
    metrics["faults.transport.goodput_ratio"] = goodput
    return metrics


def _summary(name: str, values: List[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        spread = "p25 {:.4g} p75 {:.4g}".format(q1, q3)
    else:
        spread = "single sample"
    return "  {:<28} median {:.6g} {} ({}, n={})".format(
        name, statistics.median(values), unit, spread, len(values)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    src = ROOT / "src"
    if not (src / "repro" / "cli.py").is_file():
        print("perfbench: no repro sources under {}".format(src), file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(src))
    # Import what every workload's runs import, so no timed run pays for
    # compiling bytecode or reading cold files.
    import repro.cli  # noqa: F401
    import repro.engines.bulk  # noqa: F401
    import repro.shard.runtime  # noqa: F401

    spec = WORKLOADS[args.workload]
    work = STATE / "work" / "{}-s{}".format(args.workload, args.seed)
    shutil.rmtree(work, ignore_errors=True)
    inputs = write_inputs(args.workload, args.seed, work / "input")
    exact = reference(Path(inputs["graph"]), STATE / "cache")
    run_dir = work / "run"
    run_dir.mkdir()
    ckpt = str(work / "ckpt")
    argv_run = cli_argv(args.workload, inputs, checkpoint_dir=ckpt)

    # The shard workload's coordinator and worker share one CPU: on a
    # host whose second core comes and goes with other tenants' load,
    # two-core wall times swing by a factor of two from minute to minute.
    cpu = min(os.sched_getaffinity(0)) if spec.one_cpu else None
    runs: List[Run] = []
    untraced: List[Run] = []
    traced: List[Run] = []
    first_ok: Optional[Dict] = None
    failed = 0
    loop_start = time.monotonic()

    def one(trace: bool, argv_one=argv_run, engine=spec.engine) -> Run:
        nonlocal first_ok, failed
        shutil.rmtree(ckpt, ignore_errors=True)
        trace_dir = work / "trace" if trace else None
        left = INVOCATION_LIMIT_S - (time.monotonic() - began)
        run = spawn(argv_one, run_dir, trace_dir, max(1.0, min(RUN_TIMEOUT_S, left)), cpu)
        shutil.rmtree(ckpt, ignore_errors=True)
        reference_run = first_ok if argv_one is argv_run else None
        run.failures = run_failures(run.record, engine, exact, reference_run)
        if run.failures:
            failed += 1
            print("run failed: {}".format("; ".join(run.failures)))
        elif argv_one is argv_run and first_ok is None:
            first_ok = run.record
        if trace and not run.failures:
            run.layers = per_layer(run, _worker_files(trace_dir), exact)
        return run

    while True:
        elapsed = time.monotonic() - loop_start
        estimate = statistics.median(r.wall_s for r in runs) if runs else 0.0
        enough = len(runs) >= MIN_RUNS and (not args.trace or (untraced and traced))
        if enough and elapsed + estimate > args.seconds:
            break
        if runs and time.monotonic() - began + 2 * estimate > INVOCATION_LIMIT_S:
            break
        trace = bool(args.trace) and len(runs) % 2 == 1
        run = one(trace)
        runs.append(run)
        (traced if trace else untraced).append(run)
    goodput = 0.0
    if args.trace and spec.command == "chaos" and first_ok is not None:
        # The same input and root without faults: its message count over
        # the chaos run's is the resilient transport's goodput.
        cut = argv_run.index("--engine")
        clean_argv = ["bc"] + argv_run[1:cut] + ["--engine", "event"]
        clean = one(False, clean_argv, "event")
        runs.append(clean)
        if not clean.failures:
            goodput = clean.record["messages"] / first_ok["messages"]
    attempted = len(runs)

    if args.trace:
        metrics = layer_metrics(untraced, traced, goodput)
    else:
        metrics = end_to_end(untraced, attempted, failed)
    correct = failed == 0 and all(entry["name"] in metrics for entry in section)
    engines = sorted({r.record.get("engine") for r in runs if r.record and "engine" in r.record})
    reasons = sorted({r.record.get("engine_reason") for r in runs if r.record and "engine" in r.record})
    print("perfbench {} seed {}: {} runs ({} failed) in {:.1f} s; engine {} ({}); "
          "cpu_count {}".format(args.workload, args.seed, attempted, failed,
                                time.monotonic() - loop_start, ",".join(engines),
                                "; ".join(reasons), os.cpu_count()))
    ok = [r for r in untraced if not r.failures]
    if ok:
        print(_summary("wall_s", [r.wall_s for r in ok], "s"))
        print(_summary("setup_s", [r.stamp("run_enter") for r in ok], "s"))
        print(_summary("cpu_s", [r.cpu_s for r in ok], "s"))
    last_trace = [r.record["trace"] for r in traced if not r.failures][-1:]
    result_file = STATE / "results" / "{}-s{}-t{}.json".format(args.workload, args.seed, args.trace)
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cpu_count": os.cpu_count(), "engines": engines, "engine_reasons": reasons,
        "inputs": inputs, "argv": argv_run, "metrics": metrics,
        "runs": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "peak_rss_mb": r.rss_mb,
             "traced": r in traced, "failures": r.failures}
            for r in runs
        ],
        "spans": last_trace[0]["spans"] if last_trace else [],
    }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in section
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
