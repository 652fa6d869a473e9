"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------
``bc``        distributed betweenness on a named or file-loaded graph
``apsp``      counting phase only: distances, closeness, graph centrality
``stress``    distributed stress centrality
``sample``    sampled (approximate) distributed betweenness
``schedule``  analytic BFS start / sending times (Figure 1 style tables)
``gadget``    build and verify a Section IX lower-bound gadget
``report``    instrumented run: phase table, invariant monitor verdicts,
              optional profile, JSONL metrics export, live streaming
              (``--progress``/``--stream-jsonl``), partial-log rendering
              (``--from``) and Chrome trace export (``--chrome-trace``)
``watch``     tail a live-streamed telemetry JSONL
``bench``     benchmark regression gates (``compare``) and history
              ledger ingestion (``ingest``)
``chaos``     run under an adversarial fault plan (message faults, node
              crashes, and ``--hang``/``--slow`` worker-process faults)
``resume``    restart an interrupted supervised run from its newest
              round-boundary checkpoint (bit-identical continuation)
``info``      graph statistics

``trace diff`` compares two saved traces (or two engines on one graph)
and pinpoints the first divergent delivery down to the decoded frame
field when payload words were captured (``trace --payloads``).

Graphs are specified with ``--graph``: either a named generator
(``karate``, ``figure1``, ``path:20``, ``cycle:16``, ``grid:4x5``,
``er:30:0.2:7`` as name:args) or ``--file edgelist.txt``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis import print_table
from repro.centrality import brandes_betweenness
from repro.congest.options import ENGINES, PARTITIONERS, RunOptions
from repro.core import (
    bfs_start_times,
    distributed_apsp,
    distributed_betweenness,
    distributed_sampled_betweenness,
    distributed_stress,
    sending_times,
)
from repro.exceptions import ReproError
from repro.graphs import (
    Graph,
    balanced_tree,
    complete_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    diamond_chain_graph,
    figure1_graph,
    grid_graph,
    hypercube_graph,
    karate_club_graph,
    path_graph,
    read_edge_list,
    star_graph,
)


def parse_graph_spec(spec: str) -> Graph:
    """Resolve a ``name[:arg[:arg...]]`` graph spec into a Graph."""
    name, _, rest = spec.partition(":")
    args = rest.split(":") if rest else []
    try:
        if name == "karate":
            return karate_club_graph()
        if name == "figure1":
            return figure1_graph()
        if name == "path":
            return path_graph(int(args[0]))
        if name == "cycle":
            return cycle_graph(int(args[0]))
        if name == "star":
            return star_graph(int(args[0]))
        if name == "complete":
            return complete_graph(int(args[0]))
        if name == "grid":
            rows, cols = args[0].split("x")
            return grid_graph(int(rows), int(cols))
        if name == "tree":
            return balanced_tree(int(args[0]), int(args[1]))
        if name == "hypercube":
            return hypercube_graph(int(args[0]))
        if name == "diamonds":
            return diamond_chain_graph(int(args[0]))
        if name == "er":
            n = int(args[0])
            p = float(args[1])
            seed = int(args[2]) if len(args) > 2 else 0
            return connected_erdos_renyi_graph(n, p, seed)
    except (IndexError, ValueError) as err:
        raise SystemExit("bad graph spec {!r}: {}".format(spec, err))
    raise SystemExit(
        "unknown graph {!r} (try karate, figure1, path:N, cycle:N, star:N, "
        "complete:N, grid:RxC, tree:B:H, hypercube:D, diamonds:K, "
        "er:N:P[:SEED])".format(name)
    )


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "file", None):
        if str(args.file).endswith(".json"):
            from repro.graphs import read_json

            return read_json(args.file)
        return read_edge_list(args.file)
    return parse_graph_spec(args.graph)


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--graph", default="karate", help="graph spec (default: karate)"
    )
    parser.add_argument("--file", help="edge-list file (overrides --graph)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive int, got {}".format(text)
        )
    return value


def _add_protocol_options(parser: argparse.ArgumentParser) -> None:
    from repro.protocols import DEFAULT_PROTOCOL, protocol_names

    parser.add_argument(
        "--protocol",
        choices=protocol_names(),
        default=DEFAULT_PROTOCOL,
        help="registered node algorithm to run (default: {}; cfp-bc is "
        "the time-reversed accumulation rival)".format(DEFAULT_PROTOCOL),
    )
    parser.add_argument(
        "--arithmetic",
        default="lfloat",
        help='"exact", "lfloat", or "lfloat-<L>" (default: lfloat)',
    )
    parser.add_argument("--root", type=int, default=0, help="BFS tree root u0")
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="disable strict CONGEST budget enforcement",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=RunOptions.engine,
        help="simulator engine: auto (default) picks the fastest capable "
        "backend — the vectorized numpy bulk engine when available, else "
        "event-driven active-node scheduling; sweep is the lockstep "
        "reference; shard is the multi-process runtime (see --workers), "
        "never auto-selected",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=RunOptions.workers,
        help="worker processes for --engine shard (default 1; ignored "
        "by the single-process engines)",
    )
    parser.add_argument(
        "--partitioner",
        choices=PARTITIONERS,
        default=RunOptions.partitioner,
        help="node partitioner for --engine shard: greedy (default) "
        "grows shards along BFS frontiers to cut fewer edges; block "
        "slices node ids into contiguous ranges",
    )
    parser.add_argument(
        "--frame-audit",
        action="store_true",
        help="materialize every per-edge frame through the wire codec "
        "and verify its length against the billed bits",
    )
    parser.add_argument(
        "--top", type=int, default=10, help="rows to print (default 10)"
    )


def _streaming_telemetry(args: argparse.Namespace):
    """A live-streaming Telemetry when ``--progress``/``--stream-jsonl``
    was given, else None (keeping the zero-cost no-telemetry path)."""
    if not (getattr(args, "progress", False) or getattr(args, "stream_jsonl", None)):
        return None
    from repro.obs import Telemetry

    return Telemetry.with_streaming(
        jsonl_path=args.stream_jsonl,
        progress=True,
        console=bool(args.progress),
    )


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="write a resumable snapshot every this many processed "
        "rounds (requires --engine shard and --checkpoint-dir; "
        "0 = off)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="root directory for checkpoints (a run-key subdirectory "
        "is created per run); see `repro resume`",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        metavar="N",
        help="respawn budget per shard worker: a dead or hung worker "
        "is restarted from the last checkpoint up to N times before "
        "its shard is abandoned (deterministic partial result)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog patience: a worker whose heartbeat is older "
        "than this mid-round is declared hung (default 30)",
    )
    # Testing aid for the recovery suite: pause (exit 3) right after
    # the first checkpoint at or past this round is durable.
    parser.add_argument(
        "--checkpoint-stop-after",
        type=int,
        default=None,
        help=argparse.SUPPRESS,
    )


def _supervision_flags(args: argparse.Namespace) -> List[str]:
    """The supervision flags given on the command line (empty if none)."""
    given = [
        name
        for name in ("checkpoint_every", "checkpoint_dir", "max_restarts")
        if getattr(args, name, None)
    ]
    given.extend(
        name
        for name in ("heartbeat_timeout", "checkpoint_stop_after")
        if getattr(args, name, None) is not None
    )
    return ["--" + name.replace("_", "-") for name in given]


def _run_options(args: argparse.Namespace, plan=None) -> RunOptions:
    """The one :class:`RunOptions` of a protocol command, from its flags.

    Supervision flags add a SupervisionConfig whose manifest metadata
    carries the command-line recipe (see :func:`_recipe`), so ``repro
    resume`` can rebuild the graph, protocol and fault plan without
    re-asking.
    """
    options = RunOptions(
        engine=args.engine,
        workers=args.workers,
        partitioner=args.partitioner,
        strict=not args.lenient,
        frame_audit=args.frame_audit,
    )
    if not _supervision_flags(args):
        return options
    recipe = _recipe(args, options, plan)
    return replace(
        options,
        supervision=_supervision(
            args,
            checkpoint_every=recipe["checkpoint_every"],
            checkpoint_dir=recipe["checkpoint_dir"],
            stop_after=args.checkpoint_stop_after,
            meta={"cli": recipe},
        ),
    )


def _supervision(args: argparse.Namespace, **fields):
    """A SupervisionConfig from the watchdog flags plus ``fields``."""
    from repro.shard.supervisor import SupervisionConfig

    if args.heartbeat_timeout is not None:
        fields["heartbeat_timeout"] = args.heartbeat_timeout
    return SupervisionConfig(max_restarts=args.max_restarts, **fields)


def _recipe(args: argparse.Namespace, options: RunOptions, plan=None):
    """The resume recipe of a supervised run; read back by
    :func:`_options_from_recipe`."""
    return {
        "graph": args.graph,
        "file": str(args.file) if args.file else None,
        "protocol": args.protocol,
        "arithmetic": args.arithmetic,
        "root": args.root,
        "lenient": not options.strict,
        "workers": options.workers,
        "partitioner": options.partitioner,
        "resilient": not getattr(args, "raw", True),
        "checkpoint_every": args.checkpoint_every or 0,
        "checkpoint_dir": args.checkpoint_dir,
        "plan": plan.to_dict() if plan is not None else None,
    }


def _options_from_recipe(recipe, ckpt, args: argparse.Namespace) -> RunOptions:
    """The :class:`RunOptions` resuming snapshot ``ckpt`` (see :func:`_recipe`).

    The resumed run keeps writing into the same run directory (derived
    from the snapshot's real location, not the possibly-relative recipe
    path), so it stays checkpointed and restartable.
    """
    every = recipe.get("checkpoint_every", 0) or 0
    return RunOptions(
        engine="shard",
        workers=recipe.get("workers", RunOptions.workers),
        partitioner=recipe.get("partitioner", RunOptions.partitioner),
        strict=not recipe.get("lenient", False),
        supervision=_supervision(
            args,
            checkpoint_every=every,
            checkpoint_dir=str(ckpt.parent.parent) if every else None,
            resume_from=str(ckpt),
            meta={"cli": recipe},
        ),
    )


def _print_supervisor_summary(stats) -> None:
    """One-line recovery story for supervised runs (chaos/bc/resume)."""
    supervisor = getattr(stats, "supervisor", None)
    if supervisor is None:
        return
    parts = [
        "{} restart(s)".format(supervisor["restarts"]),
        "{} hang detection(s)".format(supervisor["hang_detections"]),
        "{} rollback(s)".format(supervisor["rollbacks"]),
        "{} checkpoint(s)".format(supervisor["checkpoints_written"]),
    ]
    if supervisor["resumed_from"] is not None:
        parts.append("resumed from round {}".format(supervisor["resumed_from"]))
    if supervisor["shards_abandoned"]:
        parts.append(
            "shard(s) {} abandoned".format(supervisor["shards_abandoned"])
        )
    print("supervisor: " + ", ".join(parts))


def cmd_bc(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    from repro.graphs.weighted import WeightedGraph

    weighted = isinstance(graph, WeightedGraph)
    if weighted:
        if getattr(args, "protocol", None) not in (None, "hua-bc"):
            raise SystemExit(
                "--protocol {} is not available for weighted graphs "
                "(the subdivision pipeline drives the stock protocol "
                "directly)".format(args.protocol)
            )
        flags = _supervision_flags(args)
        if flags:
            raise SystemExit(
                "{} not available for weighted graphs (repro resume "
                "rebuilds the unweighted pipeline only, so the run "
                "could never be resumed)".format(", ".join(flags))
            )
    options = _run_options(args)
    telemetry = _streaming_telemetry(args)
    if weighted:
        code = _cmd_bc_weighted(args, graph, options, telemetry)
        if telemetry is not None and telemetry.bus is not None:
            telemetry.bus.close()
        return code
    from repro.exceptions import CheckpointPause

    try:
        result = distributed_betweenness(
            graph,
            arithmetic=args.arithmetic,
            root=args.root,
            options=options,
            telemetry=telemetry,
            protocol=args.protocol,
        )
    except CheckpointPause as pause:
        print(
            "run paused at round {}; resume with: repro resume {}".format(
                pause.round_number, pause.checkpoint_path
            )
        )
        return 3
    if telemetry is not None and telemetry.bus is not None:
        telemetry.bus.close()
    ranked = sorted(
        graph.nodes(), key=lambda v: result.betweenness[v], reverse=True
    )
    rows = [[v, result.betweenness[v], graph.degree(v)] for v in ranked[: args.top]]
    if args.check:
        reference = brandes_betweenness(graph)
        for row in rows:
            row.append(reference[row[0]])
    print_table(
        ["node", "betweenness", "degree"] + (["Brandes"] if args.check else []),
        rows,
        title="Distributed betweenness on {} ({}, N={}, rounds={}, D={}, "
        "max bits/edge/round={})".format(
            graph.name,
            result.protocol,
            graph.num_nodes,
            result.rounds,
            result.diameter,
            result.stats.max_edge_bits_per_round,
        ),
    )
    _print_supervisor_summary(result.stats)
    return 0


def _cmd_bc_weighted(
    args: argparse.Namespace, graph, options: RunOptions, telemetry
) -> int:
    from repro.centrality import weighted_brandes_betweenness
    from repro.core import distributed_weighted_betweenness

    result = distributed_weighted_betweenness(
        graph,
        arithmetic=args.arithmetic,
        root=args.root,
        options=options,
        telemetry=telemetry,
    )
    ranked = sorted(
        graph.nodes(), key=lambda v: result.betweenness[v], reverse=True
    )
    rows = [[v, result.betweenness[v]] for v in ranked[: args.top]]
    if args.check:
        reference = weighted_brandes_betweenness(graph)
        for row in rows:
            row.append(reference[row[0]])
    print_table(
        ["node", "weighted betweenness"]
        + (["weighted Brandes"] if args.check else []),
        rows,
        title="Distributed weighted betweenness on {} (N={} + {} virtual, "
        "rounds={})".format(
            graph.name,
            graph.num_nodes,
            result.subdivision.num_virtual,
            result.rounds,
        ),
    )
    return 0


def cmd_apsp(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = distributed_apsp(
        graph,
        root=args.root,
        options=_run_options(args),
        protocol=args.protocol,
    )
    closeness = result.closeness()
    graph_c = result.graph_centrality()
    ecc = result.eccentricities()
    ranked = sorted(graph.nodes(), key=lambda v: closeness[v], reverse=True)
    print_table(
        ["node", "closeness", "graph centrality", "eccentricity"],
        [[v, closeness[v], graph_c[v], ecc[v]] for v in ranked[: args.top]],
        title="Counting phase on {} (rounds={}, D={})".format(
            graph.name, result.rounds, result.diameter
        ),
    )
    return 0


def cmd_stress(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = distributed_stress(
        graph,
        arithmetic=args.arithmetic,
        root=args.root,
        options=_run_options(args),
        protocol=args.protocol,
    )
    ranked = sorted(graph.nodes(), key=lambda v: result.stress[v], reverse=True)
    print_table(
        ["node", "stress", "degree"],
        [[v, result.stress[v], graph.degree(v)] for v in ranked[: args.top]],
        title="Distributed stress centrality on {} (rounds={})".format(
            graph.name, result.rounds
        ),
    )
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    result = distributed_sampled_betweenness(
        graph,
        args.pivots,
        seed=args.seed,
        arithmetic=args.arithmetic,
        root=args.root,
        options=_run_options(args),
        protocol=args.protocol,
    )
    ranked = sorted(graph.nodes(), key=lambda v: result.estimate[v], reverse=True)
    print_table(
        ["node", "estimated betweenness"],
        [[v, result.estimate[v]] for v in ranked[: args.top]],
        title="Sampled distributed BC on {} (k={}, rounds={}, messages={})".format(
            graph.name, args.pivots, result.rounds, result.stats.message_count
        ),
    )
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    times = bfs_start_times(graph, root=args.root, mode=args.mode)
    tables = sending_times(graph, times)
    shown = sorted(times)[: args.top]
    print_table(
        ["source", "T_s"],
        [[s, times[s]] for s in shown],
        title="BFS start times on {} ({} token)".format(graph.name, args.mode),
    )
    for s in shown[: min(3, len(shown))]:
        print_table(
            ["node", "sending time T_s + D - d(s, v)"],
            sorted(tables[s].items()),
            title="Sending times in BFS({})".format(s),
        )
    return 0


def cmd_gadget(args: argparse.Namespace) -> int:
    from repro.graphs import diameter as graph_diameter
    from repro.lowerbound import (
        build_bc_gadget,
        build_diameter_gadget,
        family_pair,
    )

    x_family, y_family, m = family_pair(
        args.sets, seed=args.seed, force_intersection=args.intersect
    )
    if args.kind == "diameter":
        gadget = build_diameter_gadget(x_family, y_family, x=args.x, m=m)
        measured = graph_diameter(gadget.graph)
        print_table(
            ["metric", "value"],
            [
                ["N", gadget.graph.num_nodes],
                ["families intersect", bool(set(x_family) & set(y_family))],
                ["measured diameter", measured],
                ["Lemma 8 prediction", gadget.expected_diameter()],
                ["cut width", gadget.cut_width()],
            ],
            title="Figure 2 diameter gadget",
        )
    else:
        gadget = build_bc_gadget(x_family, y_family, m)
        bc = brandes_betweenness(gadget.graph, exact=True)
        print_table(
            ["flag", "CB", "Lemma 9"],
            [
                [
                    "F{}".format(i + 1),
                    str(bc[gadget.f[i]]),
                    str(gadget.expected_flag_centrality(i)),
                ]
                for i in range(gadget.n)
            ],
            title="Figure 3 BC gadget (N={})".format(gadget.graph.num_nodes),
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.congest import Tracer

    graph = _load_graph(args)
    tracer = Tracer(capture_payloads=args.payloads)
    result = distributed_betweenness(
        graph,
        arithmetic=args.arithmetic,
        root=args.root,
        options=_run_options(args),
        tracer=tracer,
        protocol=args.protocol,
    )
    print(
        "{} ({}): {} rounds, {} messages, {} bits\n".format(
            graph.name,
            result.protocol,
            result.rounds,
            result.stats.message_count,
            result.stats.bit_count,
        )
    )
    print(tracer.timeline(width=args.width))
    print()
    print_table(
        ["message type", "count", "bits", "active rounds"],
        [
            [
                name,
                stats["count"],
                stats["bits"],
                "{}..{}".format(stats["first_round"], stats["last_round"]),
            ]
            for name, stats in tracer.summary().items()
        ],
        title="Traffic by message type",
    )
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.write(tracer.to_json())
        print(
            "\ntrace written to {} ({} deliveries{})".format(
                args.trace_out,
                len(tracer),
                ", payload words included" if args.payloads else "",
            )
        )
    return 0


def cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.congest import Tracer
    from repro.obs.tracediff import diff_report, first_divergence

    if args.traces and len(args.traces) != 2:
        raise SystemExit(
            "trace diff wants exactly two trace files (or none, to run "
            "--engines on --graph); got {}".format(len(args.traces))
        )
    if args.traces:
        traces = []
        for path in args.traces:
            with open(path, "r", encoding="utf-8") as fh:
                traces.append(Tracer.from_json(fh.read()))
        trace_a, trace_b = traces
        label_a, label_b = args.traces
    elif args.protocols:
        # Protocol-vs-protocol mode: same engine, two registered node
        # algorithms — the forensic view of where a rival's traffic
        # schedule departs from the stock one.
        protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
        if len(protocols) != 2:
            raise SystemExit(
                "--protocols wants two comma-separated protocol names, "
                "got {!r}".format(args.protocols)
            )
        graph = _load_graph(args)
        traces = []
        for protocol in protocols:
            tracer = Tracer(capture_payloads=True)
            distributed_betweenness(
                graph,
                arithmetic=args.arithmetic,
                root=args.root,
                tracer=tracer,
                options=RunOptions(engine="event"),
                protocol=protocol,
            )
            traces.append(tracer)
        trace_a, trace_b = traces
        label_a, label_b = protocols
    else:
        engines = [e.strip() for e in args.engines.split(",") if e.strip()]
        if len(engines) != 2:
            raise SystemExit(
                "--engines wants two comma-separated engines, "
                "got {!r}".format(args.engines)
            )
        graph = _load_graph(args)
        traces = []
        for engine in engines:
            tracer = Tracer(capture_payloads=True)
            distributed_betweenness(
                graph,
                arithmetic=args.arithmetic,
                root=args.root,
                tracer=tracer,
                options=RunOptions(engine=engine),
            )
            traces.append(tracer)
        trace_a, trace_b = traces
        label_a, label_b = engines
    report = diff_report(
        trace_a,
        trace_b,
        arithmetic=args.arithmetic,
        label_a=label_a,
        label_b=label_b,
        context=args.context,
    )
    print(report)
    diverged = (
        first_divergence(trace_a, trace_b, arithmetic=args.arithmetic)
        is not None
    )
    return 1 if diverged else 0


def _report_from_rows(args: argparse.Namespace) -> int:
    """Render ``repro report`` output from a (possibly torn) JSONL export."""
    from repro.obs.schema import load_jsonl_rows, meta_row

    rows, warnings = load_jsonl_rows(args.from_path)
    for warning in warnings:
        print("warning: {}".format(warning), file=sys.stderr)
    meta = meta_row(rows)
    if meta is None:
        print(
            "error: {} has no meta header row — not a telemetry "
            "export".format(args.from_path),
            file=sys.stderr,
        )
        return 2
    print(
        "Run on {} ({}, N={}, engine={}, requested={}{})".format(
            meta.get("graph"),
            meta.get("protocol", "hua-bc"),
            meta.get("num_nodes"),
            meta.get("engine"),
            meta.get("engine_requested", meta.get("engine")),
            ", {}".format(meta["engine_reason"])
            if meta.get("engine_reason")
            else "",
        )
    )
    progress_rows = [r for r in rows if r.get("event") == "progress"]
    metric_rows = [r for r in rows if r.get("event") == "metric"]
    if progress_rows and not metric_rows:
        last = progress_rows[-1]
        print(
            "run INCOMPLETE: last heartbeat at round {}{} — the stream "
            "ended before finalization".format(
                last.get("round"),
                " ({}%)".format(last["percent"]) if "percent" in last else "",
            )
        )
    phase_rows = [r for r in rows if r.get("event") == "phase"]
    if phase_rows:
        print()
        print_table(
            ["phase", "start round", "end round", "rounds", "wall ms"],
            [
                [
                    row.get("name"),
                    row.get("start_round"),
                    row.get("end_round"),
                    row.get("rounds"),
                    round(1000 * row.get("wall_seconds", 0.0), 3),
                ]
                for row in phase_rows
            ],
            title="Protocol phases",
        )
    if metric_rows:
        print()
        print_table(
            ["metric", "value"],
            [
                [row.get("name"), row.get("value")]
                for row in sorted(
                    metric_rows, key=lambda r: str(r.get("name"))
                )
            ],
            title="Metrics",
        )
    monitor_rows = [r for r in rows if r.get("event") == "monitor"]
    if monitor_rows:
        print()
        print_table(
            ["monitor", "status", "checked", "violations"],
            [
                [
                    row.get("monitor"),
                    row.get("status"),
                    row.get("checked"),
                    row.get("violation_count"),
                ]
                for row in monitor_rows
            ],
            title="Invariant monitors",
        )
    if args.chrome_trace:
        from repro.obs.chrometrace import write_chrome_trace

        count = write_chrome_trace(rows, args.chrome_trace)
        print(
            "\nchrome trace written to {} ({} events)".format(
                args.chrome_trace, count
            )
        )
    return 0 if all(row.get("ok", True) for row in monitor_rows) else 1


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry, default_monitors

    if args.from_path:
        return _report_from_rows(args)
    graph = _load_graph(args)
    tracer = None
    if args.timeline:
        from repro.congest import Tracer

        tracer = Tracer()
    if args.progress or args.stream_jsonl:
        telemetry = Telemetry.with_streaming(
            jsonl_path=args.stream_jsonl,
            progress=True,
            console=bool(args.progress),
            monitors=default_monitors(args.monitor_mode),
            profile=args.profile,
        )
    else:
        telemetry = Telemetry(
            monitors=default_monitors(args.monitor_mode),
            profile=args.profile,
        )
    from repro.exceptions import SimulationNotTerminatedError

    try:
        result = distributed_betweenness(
            graph,
            arithmetic=args.arithmetic,
            root=args.root,
            options=_run_options(args),
            tracer=tracer,
            telemetry=telemetry,
            protocol=args.protocol,
        )
    except SimulationNotTerminatedError as err:
        # The structured fields answer the first three questions a
        # non-terminating run raises: how far, what limit, who's stuck.
        print_table(
            ["field", "value"],
            [
                ["graph", err.graph_name or graph.name],
                ["final round", err.round_number],
                ["round limit", err.round_limit],
                ["nodes still running", list(err.pending_nodes)],
            ],
            title="Run did NOT terminate",
        )
        if telemetry.bus is not None:
            # The streamed partial log is exactly what post-mortems
            # want from a non-terminating run; leave it closed cleanly.
            telemetry.bus.close()
        return 1
    print_table(
        ["statistic", "value"],
        [[key, value] for key, value in result.stats.summary().items()],
        title="Run statistics on {} ({}, N={}, D={}, {}, engine={})".format(
            graph.name,
            result.protocol,
            graph.num_nodes,
            result.diameter,
            result.arithmetic,
            result.stats.engine or args.engine,
        ),
    )
    meta = telemetry.events()[0]
    print(
        "engine: requested={} resolved={}{}".format(
            meta.get("engine_requested", args.engine),
            meta.get("engine"),
            " ({})".format(meta["engine_reason"])
            if meta.get("engine_reason")
            else "",
        )
    )
    ledger_words = telemetry.registry.gauge("ledger.words").value
    if ledger_words is not None:
        print(
            "memory: {} ledger records, {} predecessor links, "
            "{} words total across nodes".format(
                telemetry.registry.gauge("ledger.records").value,
                telemetry.registry.gauge("ledger.pred_links").value,
                ledger_words,
            )
        )
    print()
    print_table(
        ["phase", "start round", "end round", "rounds", "wall ms"],
        telemetry.phases.table_rows(),
        title="Protocol phases (round boundaries from protocol state)",
    )
    print()
    print_table(
        ["monitor", "status", "checked", "violations", "detail"],
        [
            [
                verdict.monitor,
                verdict.status,
                verdict.checked,
                verdict.violation_count,
                ", ".join(
                    "{}={}".format(key, value)
                    for key, value in verdict.detail.items()
                ),
            ]
            for verdict in telemetry.verdicts()
        ],
        title="Invariant monitors",
    )
    for verdict in telemetry.verdicts():
        for description in verdict.violations:
            print("  ! {}".format(description))
    if args.profile:
        print()
        print_table(
            ["section", "seconds", "calls/count"],
            telemetry.profiler.table_rows(),
            title="Profile",
        )
    if tracer is not None:
        print()
        print(tracer.timeline(width=args.width))
    if args.metrics_out:
        telemetry.write_jsonl(args.metrics_out)
        print("\nmetrics written to {}".format(args.metrics_out))
    if args.chrome_trace:
        from repro.obs.chrometrace import write_chrome_trace

        count = write_chrome_trace(telemetry.events(), args.chrome_trace)
        print(
            "\nchrome trace written to {} ({} events)".format(
                args.chrome_trace, count
            )
        )
    if telemetry.bus is not None:
        telemetry.bus.close()
    return 0 if telemetry.all_ok() else 1


def _parse_hang_spec(spec: str):
    """``shard@round[:repeats]`` -> WorkerHang."""
    from repro.faults import WorkerHang

    try:
        shard_part, _, window = spec.partition("@")
        round_part, _, repeats_part = window.partition(":")
        return WorkerHang(
            int(shard_part),
            int(round_part),
            int(repeats_part) if repeats_part else 1,
        )
    except ValueError as err:
        raise SystemExit(
            "bad hang spec {!r} (want shard@round[:repeats]): {}".format(
                spec, err
            )
        )


def _parse_slow_spec(spec: str):
    """``shard@round[:delay_seconds]`` -> SlowWorker."""
    from repro.faults import SlowWorker

    try:
        shard_part, _, window = spec.partition("@")
        round_part, _, delay_part = window.partition(":")
        return SlowWorker(
            int(shard_part),
            int(round_part),
            float(delay_part) if delay_part else 0.5,
        )
    except ValueError as err:
        raise SystemExit(
            "bad slow spec {!r} (want shard@round[:delay]): {}".format(
                spec, err
            )
        )


def _parse_crash_spec(spec: str):
    """``node@start[:end]`` -> CrashWindow (end omitted = permanent)."""
    from repro.faults import CrashWindow

    try:
        node_part, _, window = spec.partition("@")
        start_part, _, end_part = window.partition(":")
        return CrashWindow(
            int(node_part),
            int(start_part),
            int(end_part) if end_part else None,
        )
    except ValueError as err:
        raise SystemExit(
            "bad crash spec {!r} (want node@start[:end]): {}".format(
                spec, err
            )
        )


def _parse_link_spec(spec: str):
    """``u-v@start:end`` -> LinkOutage."""
    from repro.faults import LinkOutage

    try:
        edge, _, window = spec.partition("@")
        u_part, _, v_part = edge.partition("-")
        start_part, _, end_part = window.partition(":")
        return LinkOutage(
            int(u_part), int(v_part), int(start_part), int(end_part)
        )
    except ValueError as err:
        raise SystemExit(
            "bad link-down spec {!r} (want u-v@start:end): {}".format(
                spec, err
            )
        )


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan

    if args.frame_audit:
        raise SystemExit(
            "--frame-audit is incompatible with chaos runs: the resilient "
            "transport's Envelope/Fence/Ack frames carry no wire tag (the "
            "4-bit registry is full) and cannot be materialized"
        )
    graph = _load_graph(args)
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = FaultPlan.from_json(fh.read())
    else:
        plan = FaultPlan(
            seed=args.seed,
            drop_rate=args.drop,
            duplicate_rate=args.dup,
            delay_rate=args.delay_rate,
            max_delay=args.max_delay,
            corrupt_rate=args.corrupt,
            crashes=tuple(_parse_crash_spec(s) for s in args.crash or ()),
            link_outages=tuple(
                _parse_link_spec(s) for s in args.link_down or ()
            ),
            worker_hangs=tuple(
                _parse_hang_spec(s) for s in args.hang or ()
            ),
            slow_workers=tuple(
                _parse_slow_spec(s) for s in args.slow or ()
            ),
        )
    if plan.has_infra_faults and args.engine != "shard":
        raise SystemExit(
            "--hang/--slow (worker_hangs/slow_workers) target shard "
            "worker processes; rerun with --engine shard --workers N"
        )
    if args.plan_out:
        with open(args.plan_out, "w", encoding="utf-8") as fh:
            fh.write(plan.to_json() + "\n")
        print("fault plan written to {}".format(args.plan_out))
    options = _run_options(args, plan=plan)
    result = distributed_betweenness(
        graph,
        arithmetic=args.arithmetic,
        root=args.root,
        options=options,
        faults=plan,
        resilient=not args.raw,
        protocol=args.protocol,
    )
    completeness = result.completeness
    fault_stats = getattr(result.stats, "faults", None)
    rows = [
        ["protocol", result.protocol],
        ["engine", result.stats.engine or args.engine],
        ["transport", "raw (no recovery)" if args.raw else "resilient"],
        ["rounds", result.rounds],
        ["complete", completeness.complete],
        ["source coverage", "{:.0%}".format(completeness.coverage)],
    ]
    if fault_stats is not None:
        rows.extend(
            [key, value] for key, value in fault_stats.as_dict().items()
        )
    if not completeness.complete:
        rows.append(["stalled at round", completeness.stalled_round])
        rows.append(
            ["affected sources", list(completeness.affected_sources)]
        )
        rows.append(["crashed nodes", list(completeness.crashed_nodes)])
    print_table(
        ["metric", "value"],
        rows,
        title="Chaos run on {} (N={}, seed={})".format(
            graph.name, graph.num_nodes, plan.seed
        ),
    )
    ranked = sorted(
        graph.nodes(), key=lambda v: result.betweenness[v], reverse=True
    )
    print()
    print_table(
        ["node", "betweenness"],
        [[v, result.betweenness[v]] for v in ranked[: args.top]],
        title="Recovered betweenness"
        if completeness.complete
        else "Partial betweenness ({} of {} sources)".format(
            len(completeness.complete_sources),
            len(completeness.complete_sources)
            + len(completeness.affected_sources),
        ),
    )
    _print_supervisor_summary(result.stats)
    if args.check:
        if not completeness.complete:
            print(
                "\ncheck skipped: partial run ({} sources lost)".format(
                    len(completeness.affected_sources)
                )
            )
        else:
            # The fault-layer guarantee is differential: a recovered run
            # must equal a fault-free run of the same protocol bit for
            # bit.  (Under L-bit floats the protocol itself differs from
            # Brandes by the Theorem 1 envelope, faults or no faults, so
            # Brandes is the reference only when the arithmetic is exact.)
            exact = args.arithmetic == "exact"
            if exact:
                reference = brandes_betweenness(graph, exact=True)
                mismatched = [
                    v
                    for v in graph.nodes()
                    if result.betweenness_exact[v] != reference[v]
                ]
                against = "Brandes"
            else:
                clean = distributed_betweenness(
                    graph,
                    arithmetic=args.arithmetic,
                    root=args.root,
                    options=replace(options, supervision=None),
                    protocol=args.protocol,
                )
                mismatched = [
                    v
                    for v in graph.nodes()
                    if result.betweenness[v] != clean.betweenness[v]
                ]
                against = "the fault-free run"
            if mismatched:
                print(
                    "\ncheck FAILED: recovered betweenness differs from "
                    "{} at nodes {}".format(against, mismatched[:10])
                )
                return 1
            print(
                "\ncheck OK: recovered betweenness matches {}".format(
                    against
                )
            )
    return 0 if completeness.complete else 2


def cmd_resume(args: argparse.Namespace) -> int:
    """Resume a checkpointed shard run from its on-disk snapshot."""
    from pathlib import Path

    from repro.faults import FaultPlan
    from repro.shard.checkpoint import read_manifest, resolve_checkpoint

    ckpt = resolve_checkpoint(Path(args.checkpoint))
    manifest = read_manifest(ckpt)
    recipe = manifest.get("meta", {}).get("cli")
    if not recipe:
        raise SystemExit(
            "checkpoint {} carries no CLI recipe (written through the "
            "Python API?); resume it with distributed_betweenness(..., "
            "options=RunOptions(engine='shard', supervision="
            "SupervisionConfig(resume_from=...))) instead".format(ckpt)
        )
    graph = _load_graph(
        argparse.Namespace(
            file=recipe.get("file"), graph=recipe.get("graph")
        )
    )
    plan = (
        FaultPlan.from_dict(recipe["plan"]) if recipe.get("plan") else None
    )
    options = _options_from_recipe(recipe, ckpt, args)
    result = distributed_betweenness(
        graph,
        arithmetic=recipe.get("arithmetic") or "lfloat",
        root=recipe.get("root", 0),
        options=options,
        protocol=recipe.get("protocol"),
        faults=plan,
        resilient=bool(recipe.get("resilient", False)),
    )
    ranked = sorted(
        graph.nodes(), key=lambda v: result.betweenness[v], reverse=True
    )
    print_table(
        ["node", "betweenness", "degree"],
        [
            [v, result.betweenness[v], graph.degree(v)]
            for v in ranked[: args.top]
        ],
        title="Resumed betweenness on {} ({}, N={}, from round {}, "
        "rounds={})".format(
            graph.name,
            result.protocol,
            graph.num_nodes,
            manifest["round"],
            result.rounds,
        ),
    )
    _print_supervisor_summary(result.stats)
    if args.check:
        # The resume guarantee is differential and total: the resumed
        # run must equal an uninterrupted single-process run bit for
        # bit — same betweenness, same rounds, same wire totals.
        fresh = distributed_betweenness(
            graph,
            arithmetic=recipe.get("arithmetic") or "lfloat",
            root=recipe.get("root", 0),
            options=RunOptions(engine="event", strict=options.strict),
            protocol=recipe.get("protocol"),
            faults=plan,
            resilient=bool(recipe.get("resilient", False)),
        )
        mismatches = []
        if result.betweenness != fresh.betweenness:
            mismatches.append("betweenness")
        if result.rounds != fresh.rounds:
            mismatches.append(
                "rounds ({} vs {})".format(result.rounds, fresh.rounds)
            )
        for key in ("bits", "messages"):
            ours = result.stats.summary().get(key)
            theirs = fresh.stats.summary().get(key)
            if ours != theirs:
                mismatches.append(
                    "{} ({} vs {})".format(key, ours, theirs)
                )
        if mismatches:
            print(
                "\ncheck FAILED: resumed run differs from the "
                "uninterrupted run in: {}".format(", ".join(mismatches))
            )
            return 1
        print(
            "\ncheck OK: resumed run is bit-identical to the "
            "uninterrupted run"
        )
    completeness = getattr(result, "completeness", None)
    if completeness is not None and not completeness.complete:
        return 2
    return 0


def cmd_elect(args: argparse.Namespace) -> int:
    from repro.congest import elect_root

    graph = _load_graph(args)
    leader, rounds = elect_root(graph, seed=args.seed)
    print_table(
        ["metric", "value"],
        [
            ["graph", graph.name],
            ["elected root u0", leader],
            ["election rounds", rounds],
            ["priority", "min id" if args.seed is None else
             "seeded permutation ({})".format(args.seed)],
        ],
        title="Leader election (the paper's 'randomly selected vertex')",
    )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.graphs import (
        degree_histogram,
        diameter as graph_diameter,
        is_connected,
        max_shortest_path_count,
    )

    graph = _load_graph(args)
    from repro.graphs.weighted import (
        WeightedGraph,
        is_weighted_connected,
        subdivide,
        weighted_diameter,
    )

    if isinstance(graph, WeightedGraph):
        rows = [
            ["name", graph.name],
            ["nodes", graph.num_nodes],
            ["weighted edges", graph.num_edges],
            ["total weight", graph.total_weight()],
            ["connected", is_weighted_connected(graph)],
        ]
        if is_weighted_connected(graph) and graph.num_nodes:
            rows.append(["weighted diameter", weighted_diameter(graph)])
            rows.append(
                ["subdivision size", subdivide(graph).graph.num_nodes]
            )
        print_table(["property", "value"], rows, title="Weighted graph info")
        return 0
    rows = [
        ["name", graph.name],
        ["nodes", graph.num_nodes],
        ["edges", graph.num_edges],
        ["connected", is_connected(graph)],
        ["max degree", graph.max_degree()],
    ]
    if is_connected(graph) and graph.num_nodes:
        rows.append(["diameter", graph_diameter(graph)])
        if graph.num_nodes <= 200:
            rows.append(["max sigma", max_shortest_path_count(graph)])
    rows.append(["degree histogram", str(dict(sorted(degree_histogram(graph).items())))])
    print_table(["property", "value"], rows, title="Graph info")
    return 0


def _render_watch_row(row, out) -> None:
    """One streamed row -> live terminal output (progress overdraws)."""
    event = row.get("event")
    if event == "meta":
        out.write(
            "watching {} on {} (N={}, engine={})\n".format(
                row.get("schema"),
                row.get("graph"),
                row.get("num_nodes"),
                row.get("engine"),
            )
        )
    elif event == "progress":
        parts = ["round {}".format(row.get("round"))]
        if "percent" in row:
            parts.insert(0, "{:6.2f}%".format(row["percent"]))
        if row.get("phase"):
            parts.append(str(row["phase"]))
        if "eta_seconds" in row and not row.get("final"):
            parts.append("eta {:.1f}s".format(row["eta_seconds"]))
        out.write("\r" + "  ".join(parts).ljust(64))
        if row.get("final"):
            out.write("\n")
    elif event == "phase":
        out.write(
            "\rphase {}: rounds {}..{} ({} rounds)".format(
                row.get("name"),
                row.get("start_round"),
                row.get("end_round"),
                row.get("rounds"),
            ).ljust(64)
            + "\n"
        )
    elif event == "monitor":
        out.write(
            "monitor {}: {}\n".format(row.get("monitor"), row.get("status"))
        )
    out.flush()


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail a live-streamed telemetry JSONL as it is written."""
    import json as _json
    import time as _time

    out = sys.stdout
    try:
        fh = open(args.path, "r", encoding="utf-8")
    except OSError as err:
        print("error: {}".format(err), file=sys.stderr)
        return 2
    with fh:
        buffer = ""
        saw_final = False
        idle_since = None
        deadline = (
            _time.monotonic() + args.timeout if args.timeout else None
        )
        while True:
            chunk = fh.read()
            if chunk:
                idle_since = None
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    if not line.strip():
                        continue
                    try:
                        row = _json.loads(line)
                    except ValueError:
                        # A torn line can only be the still-growing tail,
                        # which the buffering above already defers — a
                        # complete-but-broken line is skipped.
                        continue
                    _render_watch_row(row, out)
                    if row.get("event") == "progress" and row.get("final"):
                        saw_final = True
            else:
                if not args.follow:
                    break
                now = _time.monotonic()
                if idle_since is None:
                    idle_since = now
                if saw_final and now - idle_since > 0.5:
                    break
                if deadline is not None and now > deadline:
                    break
                _time.sleep(args.interval)
        if buffer.strip():
            print(
                "\n(torn tail: {} bytes of an unfinished row)".format(
                    len(buffer)
                )
            )
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.history import RegressionGates, compare_payloads

    def load(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return _json.load(fh)
        except (OSError, ValueError) as err:
            raise SystemExit("cannot read {}: {}".format(path, err))

    baseline = load(args.baseline)
    current = load(args.current)
    gates = RegressionGates(
        max_speedup_drop=args.max_speedup_drop,
        max_slowdown=args.max_slowdown,
        check_wall=not args.no_wall,
    )
    violations, compared = compare_payloads(baseline, current, gates)
    print(
        "compared {} row(s) of {!r}: {} violation(s)".format(
            compared, baseline.get("benchmark"), len(violations)
        )
    )
    for violation in violations:
        print("  {}".format(violation))
    if args.ledger:
        from repro.obs.history import HistoryLedger, git_revision

        try:
            count = HistoryLedger(args.ledger).ingest(
                current, git_rev=git_revision()
            )
            print("{} record(s) appended to {}".format(count, args.ledger))
        except ValueError as err:
            print("current payload not recorded: {}".format(err))
    if violations and args.warn_only:
        print("(warn-only: exiting 0 despite violations)")
        return 0
    return 1 if violations else 0


def cmd_bench_ingest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.history import HistoryLedger, git_revision

    ledger = HistoryLedger(args.ledger)
    rev = git_revision()
    total = 0
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            payload = _json.load(fh)
        try:
            total += ledger.ingest(payload, git_rev=rev)
        except ValueError as err:
            print("skipping {}: {}".format(path, err), file=sys.stderr)
    print("{} record(s) appended to {}".format(total, args.ledger))
    return 0


class _BenchParser(argparse.ArgumentParser):
    """Fills ``{payloads}`` in a description from the benchmark schema
    table when help is shown, so building the parser never imports
    :mod:`repro.obs`."""

    def format_help(self) -> str:
        if self.description and "{payloads}" in self.description:
            from repro.obs.history import BENCH_SCHEMAS

            self.description = self.description.format(
                payloads=", ".join(
                    "BENCH_{}.json".format(schema.kind[len("bench_"):])
                    for schema in BENCH_SCHEMAS.values()
                )
            )
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed betweenness centrality (ICDCS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bc = sub.add_parser("bc", help="distributed betweenness")
    _add_graph_options(p_bc)
    _add_protocol_options(p_bc)
    p_bc.add_argument(
        "--check", action="store_true", help="also print the Brandes reference"
    )
    p_bc.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line (percent/ETA) on stderr",
    )
    p_bc.add_argument(
        "--stream-jsonl",
        metavar="PATH",
        help="stream telemetry rows to PATH live, flushed per event",
    )
    _add_supervision_options(p_bc)
    p_bc.set_defaults(func=cmd_bc)

    p_resume = sub.add_parser(
        "resume",
        help="resume a checkpointed shard run (see bc --checkpoint-every)",
        description="Restore a --checkpoint-every snapshot and run it to "
        "completion.  Accepts the snapshot directory itself, its run "
        "directory, or the checkpoint root (newest valid snapshot wins). "
        "The resumed run is bit-identical to an uninterrupted one; "
        "--check proves it differentially against a fresh run.",
    )
    p_resume.add_argument(
        "checkpoint",
        help="checkpoint path: ckpt-* dir, run dir, or checkpoint root",
    )
    p_resume.add_argument(
        "--check",
        action="store_true",
        help="also run the uninterrupted single-process reference and "
        "verify bit-identity (betweenness, rounds, bits, messages)",
    )
    p_resume.add_argument(
        "--top", type=int, default=10, help="rows to print (default 10)"
    )
    p_resume.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        metavar="N",
        help="respawn budget per shard worker for the resumed run",
    )
    p_resume.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="watchdog patience for the resumed run (default 30)",
    )
    p_resume.set_defaults(func=cmd_resume)

    p_apsp = sub.add_parser("apsp", help="counting phase: closeness etc.")
    _add_graph_options(p_apsp)
    _add_protocol_options(p_apsp)
    p_apsp.set_defaults(func=cmd_apsp)

    p_stress = sub.add_parser("stress", help="distributed stress centrality")
    _add_graph_options(p_stress)
    _add_protocol_options(p_stress)
    p_stress.set_defaults(func=cmd_stress, arithmetic="exact")

    p_sample = sub.add_parser("sample", help="sampled distributed BC")
    _add_graph_options(p_sample)
    _add_protocol_options(p_sample)
    p_sample.add_argument("--pivots", type=int, default=8)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(func=cmd_sample)

    p_sched = sub.add_parser("schedule", help="analytic sending-time tables")
    _add_graph_options(p_sched)
    p_sched.add_argument("--root", type=int, default=0)
    p_sched.add_argument(
        "--mode", choices=("shortcut", "tree_walk"), default="shortcut"
    )
    p_sched.add_argument("--top", type=int, default=10)
    p_sched.set_defaults(func=cmd_schedule)

    p_gadget = sub.add_parser("gadget", help="Section IX gadget verification")
    p_gadget.add_argument("kind", choices=("diameter", "bc"))
    p_gadget.add_argument("--sets", type=int, default=3, help="n subsets")
    p_gadget.add_argument("--x", type=int, default=10, help="diameter parameter")
    p_gadget.add_argument("--seed", type=int, default=0)
    p_gadget.add_argument(
        "--intersect",
        action="store_const",
        const=True,
        default=None,
        help="force a family match (default: random)",
    )
    p_gadget.set_defaults(func=cmd_gadget)

    p_trace = sub.add_parser(
        "trace",
        help="traced run with phase timeline; 'trace diff' compares runs",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", metavar="{diff}")
    _add_graph_options(p_trace)
    _add_protocol_options(p_trace)
    p_trace.add_argument("--width", type=int, default=70)
    p_trace.add_argument(
        "--trace-out",
        metavar="PATH",
        help="save the trace as repro-trace-v1 JSON (for 'trace diff')",
    )
    p_trace.add_argument(
        "--payloads",
        action="store_true",
        help="also capture each message's encoded frame word, enabling "
        "decoded field-level diffs",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_tdiff = trace_sub.add_parser(
        "diff",
        help="locate the first divergent delivery between two traces",
        description="Compare two trace files (saved with 'repro trace "
        "--trace-out'), or run two engines on one graph and compare the "
        "resulting streams. Exit 0 when identical, 1 at the first "
        "divergence.",
    )
    p_tdiff.add_argument(
        "traces",
        nargs="*",
        metavar="TRACE_JSON",
        help="two trace files; omit to run --engines on --graph instead",
    )
    _add_graph_options(p_tdiff)
    p_tdiff.add_argument(
        "--engines",
        default="sweep,event",
        help="two comma-separated engines for the run-and-compare mode "
        "(default: sweep,event)",
    )
    p_tdiff.add_argument(
        "--protocols",
        metavar="A,B",
        help="two comma-separated registered protocols to run on the "
        "event engine and diff (e.g. hua-bc,cfp-bc); overrides --engines",
    )
    p_tdiff.add_argument(
        "--arithmetic",
        default="lfloat",
        help="arithmetic mode, needed to decode sigma/psi fields "
        "(default: lfloat)",
    )
    p_tdiff.add_argument("--root", type=int, default=0)
    p_tdiff.add_argument(
        "--context",
        type=int,
        default=3,
        help="agreeing deliveries to show before the divergence",
    )
    p_tdiff.set_defaults(func=cmd_trace_diff)

    p_report = sub.add_parser(
        "report",
        help="instrumented run: phases, invariant monitors, metrics export",
    )
    _add_graph_options(p_report)
    _add_protocol_options(p_report)
    p_report.add_argument(
        "--monitor-mode",
        choices=("record", "warn", "raise"),
        default="record",
        help="how monitors react to a violation (default: record; the "
        "command exits 1 on any recorded violation either way)",
    )
    p_report.add_argument(
        "--profile",
        action="store_true",
        help="time the simulator's hot sections and print the profile",
    )
    p_report.add_argument(
        "--timeline",
        action="store_true",
        help="also trace every delivery and print the message timeline",
    )
    p_report.add_argument("--width", type=int, default=70)
    p_report.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the run's metrics/phases/verdicts as JSON Lines",
    )
    p_report.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line (percent/ETA from the "
        "closed-form round schedule) on stderr during the run",
    )
    p_report.add_argument(
        "--stream-jsonl",
        metavar="PATH",
        help="stream telemetry rows to PATH live, flushed per event "
        "(a crashed run leaves a readable partial log)",
    )
    p_report.add_argument(
        "--from",
        dest="from_path",
        metavar="PATH",
        help="render the report from an exported (possibly truncated) "
        "telemetry JSONL instead of running anything",
    )
    p_report.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="export the run's phases/profile/monitors as a Chrome "
        "trace-event JSON (loadable in Perfetto / chrome://tracing)",
    )
    p_report.set_defaults(func=cmd_report)

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injected run: drops, delays, corruption, crashes",
    )
    _add_graph_options(p_chaos)
    _add_protocol_options(p_chaos)
    p_chaos.add_argument(
        "--drop", type=float, default=0.0, help="message drop probability"
    )
    p_chaos.add_argument(
        "--dup", type=float, default=0.0, help="duplication probability"
    )
    p_chaos.add_argument(
        "--delay-rate", type=float, default=0.0, help="delay probability"
    )
    p_chaos.add_argument(
        "--max-delay", type=int, default=3, help="max extra rounds of delay"
    )
    p_chaos.add_argument(
        "--corrupt", type=float, default=0.0, help="bit-flip probability"
    )
    p_chaos.add_argument(
        "--crash",
        action="append",
        metavar="NODE@START[:END]",
        help="crash window (omit END for a permanent crash); repeatable",
    )
    p_chaos.add_argument(
        "--link-down",
        action="append",
        metavar="U-V@START:END",
        help="link outage window; repeatable",
    )
    p_chaos.add_argument(
        "--hang",
        action="append",
        metavar="SHARD@ROUND[:REPEATS]",
        help="wedge a shard worker process at a round (requires "
        "--engine shard; the supervisor's heartbeat watchdog detects "
        "it and respawns within --max-restarts); repeatable",
    )
    p_chaos.add_argument(
        "--slow",
        action="append",
        metavar="SHARD@ROUND[:DELAY]",
        help="delay a shard worker at a round by DELAY seconds while "
        "it keeps heartbeating (a straggler the watchdog must "
        "tolerate); repeatable",
    )
    p_chaos.add_argument("--seed", type=int, default=0, help="fault seed")
    p_chaos.add_argument(
        "--plan", metavar="PATH", help="load a FaultPlan JSON (overrides flags)"
    )
    p_chaos.add_argument(
        "--plan-out", metavar="PATH", help="save the effective FaultPlan JSON"
    )
    p_chaos.add_argument(
        "--raw",
        action="store_true",
        help="run the bare protocol without the resilient transport "
        "(no recovery guarantee; for demonstrating failure modes)",
    )
    p_chaos.add_argument(
        "--check",
        action="store_true",
        help="compare the recovered betweenness against Brandes",
    )
    _add_supervision_options(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_elect = sub.add_parser("elect", help="leader election for the root u0")
    _add_graph_options(p_elect)
    p_elect.add_argument("--seed", type=int, default=None)
    p_elect.set_defaults(func=cmd_elect)

    p_info = sub.add_parser("info", help="graph statistics")
    _add_graph_options(p_info)
    p_info.set_defaults(func=cmd_info)

    p_watch = sub.add_parser(
        "watch",
        help="tail a live-streamed telemetry JSONL",
        description="Follow a telemetry stream written with "
        "--stream-jsonl, rendering progress, phases and monitor "
        "verdicts as rows arrive. Torn tail lines (a run killed "
        "mid-write) are reported, not fatal.",
    )
    p_watch.add_argument("path", help="the streaming JSONL file")
    p_watch.add_argument(
        "--no-follow",
        dest="follow",
        action="store_false",
        help="render what is in the file now and exit (no tailing)",
    )
    p_watch.add_argument(
        "--interval",
        type=float,
        default=0.2,
        help="poll interval in seconds while following (default 0.2)",
    )
    p_watch.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        help="stop following after this many seconds (0 = until the "
        "run's final row)",
    )
    p_watch.set_defaults(func=cmd_watch)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark history: regression gates and ledger ingestion",
    )
    bench_sub = p_bench.add_subparsers(
        dest="bench_command", required=True, parser_class=_BenchParser
    )
    p_bcmp = bench_sub.add_parser(
        "compare",
        help="gate a fresh BENCH_*.json against a committed baseline",
        description="Compare two benchmark payloads ({payloads}). "
        "Structural metrics (rounds, bits, messages, result identity) "
        "must match exactly; wall-clock metrics get configurable ratio "
        "gates. Exits 1 on any violation unless --warn-only.",
    )
    p_bcmp.add_argument("baseline", help="baseline payload JSON")
    p_bcmp.add_argument("current", help="freshly produced payload JSON")
    p_bcmp.add_argument(
        "--max-speedup-drop",
        type=float,
        default=0.20,
        help="fail when an engine speedup falls by more than this "
        "fraction (default 0.20)",
    )
    p_bcmp.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail when a timed section exceeds this multiple of the "
        "baseline (default 2.0)",
    )
    p_bcmp.add_argument(
        "--no-wall",
        action="store_true",
        help="skip wall-clock gates entirely (cross-machine compares)",
    )
    p_bcmp.add_argument(
        "--warn-only",
        action="store_true",
        help="print violations but exit 0 (advisory CI legs)",
    )
    p_bcmp.add_argument(
        "--ledger",
        metavar="PATH",
        help="also append the current payload to this history ledger",
    )
    p_bcmp.set_defaults(func=cmd_bench_compare)

    p_bing = bench_sub.add_parser(
        "ingest",
        help="append BENCH_*.json payload rows to the history ledger",
    )
    p_bing.add_argument("files", nargs="+", metavar="BENCH_JSON")
    p_bing.add_argument(
        "--ledger",
        default=".repro-history.jsonl",
        metavar="PATH",
        help="ledger path (default: .repro-history.jsonl)",
    )
    p_bing.set_defaults(func=cmd_bench_ingest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print("error: {}".format(err), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped into `head` etc.; conventional silent exit.
        return 0


if __name__ == "__main__":
    sys.exit(main())
