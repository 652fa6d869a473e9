"""Experiment grid runner: sweep graph families × sizes × arithmetics.

The scaling and compliance benchmarks all share a shape — build a grid
of instances, run the protocol on each, collect per-run metrics, fit or
tabulate.  :class:`ExperimentRunner` factors that shape out and adds
CSV export so results can leave the terminal.

Independent instances of a grid don't share state, so they can run in
worker processes: :func:`run_many` fans a batch of graphs over a
``multiprocessing`` pool and returns plain :class:`RunRecord` rows
(picklable by construction), falling back to a serial loop when a pool
isn't available or isn't worth it.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.complexity import LinearFit, linear_fit
from repro.analysis.tables import render_table
from repro.congest.options import RunOptions
from repro.core.pipeline import distributed_betweenness
from repro.graphs.graph import Graph

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RunRecord:
    """Metrics of one protocol run on one instance."""

    family: str
    graph_name: str
    num_nodes: int
    num_edges: int
    diameter: int
    rounds: int
    messages: int
    bits: int
    max_edge_bits: int
    arithmetic: str
    extra: Dict[str, float] = field(default_factory=dict)

    FIELDS = (
        "family",
        "graph_name",
        "num_nodes",
        "num_edges",
        "diameter",
        "rounds",
        "messages",
        "bits",
        "max_edge_bits",
        "arithmetic",
    )

    def as_row(self) -> List:
        """Base fields + sorted extras, for tables and CSV."""
        row = [getattr(self, name) for name in self.FIELDS]
        row.extend(value for _key, value in sorted(self.extra.items()))
        return row


class ExperimentRunner:
    """Run the distributed protocol over a grid of graph instances.

    Parameters
    ----------
    arithmetic:
        Arithmetic mode passed to every run.
    metrics:
        Optional map of name -> callable(result) adding custom columns
        (e.g. error against a reference).
    run:
        Override the runner itself (default:
        :func:`repro.core.distributed_betweenness`); must return an
        object with the ``rounds``/``diameter``/``stats`` interface.
    options:
        :class:`~repro.congest.options.RunOptions` passed to every run
        (``engine="auto"`` by default, matching
        :func:`repro.core.distributed_betweenness`).  See
        :func:`run_many` for how the pool interacts with sharded runs.
    protocol:
        Registered protocol name passed to every run (None means the
        registry default, ``hua-bc``).  Kept as a name rather than a
        descriptor so grids stay picklable across the worker pool.
    collect_phases:
        Attach a phases-only :class:`~repro.obs.Telemetry` to every run
        and add one ``phase_<name>_rounds`` column per protocol phase
        to each record's ``extra``.  Incompatible with a custom ``run``
        callable (the runner cannot thread telemetry through it).
    """

    def __init__(
        self,
        arithmetic: str = "lfloat",
        metrics: Optional[Dict[str, Callable]] = None,
        run: Optional[Callable] = None,
        options: RunOptions = RunOptions(),
        collect_phases: bool = False,
        protocol: Optional[str] = None,
    ):
        self.arithmetic = arithmetic
        self.options = options
        self.protocol = protocol
        self.metrics = metrics or {}
        self.collect_phases = collect_phases
        self._custom_run = run is not None
        if self._custom_run and collect_phases:
            raise ValueError(
                "collect_phases needs the default runner; a custom run "
                "callable would have to accept telemetry itself"
            )
        self._run = run or (
            lambda graph, telemetry=None: distributed_betweenness(
                graph,
                arithmetic=self.arithmetic,
                options=self.options,
                telemetry=telemetry,
                protocol=self.protocol,
            )
        )
        self.records: List[RunRecord] = []

    # ------------------------------------------------------------------
    def run_family(self, family: str, graphs: Iterable[Graph]) -> List[RunRecord]:
        """Execute the protocol on every instance of ``family``."""
        out: List[RunRecord] = []
        for graph in graphs:
            if self.collect_phases:
                from repro.obs import Telemetry

                telemetry = Telemetry()
                result = self._run(graph, telemetry)
            else:
                telemetry = None
                result = self._run(graph)
            extra = {name: fn(result) for name, fn in self.metrics.items()}
            if telemetry is not None:
                extra.update(_phase_columns(telemetry))
            record = RunRecord(
                family=family,
                graph_name=graph.name,
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                diameter=result.diameter,
                rounds=result.rounds,
                messages=result.stats.message_count,
                bits=result.stats.bit_count,
                max_edge_bits=result.stats.max_edge_bits_per_round,
                arithmetic=getattr(result, "arithmetic", self.arithmetic),
                extra=extra,
            )
            out.append(record)
        self.records.extend(out)
        return out

    def run_family_parallel(
        self,
        family: str,
        graphs: Iterable[Graph],
        processes: Optional[int] = None,
        stream_dir: Optional[PathLike] = None,
    ) -> List[RunRecord]:
        """Like :meth:`run_family`, fanned out via :func:`run_many`.

        Custom ``metrics``/``run`` callables are not supported here —
        they would have to cross a process boundary; configure the
        runner with the defaults or use the serial :meth:`run_family`.
        """
        if self.metrics or self._custom_run:
            raise ValueError(
                "custom metrics/run callables are not picklable across "
                "the worker pool; use run_family() for those grids"
            )
        out = run_many(
            graphs,
            family=family,
            arithmetic=self.arithmetic,
            options=self.options,
            processes=processes,
            collect_phases=self.collect_phases,
            stream_dir=stream_dir,
            protocol=self.protocol,
        )
        self.records.extend(out)
        return out

    # ------------------------------------------------------------------
    # analysis over collected records
    # ------------------------------------------------------------------
    def families(self) -> List[str]:
        """Distinct family labels, in first-run order."""
        seen: Dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.family, None)
        return list(seen)

    def fit_rounds(self, family: str) -> LinearFit:
        """Least-squares fit of rounds against N for one family."""
        samples = [r for r in self.records if r.family == family]
        return linear_fit(
            [r.num_nodes for r in samples], [r.rounds for r in samples]
        )

    def table(self, family: Optional[str] = None) -> str:
        """Render collected records as an aligned text table."""
        records = [
            r
            for r in self.records
            if family is None or r.family == family
        ]
        extra_keys = sorted(
            {key for r in records for key in r.extra}
        )
        headers = list(RunRecord.FIELDS) + extra_keys
        return render_table(headers, [r.as_row() for r in records])

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_csv(self, path: Optional[PathLike] = None) -> str:
        """Write records as CSV; returns the CSV text."""
        extra_keys = sorted({key for r in self.records for key in r.extra})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(RunRecord.FIELDS) + extra_keys)
        for record in self.records:
            row = [getattr(record, name) for name in RunRecord.FIELDS]
            row.extend(record.extra.get(key, "") for key in extra_keys)
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        return text


def _safe_name(name: str) -> str:
    """Graph names can contain path-hostile characters; keep it boring."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


def _phase_columns(telemetry) -> Dict[str, float]:
    """``phase_<name>_rounds`` extras from a run's closed phase spans."""
    return {
        "phase_{}_rounds".format(name): rounds
        for name, rounds in telemetry.phases.rounds_by_phase().items()
    }


# ----------------------------------------------------------------------
# multiprocessing fan-out
# ----------------------------------------------------------------------
def default_max_workers() -> int:
    """The pool width :func:`run_many` uses when ``processes`` is None.

    One worker per CPU (``os.cpu_count()``), floored at 1.  Exposed so
    callers sizing a grid — or splitting the machine between the pool
    and the shard runtime's own worker processes — can see the default
    instead of re-deriving it.
    """
    return os.cpu_count() or 1


_Task = Tuple[str, Graph, str, RunOptions, bool, Optional[str], Optional[str]]


def _run_one(task: _Task) -> RunRecord:
    """Worker body: one protocol run -> one plain-data record.

    Module-level (not a closure) so a ``multiprocessing`` pool can
    pickle it; the graph rides along in the task tuple, and the
    protocol travels as its registry name (descriptors hold closures).
    """
    (
        family, graph, arithmetic, options, collect_phases, stream_path,
        protocol,
    ) = task
    if stream_path is not None:
        from repro.obs import Telemetry

        # Live JSONL per run: a killed worker still leaves its rows.
        telemetry = Telemetry.with_streaming(
            jsonl_path=stream_path, progress=True
        )
    elif collect_phases:
        from repro.obs import Telemetry

        telemetry = Telemetry()
    else:
        telemetry = None
    result = distributed_betweenness(
        graph,
        arithmetic=arithmetic,
        options=options,
        telemetry=telemetry,
        protocol=protocol,
    )
    extra = _phase_columns(telemetry) if telemetry is not None else {}
    if telemetry is not None and getattr(telemetry, "bus", None) is not None:
        telemetry.bus.close()
    return RunRecord(
        family=family,
        graph_name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        diameter=result.diameter,
        rounds=result.rounds,
        messages=result.stats.message_count,
        bits=result.stats.bit_count,
        max_edge_bits=result.stats.max_edge_bits_per_round,
        arithmetic=result.arithmetic,
        extra=extra,
    )


def run_many(
    graphs: Iterable[Graph],
    family: str = "batch",
    arithmetic: str = "lfloat",
    options: RunOptions = RunOptions(),
    processes: Optional[int] = None,
    collect_phases: bool = False,
    stream_dir: Optional[PathLike] = None,
    protocol: Optional[str] = None,
) -> List[RunRecord]:
    """Run the protocol on every graph, fanning out across processes.

    Protocol runs are CPU-bound pure Python, so threads cannot
    parallelize them; separate processes can.  Each worker executes
    :func:`_run_one` and ships back a picklable :class:`RunRecord`.
    Records are returned in input order regardless of completion order.

    Parameters
    ----------
    graphs:
        The instances to run (must be picklable, which the plain
        :class:`~repro.graphs.graph.Graph` is).
    family:
        Label stamped on every record.
    arithmetic, options:
        Passed to :func:`repro.core.distributed_betweenness`.  The grid
        pool and the shard runtime both spawn processes, so combining
        them would oversubscribe the machine W-fold: when the pool
        actually fans out, sharded runs are forced back to
        ``workers=1`` (with a warning) — one process per run,
        parallelism across the grid.  A serial grid
        (``processes <= 1``) keeps the requested worker count.
    processes:
        Worker count; defaults to :func:`default_max_workers`
        (``os.cpu_count()``) capped at the number of graphs.
        ``processes <= 1`` (or a pool that cannot be created, e.g. on
        restricted platforms) runs serially in this process — same
        records, no pool.
    collect_phases:
        Add ``phase_<name>_rounds`` extras per record (phase spans are
        plain numbers, so they cross the pool boundary untouched).
    stream_dir:
        Stream each run's telemetry live to
        ``<stream_dir>/<family>-<index>-<name>.jsonl`` (flushed per
        event, so a crashed worker leaves a readable partial log);
        implies per-run telemetry with phase collection.
    protocol:
        Registered protocol name for every run (None → registry
        default).  A string, not a descriptor, so tasks stay picklable.
    """
    if stream_dir is not None:
        os.makedirs(stream_dir, exist_ok=True)
    graphs = list(graphs)
    if not graphs:
        return []
    if processes is None:
        processes = default_max_workers()
    processes = min(processes, len(graphs))
    if options.engine == "shard" and options.workers != 1 and processes > 1:
        import warnings

        warnings.warn(
            "run_many: engine='shard' with workers={} inside a {}-process "
            "pool would oversubscribe the machine; forcing workers=1 "
            "(run serially with processes=1 to keep the shard "
            "fan-out)".format(options.workers, processes),
            RuntimeWarning,
            stacklevel=2,
        )
        options = replace(options, workers=1)
    tasks = [
        (
            family,
            graph,
            arithmetic,
            options,
            collect_phases,
            (
                os.path.join(
                    str(stream_dir),
                    "{}-{:03d}-{}.jsonl".format(
                        family, index, _safe_name(graph.name)
                    ),
                )
                if stream_dir is not None
                else None
            ),
            protocol,
        )
        for index, graph in enumerate(graphs)
    ]
    if processes <= 1:
        return [_run_one(task) for task in tasks]
    try:
        from multiprocessing import Pool
    except ImportError:  # pragma: no cover - restricted platforms
        return [_run_one(task) for task in tasks]
    try:
        with Pool(processes=processes) as pool:
            return pool.map(_run_one, tasks)
    except (OSError, PermissionError):  # pragma: no cover - sandboxed envs
        return [_run_one(task) for task in tasks]
