"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --workloads bulk-ba,chaos-lossy-ws --seeds 1-10
        [--seconds S] [--trace 0|1] [--baseline perfbench/baseline.json]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``.  ``--baseline`` writes the
medians, the spreads and the host description to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)
    section = declared["per_layer" if args.trace else "end_to_end"]
    bounds = {entry["name"]: entry.get("bound") for entry in section}
    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            print("{} seed {}: exit {} correct {} attempted {} failed {} in {:.1f} s".format(
                workload, seed, proc.returncode, result.get("correct"),
                result.get("attempted"), result.get("failed"),
                time.monotonic() - started), flush=True)
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(proc.stdout[-2000:] + proc.stderr[-2000:], flush=True)
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, series in values.items():
            if not series:
                continue
            rows[name] = {
                "median": statistics.median(series),
                "spread": spread(series),
                "bound": bounds[name],
                "values": series,
            }
            bound = bounds[name]
            print("  {:<36} median {:<14.6g} spread {:.4f}{}".format(
                name, rows[name]["median"], rows[name]["spread"],
                "" if bound is None else "  bound {} ({})".format(
                    bound, "ok" if rows[name]["spread"] < bound / 3 else "WIDE")),
                flush=True)
        report["workloads"][workload] = rows
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
