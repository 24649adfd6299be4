"""The retrieval-path benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload embedded_xml --seed 1 --seconds 30
    python3 perfbench/run.py --workload sharded_rw --seed 1 --trace 1
    python3 perfbench/run.py --seed 1        # every workload, one process each

A run generates its inputs from ``--seed``, computes every expected
answer with the in-memory XPath evaluator, sets the workload up
``SETUPS_BEFORE`` times before and ``SETUPS_AFTER`` times after the
measured phase (``setup_s`` is the median), then measures for
``--seconds`` seconds and checks every answer.  It prints the
end-to-end metrics by name and unit, then, as the last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the measured time is split in two phases of equal
length: the first untraced, the second with the span wrappers of
``spans.py`` installed.  The JSON then carries the per-layer metrics of
the traced phase, plus the tracing overhead on ``read_p50_ms`` between
the two phases.

The benchmark imports the program from ``src/`` of the checkout it runs
in and writes only below ``.perfbench-work/`` there, which it removes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("embedded_xml", "sharded_rw", "http_gateway")

#: The end-to-end metrics every workload reports to the JSON line.
END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_ops_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("space_amp", "ratio"),
)


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, workdir: str):
    if name == "embedded_xml":
        from embedded_xml import Embedded
        return Embedded(seed)
    if name == "sharded_rw":
        from sharded_rw import Sharded
        return Sharded(seed, workdir)
    from http_gateway import Gateway
    return Gateway(seed, workdir)


def measure(workload, seconds: float, trace: bool):
    """Run the measured phase(s); returns the phase result and, when
    traced, the span analysis plus the metrics measured beside it."""
    if not trace:
        return workload.phase(seconds), None
    from spans import Analysis, SpanRecorder

    def cache_counts():
        stats = [cache.stats() for cache in workload.plan_caches()]
        return (sum(s["hits"] for s in stats), sum(s["misses"] for s in stats))

    untraced = workload.phase(seconds / 2)
    recorder = SpanRecorder()
    hits, misses = cache_counts()
    recorder.install()
    try:
        traced = workload.phase(seconds / 2, recorder)
    finally:
        recorder.uninstall()
    hits_after, misses_after = cache_counts()
    hits, lookups = hits_after - hits, hits_after + misses_after - hits - misses
    analysis = Analysis(recorder.spans, traced["requests"])
    extra = {
        "plancache.hit_ratio": hits / lookups if lookups else 0.0,
        "trace.overhead_share": (
            traced["read_p50_ms"] / untraced["read_p50_ms"] - 1.0
        ),
    }
    if hasattr(workload, "layer_metrics"):
        extra.update(workload.layer_metrics(analysis, traced))
    traced["tally"].absorb(untraced["tally"])
    return traced, (analysis, extra)


def steal_share(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def sample_setups(workload, count: int) -> list[tuple[float, float]]:
    """Build and drop *count* set-ups: ``[(seconds, ingest_mb_s)]``."""
    from common import timed_build

    samples = []
    for _ in range(count):
        state, seconds, ingest = timed_build(workload.build)
        workload.close_state(state)
        samples.append((seconds, ingest))
    return samples


def run_one(args) -> int:
    from common import (
        SETUPS_AFTER,
        SETUPS_BEFORE,
        cpu_ticks,
        peak_rss_mb,
        timed_build,
    )

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        workload = load_workload(args.workload, args.seed, workdir)
        samples = sample_setups(workload, SETUPS_BEFORE - 1)
        state, seconds, ingest = timed_build(workload.build)
        samples.append((seconds, ingest))
        workload.adopt(state)
        try:
            ticks = cpu_ticks()
            result, layers = measure(
                workload, args.seconds, bool(args.trace)
            )
            steal = steal_share(ticks, cpu_ticks())
            tally = result["tally"]
            if hasattr(workload, "final_checks"):
                workload.final_checks(tally)
        finally:
            workload.close()
        samples += sample_setups(workload, SETUPS_AFTER)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still uses it
    setup_s = statistics.median(seconds for seconds, _ in samples)
    per_layer = None
    if layers is not None:
        analysis, extra = layers
        extra["ingest.mb_s"] = statistics.median(rate for _, rate in samples)
        per_layer = analysis.metrics(extra)
    end_to_end = {
        "setup_s": setup_s,
        "read_p50_ms": result["read_p50_ms"],
        "read_p99_ms": result["read_p99_ms"],
        "read_ops_s": result["read_ops_s"],
        "peak_rss_mb": peak_rss_mb(),
        "space_amp": workload.space_amp,
    }
    units = dict(END_TO_END)
    prefix = f"[{args.workload} seed={args.seed}]"
    print(f"{prefix} machine: {json.dumps(fingerprint())}")
    for line in workload.report_lines():
        print(f"{prefix} {line}")
    for name, value in end_to_end.items():
        print(f"{prefix} {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in result.get("report", {}).items():
        print(f"{prefix} {name} = {value:.6g} {unit}")
    print(f"{prefix} reads = {result['reads']}")
    if steal is not None:
        print(f"{prefix} cpu_steal_share = {steal:.4g} (host, measured phase)")
    print(f"{prefix} error_rate = "
          f"{tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted})")
    for example in tally.examples:
        print(f"{prefix} MISMATCH {example}")
    if per_layer is not None:
        from spans import per_layer_metric_names

        layer_units = dict(per_layer_metric_names())
        for name, unit in per_layer_metric_names():
            print(f"{prefix} {name} = {per_layer[name]:.6g} {unit}")
        metrics = {
            name: {"value": per_layer[name], "unit": layer_units[name]}
            for name in layer_units
        }
    else:
        metrics = {
            name: {"value": end_to_end[name], "unit": unit}
            for name, unit in END_TO_END
        }
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, so ``peak_rss_mb`` is per
    workload; the last line gathers their JSON lines."""
    results = {}
    status = 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if completed.returncode != 0 or not lines:
            print(f"[{name}] failed with exit code {completed.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, SOURCE)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
