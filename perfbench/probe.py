"""Rate probe for the two open-loop workloads: the figures behind the
fixed rates recorded in ``meta.json``.

Usage, from the root of a checkout::

    python3 perfbench/probe.py --workload sharded_rw --rates 25,50,100,200,400
    python3 perfbench/probe.py --workload http_gateway --rates 50,100,200,300

It sets the workload up once, then measures one phase of ``--seconds``
per offered rate (the writer's writes/s on ``sharded_rw``, the client's
requests/s on ``http_gateway``), in the order given, and prints one JSON
object per rate.  Every answer is checked as in a benchmark run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sharded_rw", "http_gateway"))
    parser.add_argument("--rates", required=True,
                        help="comma-separated offered rates per second")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import cpu_ticks
    from run import WORKDIR, load_workload, steal_share

    module = __import__(args.workload)
    knob = "WRITE_RATE" if args.workload == "sharded_rw" else "RATE"
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=WORKDIR)
    try:
        workload = load_workload(args.workload, args.seed, workdir)
        state, _, _ = workload.build()
        workload.adopt(state)
        try:
            for rate in (float(text) for text in args.rates.split(",")):
                setattr(module, knob, rate)
                ticks = cpu_ticks()
                result = workload.phase(args.seconds)
                row = {
                    "rate_per_s": rate,
                    "read_p50_ms": result["read_p50_ms"],
                    "read_p99_ms": result["read_p99_ms"],
                    "read_ops_s": result["read_ops_s"],
                    "failed": result["tally"].failed,
                    "cpu_steal_share": steal_share(ticks, cpu_ticks()),
                }
                row.update(
                    (name, value)
                    for name, (value, _) in result["report"].items()
                )
                print(json.dumps(row), flush=True)
        finally:
            workload.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
