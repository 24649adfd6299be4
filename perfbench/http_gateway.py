"""Workload ``http_gateway``: the HTTP ``Gateway`` over a 4-shard store.

The read-only interval store holds the 24 read documents of
``sharded_rw``.  An open-loop asyncio client (``http_client.py``, one
process of its own, started per phase) offers a fixed 80 requests/s
over at most 2 keep-alive connections: 80% materialized doc-scoped
queries, 10% materialized scatters and 10% streamed (chunked NDJSON)
scatters.  Each request is timed from its due time, so waiting for a
free connection shows as latency; how late the generator itself ran is
recorded apart.  The client runs outside the gateway's process so that
neither waits for the other's interpreter lock: the client's parsing
and checking never delay the gateway, and its timestamps never wait
for the gateway's threads.  The gated latency and rate figures come
from the quieter half of the phase's 1-second windows by host steal
(``common.quiet_windows``).

Below the knee an open-loop client completes requests at the offered
rate whatever the gateway does, so ``read_ops_s`` here is the requests
completed per second of *busy* time: the union of the intervals in
which the client had a request in flight.  It falls when serving slows
and rises when it speeds up; the rate achieved over the whole phase,
pinned to the offered rate, is printed as ``achieved_ops_s``.

This is the only workload that runs HTTP parsing, admission, the
dispatch hop, and JSON/NDJSON encoding.  The client is the benchmark's
own (``repro.bench.loadgen`` opens one connection per request and
times from launch).  Client connections are closed, and the gateway
has seen them close, before the store stops the gateway.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from common import (
    WINDOW_S,
    Tally,
    covered,
    deck,
    in_windows,
    latency_summary,
    percentile,
    quiet_windows,
    window_steal,
)
from corpus import QUERIES
from http_client import HOST, query_body
from sharded_rw import READ_DOCS, ReadCorpus, open_store

#: Offered requests per second, below the knee of a 2-core machine.
RATE = 80.0
CONNECTIONS = 2
CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "http_client.py")
#: How long past its phase the client process may take to drain.
CLIENT_GRACE_S = 60.0


class Gateway:
    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.reads = ReadCorpus(rng)
        self.input_bytes = sum(len(text.encode()) for text in self.reads.texts)
        plan_rng = random.Random(seed * 7919 + 3)
        self.requests_deck = deck(plan_rng, self.reads.request_mix(
            plan_rng, ("doc", "scatter", "stream")
        ))

    # -- set-up ----------------------------------------------------------------

    def build(self):
        directory = tempfile.mkdtemp(prefix="gateway-", dir=self.workdir)
        store = open_store(directory)
        started = time.perf_counter()
        doc_ids = store.store_corpus(self.reads.texts, names=self.reads.names)
        ingest_seconds = time.perf_counter() - started
        gateway = store.serve_gateway(host=HOST)
        # Warm pass over the query set through the gateway itself: one
        # doc-scoped, one materialized and one streamed request each.
        connection = http.client.HTTPConnection(HOST, gateway.port)
        try:
            for _, xpath in QUERIES:
                for doc_id, stream in (
                    (doc_ids[0], False), (None, False), (None, True),
                ):
                    connection.request(
                        "POST", "/query",
                        body=query_body(xpath, doc_id, stream),
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    response.read()
                    if response.status != 200:
                        raise RuntimeError(
                            f"warm-up request failed: {response.status}"
                        )
        finally:
            connection.close()
        state = (store, directory, doc_ids)
        return state, ingest_seconds, self.input_bytes

    @staticmethod
    def close_state(state) -> None:
        store, directory, _ = state
        wait_for_disconnects(store)
        store.close()
        shutil.rmtree(directory, ignore_errors=True)

    def adopt(self, state) -> None:
        """Make *state* (one :meth:`build` result) the measured one."""
        self.state = state
        self.store, _, self.doc_ids = state
        self.port = self.store.serve_gateway().port
        self.expected_scatter = {
            key: [list(row) for row in rows]
            for key, rows in self.reads.scatter_rows(self.doc_ids).items()
        }
        stored = sum(writer.storage_bytes() for writer in self.store.writers)
        self.space_amp = stored / self.input_bytes

    def close(self) -> None:
        self.close_state(self.state)

    def plan_caches(self) -> list:
        return [pool.plan_cache for pool in self.store.pools.values()]

    # -- the client ------------------------------------------------------------

    def _client(self, seconds: float) -> dict:
        """Run one phase of the client process (``http_client.py``) and
        return its result; the process is always waited for."""
        plan = [
            next(self.requests_deck)
            for _ in range(math.ceil(RATE * seconds))
        ]
        job = {
            "port": self.port,
            "rate": RATE,
            "connections": CONNECTIONS,
            "plan": plan,
            "doc_ids": self.doc_ids,
            "expected_doc": [answers.pres for answers in self.reads.answers],
            "expected_scatter": self.expected_scatter,
            "window_s": WINDOW_S,
        }
        client = subprocess.Popen(
            [sys.executable, CLIENT], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = client.communicate(
                json.dumps(job), timeout=seconds + CLIENT_GRACE_S
            )
        finally:
            if client.poll() is None:
                client.kill()
            client.wait()
        if client.returncode != 0:
            raise RuntimeError(
                f"http client exited with code {client.returncode}"
            )
        run = json.loads(out)
        tally = Tally()
        tally.attempted = run["attempted"]
        tally.failed = run["failed"]
        tally.examples = run["examples"]
        run["tally"] = tally
        return run

    def phase(self, seconds: float, recorder=None) -> dict:
        # No client-side spans: the installed wrappers record the
        # gateway's, and the client's request windows join them by id.
        run = self._client(seconds)
        wait_for_disconnects(self.store)
        records = run["records"]
        start = run["start"]
        quiet = quiet_windows(run["marks"])
        kept = [record for record in records if in_windows(record[1], quiet)]
        first_rows = [
            first_row - due
            for kind, due, _, _, first_row, _, _ in records
            if kind == "stream" and first_row is not None
        ]
        wall = max(done for *_, done, _ in records) - start
        busy = covered(
            [(sent, done) for _, _, sent, _, _, done, _ in kept],
            start, start + wall,
        )
        p50, p99 = latency_summary(
            [done - due for _, due, _, _, _, done, _ in kept]
        )
        all_p50, all_p99 = latency_summary(
            [done - due for _, due, _, _, _, done, _ in records]
        )
        return {
            "tally": run["tally"],
            "read_p50_ms": p50,
            "read_p99_ms": p99,
            "read_ops_s": len(kept) / busy,
            "reads": len(records),
            "requests": [
                (rid, sent, done, True, "interval")
                for _, _, sent, _, _, done, rid in records
            ],
            "records": records,
            "report": {
                "quiet_reads": (len(kept), "count"),
                "quiet_steal_share": (
                    window_steal(run["marks"], quiet), "ratio"
                ),
                "all_read_p50_ms": (all_p50, "ms"),
                "all_read_p99_ms": (all_p99, "ms"),
                "first_row_p50_ms": (
                    percentile(first_rows, 50) * 1e3, "ms"
                ),
                "sched_lag_p99_ms": (percentile(run["lags"], 99) * 1e3, "ms"),
                "offered_rate": (RATE, "1/s"),
                "achieved_ops_s": (len(records) / wall, "1/s"),
            },
        }

    def layer_metrics(self, analysis, traced: dict) -> dict:
        """Gateway time by request id: what the client saw minus what
        the executor spent on the same request."""
        walls = analysis.executor_wall()
        overheads = [
            (done - sent) - walls[rid]
            for _, _, sent, _, _, done, rid in traced["records"]
            if rid in walls
        ]
        first_bytes = [
            first_byte - sent
            for _, _, sent, first_byte, _, _, _ in traced["records"]
        ]
        return {
            "gateway.overhead_us": 1e6 * statistics.fmean(overheads)
            if overheads else 0.0,
            "gateway.first_byte_us": 1e6 * statistics.fmean(first_bytes),
        }

    def report_lines(self) -> list[str]:
        return [
            f"corpus: {READ_DOCS} read docs, 4 interval shards, "
            f"{self.input_bytes} bytes",
            f"client: its own process, open loop, {RATE:g} requests/s, "
            f"{CONNECTIONS} keep-alive connections",
        ]


def wait_for_disconnects(store, timeout: float = 5.0) -> None:
    """Wait until the gateway has seen every client connection close, so
    stopping it never cancels a connection handler mid-read."""
    gauge = store.metrics.gauge("gateway.connections")
    deadline = time.monotonic() + timeout
    while gauge.value > 0 and time.monotonic() < deadline:
        time.sleep(0.005)
