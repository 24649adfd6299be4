"""The open-loop HTTP client of workload ``http_gateway``, run as a
process of its own so that it never waits for the gateway's
interpreter lock and the gateway never waits for it.

It reads one job as JSON on standard input and prints one JSON result
on standard output::

    job:    {"port", "rate", "connections", "plan": [[kind, index, key,
             xpath], ...], "doc_ids", "expected_doc": [{key: [pre]}],
             "expected_scatter": {key: [[doc_id, pre]]}, "window_s"}
    result: {"attempted", "failed", "examples", "start", "lags",
             "records": [[kind, due, sent, first_byte, first_row, done,
             request_id], ...], "marks": [[time, steal, total], ...]}

Request ``i`` of the plan is due at ``start + i / rate`` whatever has
completed; it waits for the first free one of ``connections``
keep-alive connections and is timed from its due time.  How late the
generator itself ran is recorded apart (``lags``).  A streamed response
closes its connection, and the slot reconnects for its next request.
Every answer is checked against the expected rows; every connection is
closed before the result is printed.  ``marks`` sample the machine's
CPU ticks (``common.tick_mark``) at ``start + k * window_s``, from
before the first request is due to after the last one is.  Times are
``time.perf_counter`` values, which on Linux share one monotonic clock
across processes.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time

from common import Tally, tick_mark

HOST = "127.0.0.1"


def query_body(xpath: str, doc_id, stream: bool) -> bytes:
    """The JSON body of one ``POST /query``."""
    payload = {"xpath": xpath, "stream": stream}
    if doc_id is not None:
        payload["doc_id"] = doc_id
    return json.dumps(payload).encode()


def request_bytes(xpath: str, doc_id, stream: bool) -> bytes:
    body = query_body(xpath, doc_id, stream)
    head = (
        f"POST /query HTTP/1.1\r\nHost: {HOST}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Response:
    __slots__ = ("status", "close", "body", "events", "first_byte",
                 "first_row")


async def read_response(reader) -> Response:
    """One HTTP/1.1 response: a Content-Length JSON body or a chunked
    NDJSON stream (one event per line)."""
    response = Response()
    line = await reader.readline()
    if not line:
        raise ConnectionError("connection closed before the response")
    response.first_byte = time.perf_counter()
    response.first_row = None
    response.status = int(line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    response.close = headers.get("connection", "").lower() == "close"
    response.body = None
    response.events = []
    if headers.get("transfer-encoding", "").lower() == "chunked":
        pending = b""
        while True:
            size = int((await reader.readline()).strip(), 16)
            if size == 0:
                await reader.readline()
                break
            pending += (await reader.readexactly(size + 2))[:-2]
            while b"\n" in pending:
                line, pending = pending.split(b"\n", 1)
                event = json.loads(line)
                if event.get("event") == "rows" and response.first_row is None:
                    response.first_row = time.perf_counter()
                response.events.append(event)
    else:
        length = int(headers.get("content-length", "0"))
        response.body = json.loads(await reader.readexactly(length))
    return response


def check(job: dict, tally: Tally, item, response: Response):
    """Check one answer; returns the gateway's request id."""
    kind, index, key, _ = item
    label = f"{kind} {key}"
    if kind == "stream":
        start = response.events[0] if response.events else {}
        end = response.events[-1] if response.events else {}
        rid = start.get("request_id")
        if response.status != 200 or end.get("event") != "end" \
                or end.get("outcome") != "ok":
            tally.fail(f"{label}: status {response.status}, last event {end}")
            return rid
        rows = sorted(
            row for event in response.events
            if event.get("event") == "rows" for row in event["rows"]
        )
        tally.check(rows, job["expected_scatter"][key], label)
        return rid
    body = response.body or {}
    rid = body.get("request_id")
    if response.status != 200:
        tally.fail(f"{label}: status {response.status} {body}")
        return rid
    if kind == "doc":
        doc_id = job["doc_ids"][index]
        expected = [[doc_id, pre] for pre in job["expected_doc"][index][key]]
    else:
        expected = job["expected_scatter"][key]
    tally.check(body.get("rows"), expected, f"{label} doc {index}")
    return rid


async def run(job: dict) -> dict:
    rate = job["rate"]
    plan = job["plan"]
    queue: asyncio.Queue = asyncio.Queue()
    tally = Tally()
    records = []
    lags = []
    start = time.perf_counter()

    async def generate() -> None:
        for step, item in enumerate(plan):
            due = start + step / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            queue.put_nowait((due, item))
        for _ in range(job["connections"]):
            queue.put_nowait(None)

    async def connection_slot() -> None:
        reader = writer = None
        try:
            while True:
                work = await queue.get()
                if work is None:
                    break
                due, item = work
                kind, index, key, xpath = item
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        HOST, job["port"]
                    )
                doc_id = job["doc_ids"][index] if kind == "doc" else None
                sent = time.perf_counter()
                writer.write(request_bytes(xpath, doc_id, kind == "stream"))
                try:
                    response = await read_response(reader)
                except (ConnectionError, asyncio.IncompleteReadError,
                        ValueError) as error:
                    tally.fail(f"{kind} {key}: {error!r}")
                    writer.close()
                    await writer.wait_closed()
                    reader = writer = None
                    continue
                done = time.perf_counter()
                rid = check(job, tally, item, response)
                records.append(
                    (kind, due, sent, response.first_byte,
                     response.first_row, done, rid)
                )
                if response.close:
                    writer.close()
                    await writer.wait_closed()
                    reader = writer = None
        finally:
            if writer is not None:
                writer.close()
                await writer.wait_closed()

    async def sample_ticks() -> None:
        for step in range(math.ceil(len(plan) / rate / window) + 1):
            delay = start + step * window - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            marks.append(tick_mark())

    window = job["window_s"]
    marks = []
    sampler = asyncio.create_task(sample_ticks())
    slots = [
        asyncio.create_task(connection_slot())
        for _ in range(job["connections"])
    ]
    await generate()
    await asyncio.gather(sampler, *slots)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "examples": tally.examples,
        "start": start,
        "lags": lags,
        "records": records,
        "marks": marks,
    }


def main() -> int:
    job = json.load(sys.stdin)
    json.dump(asyncio.run(run(job)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
