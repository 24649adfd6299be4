"""The serving tier's single scatter path, end to end.

Every delivery mode — in-process ``query_pres`` / ``query_all`` and the
gateway's materialized and streamed ``/query`` — runs one
``ScatterStream`` handle.  These tests pin what that handle owes every
caller: the evaluator's answer, one admission slot returned and one
wide event per query on every outcome, the thread each stage runs on,
and a quiet shutdown of the shared HTTP server.
"""

import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import UnsupportedQueryError
from repro.obs.trace import Tracer
from repro.reliability import ShardFaultPolicy
from repro.serve import ShardedStore
from repro.workloads import AUCTION_QUERIES, generate_auction
from repro.xml.parser import ParseOptions, parse_document
from repro.xml.serialize import serialize
from repro.xpath import evaluate_nodes

from tests.conftest import BIB_XML


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _request(url, payload):
    """POST *payload*; ``(status, body bytes)`` for any status."""
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _events(body: bytes) -> list[dict]:
    return [json.loads(line) for line in body.splitlines() if line]


def _thread_names() -> dict[int, str]:
    return {thread.ident: thread.name for thread in threading.enumerate()}


# -- the evaluator differential -----------------------------------------------


@pytest.fixture(scope="module")
def auction_store(tmp_path_factory):
    """A 4-shard interval store of auction documents (sf 0.01), its
    gateway, and the DOM of every document for the oracle."""
    store = ShardedStore.open(
        str(tmp_path_factory.mktemp("auction") / "store"),
        scheme="interval",
        shards=4,
        placement="round_robin",
    )
    texts = [
        serialize(generate_auction(0.01, seed=seed)) for seed in range(8)
    ]
    doc_ids = [
        store.store_text(text, name=f"auction-{i}")
        for i, text in enumerate(texts)
    ]
    documents = {
        doc_id: parse_document(text, ParseOptions(keep_whitespace=True))
        for doc_id, text in zip(doc_ids, texts)
    }
    gateway = store.serve_gateway()
    try:
        yield store, gateway, documents
    finally:
        store.close()


def _expected(documents, xpath) -> list[list[int]]:
    return sorted(
        [doc_id, node.order_key]
        for doc_id, document in documents.items()
        for node in evaluate_nodes(document, xpath)
        if node.order_key > 0  # SQL answers exclude the document node
    )


class TestEvaluatorDifferential:
    def test_every_delivery_mode_matches_the_evaluator(self, auction_store):
        store, gateway, documents = auction_store
        checked = 0
        for spec in AUCTION_QUERIES:
            try:
                in_process = store.query_all(spec.xpath)
            except UnsupportedQueryError:
                continue  # not an interval query
            expected = _expected(documents, spec.xpath)
            assert [list(row) for row in in_process.rows] == expected, (
                spec.key
            )
            status, body = _request(
                gateway.url + "/query", {"xpath": spec.xpath}
            )
            assert status == 200, (spec.key, body)
            assert json.loads(body)["rows"] == expected, spec.key
            status, body = _request(
                gateway.url + "/query", {"xpath": spec.xpath, "stream": True}
            )
            events = _events(body)
            assert events[-1]["event"] == "end", (spec.key, events[-1])
            streamed = sorted(
                row
                for event in events if event["event"] == "rows"
                for row in event["rows"]
            )
            assert streamed == expected, spec.key
            checked += 1
        assert checked >= 12


# -- admission slots and wide events on every outcome -------------------------


ENTRY_POINTS = ("query_pres", "query_all", "gateway", "gateway_stream")

#: outcome -> the HTTP status the gateway answers it with.
OUTCOMES = {
    "ok": 200,
    "partial": 206,
    "shard_error": 502,
    "deadline_exceeded": 504,
    "overloaded": 429,
}


@pytest.fixture()
def bib_store(tmp_path):
    policy = ShardFaultPolicy()
    store = ShardedStore.open(
        str(tmp_path / "store"),
        scheme="interval",
        shards=3,
        placement="round_robin",
        max_in_flight=1,
        fault_policy=policy,
    )
    doc_ids = [
        store.store_text(BIB_XML, name=f"bib-{i}") for i in range(3)
    ]
    gateway = store.serve_gateway()
    try:
        yield store, gateway, policy, doc_ids[0]
    finally:
        store.close()


def _run(entry, store, gateway, doc_id, deadline):
    """One query through *entry*; the gateway status (or None)."""
    if entry == "query_pres":
        store.query_pres(doc_id, "/bib/book/title", deadline=deadline)
        return None
    if entry == "query_all":
        store.query_all("/bib/book/title", deadline=deadline)
        return None
    payload = {"xpath": "/bib/book/title", "stream": entry.endswith("stream")}
    if deadline is not None:
        payload["deadline_seconds"] = deadline
    status, body = _request(gateway.url + "/query", payload)
    return status, body


class TestSlotReleaseOnEveryPath:
    @pytest.mark.parametrize("outcome", list(OUTCOMES))
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_slot_returned_and_one_event(self, bib_store, entry, outcome):
        store, gateway, policy, doc_id = bib_store
        log = store.executor.request_log
        shard = store.resolve(doc_id).shard
        deadline = None
        holder = None
        if outcome in ("partial", "shard_error"):
            store.executor.on_shard_error = (
                "partial" if outcome == "partial" else "fail"
            )
            policy.fail_shard(shard)
        elif outcome == "deadline_exceeded":
            deadline = 1e-9
        elif outcome == "overloaded":
            # Hold the only admission slot with an unfinished stream.
            holder = store.executor.stream(
                "/bib", {shard: [(doc_id, store.resolve(doc_id).local_doc_id)]}
            )
        before = len(log.tail())
        try:
            answer = _run(entry, store, gateway, doc_id, deadline)
        except Exception as error:  # in-process entries raise
            assert entry.startswith("query_"), error
            assert outcome not in ("ok", "partial"), error
            answer = None
        queries = [
            event for event in log.tail()[before:]
            if event["event"] == "query"
        ]
        if holder is not None:
            holder.finish()
        policy.heal_all()

        assert len(queries) == 1, queries
        assert queries[0]["outcome"] == outcome
        assert _wait_for(
            lambda: store.metrics.gauge("serve.in_flight").value == 0
        )
        if entry.startswith("gateway"):
            status, body = answer
            if entry == "gateway" or outcome == "overloaded":
                assert status == OUTCOMES[outcome], body
            else:
                # A stream's head is on the wire before the outcome is
                # known: the terminal event carries it.
                last = _events(body)[-1]
                if outcome in ("ok", "partial"):
                    assert last["event"] == "end"
                    assert last["outcome"] == outcome
                else:
                    assert last["event"] == "error"
            assert _wait_for(
                lambda: any(
                    event["event"] == "http"
                    and event.get("request_id") == queries[0]["request_id"]
                    and event["status"] == OUTCOMES[outcome]
                    for event in log.tail(20)
                )
            )


# -- QuerySpec defaults -------------------------------------------------------


class TestDefaultDeadline:
    def test_streamed_request_gets_the_gateway_default(self, tmp_path):
        with ShardedStore.open(
            str(tmp_path / "store"), scheme="interval", shards=2
        ) as store:
            for i in range(2):
                store.store_text(BIB_XML, name=f"bib-{i}")
            gateway = store.serve_gateway(default_deadline=5.0)
            status, body = _request(
                gateway.url + "/query",
                {"xpath": "/bib/book/title", "stream": True},
            )
            events = _events(body)
            assert status == 200
            assert events[0]["event"] == "start"
            assert any(event["event"] == "rows" for event in events)
            assert events[-1]["event"] == "end"
            query = [
                event for event in store.executor.request_log.tail()
                if event["event"] == "query"
            ][-1]
            assert query["deadline_seconds"] == 5.0


# -- thread hops --------------------------------------------------------------


class TestThreadHops:
    @pytest.fixture()
    def traced(self, tmp_path):
        store = ShardedStore.open(
            str(tmp_path / "store"),
            scheme="interval",
            shards=3,
            placement="round_robin",
            tracer=Tracer(enabled=True),
        )
        doc_ids = [
            store.store_text(BIB_XML, name=f"bib-{i}") for i in range(3)
        ]
        try:
            yield store, doc_ids
        finally:
            store.close()

    def test_doc_scoped_query_runs_on_the_callers_thread(self, traced):
        store, doc_ids = traced
        store.tracer.reset()
        store.query_pres(doc_ids[0], "/bib/book/title")
        shard_spans = [
            span for span in store.tracer.finished
            if span.name == "serve.shard"
        ]
        assert len(shard_spans) == 1
        assert shard_spans[0].thread_id == threading.get_ident()
        root = next(
            span for span in store.tracer.roots if span.name == "serve.query"
        )
        assert shard_spans[0].parent_id == root.span_id
        assert root.attributes["rows"] == 2
        assert root.attributes["elapsed_seconds"] > 0

    def test_materialized_gateway_scatter_makes_one_hop(self, traced):
        store, _ = traced
        gateway = store.serve_gateway()
        store.tracer.reset()
        status, _ = _request(gateway.url + "/query", {"xpath": "/bib"})
        assert status == 200
        names = _thread_names()
        request = next(
            span for span in store.tracer.roots
            if span.name == "gateway.request"
        )
        spans = list(request.walk())
        loop = names[request.thread_id]
        # Parse, admission and the scatter handle run on the loop ...
        assert {
            names[span.thread_id] for span in spans
            if span.name in ("gateway.parse", "serve.query", "serve.merge")
        } == {loop}
        # ... and the shard work on the executor's workers: one hop.
        shard_threads = {
            names[span.thread_id] for span in spans
            if span.name in ("serve.shard", "serve.execute")
        }
        assert shard_threads
        assert all(name.startswith("xmlrel-serve") for name in shard_threads)

    def test_health_probes_run_off_the_loop(self, traced, monkeypatch):
        store, _ = traced
        probed_on: list[str] = []
        health = store.health

        def recording_health(*args, **kwargs):
            probed_on.append(threading.current_thread().name)
            return health(*args, **kwargs)

        monkeypatch.setattr(store, "health", recording_health)
        ops = store.serve_ops()
        gateway = store.serve_gateway()
        for url in (
            ops.url + "/healthz", ops.url + "/snapshot",
            gateway.url + "/healthz",
        ):
            with urllib.request.urlopen(url, timeout=10) as response:
                assert response.status == 200
        assert len(probed_on) == 3
        assert all(name.startswith("xmlrel-serve") for name in probed_on)


# -- one HTTP server, quiet shutdown ------------------------------------------


class TestSharedServer:
    def test_ops_and_gateway_share_one_loop_in_either_order(self, tmp_path):
        def loop_threads():
            return sum(
                thread.name == "xmlrel-http"
                for thread in threading.enumerate()
            )

        for first in ("ops", "gateway"):
            before = loop_threads()
            with ShardedStore.open(
                str(tmp_path / first), scheme="interval", shards=2
            ) as store:
                store.store_text(BIB_XML, name="bib")
                if first == "ops":
                    ops = store.serve_ops()
                    gateway = store.serve_gateway(quota_rate=1.0)
                else:
                    gateway = store.serve_gateway(quota_rate=1.0)
                    ops = store.serve_ops()
                assert ops.port != gateway.port
                assert gateway.quotas.rate == 1.0
                server = store.http_server()
                assert ops.listener.server is server
                assert gateway._listener.server is server
                assert loop_threads() == before + 1
                for url in (ops.url + "/healthz", gateway.url + "/healthz"):
                    with urllib.request.urlopen(url, timeout=10) as response:
                        assert response.status == 200

    def test_close_with_idle_keep_alive_is_quiet(self, tmp_path, caplog):
        store = ShardedStore.open(
            str(tmp_path / "store"), scheme="interval", shards=2
        )
        store.store_text(BIB_XML, name="bib")
        gateway = store.serve_gateway()
        ops = store.serve_ops()
        handler_calls: list[dict] = []
        store.http_server()._loop.set_exception_handler(
            lambda loop, context: handler_calls.append(context)
        )
        idle = []
        for port in (gateway.port, ops.port):
            raw = socket.create_connection(("127.0.0.1", port), timeout=5)
            idle.append(raw)
        # One connection served a request and now idles on keep-alive.
        idle[0].sendall(
            b"GET /query?xpath=/bib HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert b"200 OK" in idle[0].recv(4096)
        assert _wait_for(
            lambda: store.metrics.gauge("gateway.connections").value == 1
        )
        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            started = time.monotonic()
            store.close()
            elapsed = time.monotonic() - started
        try:
            assert elapsed < 5.0
            assert handler_calls == []
            assert not [
                record for record in caplog.records
                if record.name == "asyncio"
                and record.levelno >= logging.WARNING
            ]
            # The idle connections were closed by the server.
            for raw in idle:
                assert raw.recv(4096) == b""
        finally:
            for raw in idle:
                raw.close()
