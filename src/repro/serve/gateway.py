"""``repro.serve.gateway`` — the async network front door.

Everything below :class:`Gateway` is a library; this module is the
socket.  One asyncio HTTP/1.1 server per store (:class:`HttpServer`,
stdlib only, own event loop on a named daemon thread) carries two
listeners, each on its own port: the query gateway, with a small JSON
protocol (:mod:`repro.serve.protocol`), and the ops endpoint
(``/metrics``, ``/snapshot``, ``/healthz`` of an
:class:`~repro.obs.ops.OpsServer`), kept apart from query traffic.

* ``POST /query`` / ``GET /query?xpath=...`` — execute an XPath over
  the store: one document (``doc_id``) or a full scatter-gather.
* ``stream=true`` — chunked NDJSON: rows flushed per shard *as each
  shard completes* instead of after the whole scatter materializes, so
  first-byte latency tracks the fastest shard, not the slowest.
* ``GET /healthz`` — the store's health document (200/503).
* ``GET /stats`` — gateway-side counters and quota occupancy.

**Division of labour.**  The event loop does only cheap, non-blocking
work: HTTP parsing, XPath parsing, the optional DTD/path-summary lint
(unsatisfiable queries short-circuit to an empty answer with zero SQL),
per-client quota admission, shard-map target resolution, merging and
encoding.  Execution makes one hop: every query opens the executor's
:class:`~repro.serve.executor.ScatterStream` and the loop awaits its
per-shard futures, which run on the executor's worker threads — a
materialized answer is a collected stream.  Health and snapshot probes
take the same hop; nothing on the loop ever touches SQLite.  Stopping
a listener is quiet: it stops accepting, closes idle keep-alive
connections, and lets in-flight requests finish.

**Admission is layered.**  A per-client token bucket
(:class:`ClientQuotas`) sheds abusive clients *before* any work, with a
``Retry-After`` hint computed from the bucket's refill rate; requests
that pass it still face the executor's global ``max_in_flight`` gate.
Both rejections surface as the typed :class:`~repro.errors.Overloaded`
and therefore the same HTTP 429 through the one status table in
:mod:`repro.errors` — Overloaded→429, DeadlineExceeded→504,
ShardError→502; a ``partial``-mode degraded answer is HTTP 206.

**Observability.**  Every request opens a ``gateway.request`` span on
the loop (closed before the first suspension point — an event loop
interleaves requests, so spans never stay open across an ``await``;
executor spans parent under it via the captured
:class:`~repro.obs.trace.RequestContext`), lands in ``gateway.*``
windowed metrics (per-route latency, status counts, quota rejections),
and emits one ``http`` wide event when the store carries a request log.

**Lock discipline.**  This module owns one lock — the quota table's —
registered as class ``pool`` in
:data:`repro.analysis.concurrency.LOCK_SITES`; only bucket arithmetic
runs under it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import math
import threading
import time
import urllib.parse

from repro.errors import (
    Overloaded,
    ProtocolError,
    StorageError,
    XmlRelError,
    http_status,
)
from repro.serve.executor import ScatterResult
from repro.serve.protocol import (
    ANONYMOUS_CLIENT,
    CLIENT_HEADER,
    JSON_CONTENT_TYPE,
    MAX_BODY_BYTES,
    NDJSON_CONTENT_TYPE,
    error_body,
    ndjson_line,
    parse_json_body,
    parse_query_params,
    result_body,
)
from repro.xpath.parser import parse_xpath

#: Reason phrases for the statuses the gateway emits.
_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Route labels used in ``gateway.route.<route>.seconds`` histograms.
ROUTES = ("query", "query_stream", "healthz", "stats", "other")

#: ``/metrics`` content type (Prometheus text exposition 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Seconds a closing listener waits for in-flight requests.
SHUTDOWN_GRACE_SECONDS = 10.0


def _head(
    status: int,
    content_type: str,
    length: int | None = None,
    chunked: bool = False,
    keep_alive: bool = False,
    extra_headers: dict | None = None,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
    ]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
        lines.append("Connection: close")
    else:
        lines.append(f"Content-Length: {length or 0}")
        lines.append(
            "Connection: keep-alive" if keep_alive
            else "Connection: close"
        )
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _send(
    writer,
    status: int,
    body: bytes,
    content_type: str = JSON_CONTENT_TYPE,
    keep_alive: bool = False,
    extra_headers: dict | None = None,
) -> None:
    """One complete (``Content-Length``) response."""
    writer.write(
        _head(status, content_type, len(body), False, keep_alive,
              extra_headers)
        + body
    )
    await writer.drain()


def _not_found(path: str) -> bytes:
    return ndjson_line(
        {"error": "NotFound", "message": f"no route {path}", "status": 404}
    )


def _keep_alive(headers: dict) -> bool:
    return headers.get("connection", "").lower() != "close"


class HttpServer:
    """One asyncio event loop on a named daemon thread, serving any
    number of HTTP/1.1 listeners for one store.

    A listener is a socket plus a *route* coroutine ``route(writer,
    method, path, params, headers, body) -> close``; this class owns
    what every route shares — the loop, the off-loop hop, ``/healthz``
    and a quiet shutdown.  The store opens it on first use
    (``ShardedStore.http_server()``) and stops it in ``close()``; its
    query gateway and its ops endpoint are two listeners of it.
    """

    def __init__(self, store) -> None:
        self.store = store
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="xmlrel-http", daemon=True
        )
        self._thread.start()
        self._listeners: list[Listener] = []

    def call(self, coroutine):
        """Run *coroutine* on the loop from another thread; its result."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._loop
        ).result(timeout=SHUTDOWN_GRACE_SECONDS + 5.0)

    def listen(
        self, route, host: str, port: int, name: str,
        idle_timeout: float = 30.0,
    ) -> "Listener":
        """Open a listener; returns once it accepts.  *name* prefixes
        its ``<name>.connections`` gauge."""
        listener = Listener(self, route, name, idle_timeout)
        try:
            self.call(listener.open(host, port))
        except OSError as error:
            raise StorageError(
                f"{name} listener failed to start: {error}"
            ) from error
        self._listeners.append(listener)
        return listener

    def mount_ops(self, ops, host: str = "127.0.0.1", port: int = 0):
        """Serve *ops* (an :class:`~repro.obs.ops.OpsServer`) on a
        listener of its own; returns *ops*, bound to it."""

        async def route(writer, method, path, params, headers, body):
            keep_alive = _keep_alive(headers)
            if path == "/healthz":
                await self.healthz(writer, keep_alive)
            elif path == "/metrics":
                # Registry reads only — cheap enough for the loop.
                await _send(
                    writer, 200, ops.prometheus().encode(),
                    PROMETHEUS_CONTENT_TYPE, keep_alive,
                )
            elif path == "/snapshot":
                snapshot = await self.off_loop(ops.snapshot)
                await _send(
                    writer, 200, ndjson_line(snapshot),
                    keep_alive=keep_alive,
                )
            else:
                await _send(
                    writer, 404, _not_found(path), keep_alive=keep_alive
                )
            return not keep_alive

        ops.listener = self.listen(route, host, port, "ops")
        return ops

    def stop(self) -> None:
        """Close every listener gracefully, then end the loop;
        idempotent."""
        if self._loop.is_closed():
            return
        for listener in self._listeners:
            listener.stop()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._loop.is_running():
            self._loop.close()

    async def off_loop(self, fn):
        """``fn()`` on the executor's worker threads, awaited from the
        loop — the one hop for work that may touch SQLite."""
        return await asyncio.wrap_future(self.store.executor.submit(fn))

    async def healthz(self, writer, keep_alive: bool) -> int:
        """``/healthz``: the store's health document, probed off-loop
        (the probe acquires pooled connections); HTTP 200 when
        ``status == "ok"``, else 503, so a load balancer can act on the
        status code alone.  Returns the status."""
        try:
            health = await self.off_loop(self.store.health)
        except Exception as error:  # a failed probe is an answer too
            health = {
                "status": "error",
                "error": f"{type(error).__name__}: {error}",
            }
        status = 200 if health.get("status") == "ok" else 503
        await _send(
            writer, status, ndjson_line(health), keep_alive=keep_alive
        )
        return status


class Listener:
    """One listening socket of an :class:`HttpServer`: its route, its
    connections, and a graceful close."""

    def __init__(self, server: HttpServer, route, name: str,
                 idle_timeout: float) -> None:
        self.server = server
        self.route = route
        self.idle_timeout = idle_timeout
        self.connections = server.store.metrics.gauge(f"{name}.connections")
        self.host = self.port = self._server = None
        self._tasks: set = set()
        #: Writers of connections waiting for their next request.
        self._idle: set = set()
        self._closing = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def open(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.host = host
        self.port = self._server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """:meth:`close` from another thread; idempotent."""
        if not self._closing and not self.server._loop.is_closed():
            self.server.call(self.close())

    async def close(self) -> None:
        """Stop accepting, close idle keep-alive connections, and give
        in-flight requests :data:`SHUTDOWN_GRACE_SECONDS` to finish."""
        if self._closing:
            return
        self._closing = True
        self._server.close()
        for writer in self._idle:
            writer.close()  # the handler reads EOF and exits
        if self._tasks:
            _, late = await asyncio.wait(
                set(self._tasks), timeout=SHUTDOWN_GRACE_SECONDS
            )
            for task in late:
                task.cancel()
            if late:
                await asyncio.wait(late)
        await self._server.wait_closed()

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self.connections.add(1)
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader, writer)
                    if request is None:
                        break
                    close = await self.route(writer, *request)
                except XmlRelError as error:
                    # Wire-level failures (malformed request line,
                    # health probe errors): typed status, then close.
                    await _send(
                        writer, http_status(error),
                        ndjson_line(error_body(error)),
                    )
                    close = True
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
        ):
            pass
        except asyncio.CancelledError:
            # close() cancelled this handler past its grace period and
            # awaits it; end normally, because asyncio logs a traceback
            # for a cancelled start_server handler task.
            pass
        finally:
            self._tasks.discard(task)
            self.connections.add(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader, writer):
        """One HTTP request off the wire: ``(method, path, params,
        headers, body)``, or None at EOF/idle timeout."""
        self._idle.add(writer)
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.idle_timeout
            )
        except (asyncio.TimeoutError, TimeoutError):
            return None
        except ValueError:
            # readline() raises ValueError past the stream limit.
            raise ProtocolError("request line too long") from None
        finally:
            self._idle.discard(writer)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ProtocolError(f"malformed request line: {line!r}")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            try:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.idle_timeout
                )
            except ValueError:
                raise ProtocolError("request header too long") from None
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise ProtocolError("too many request headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "").strip()
        if raw_length:
            try:
                length = int(raw_length)
            except ValueError:
                raise ProtocolError(
                    f"invalid Content-Length: {raw_length!r}"
                ) from None
            if length < 0:
                raise ProtocolError(
                    f"negative Content-Length: {length}"
                )
        else:
            length = 0
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        split = urllib.parse.urlsplit(target)
        params = dict(urllib.parse.parse_qsl(split.query))
        return method, split.path, params, headers, body


class ClientQuotas:
    """Per-client token-bucket admission, layered *before* the
    executor's global max-in-flight gate.

    Each client id refills at *rate* tokens/second up to *burst*; a
    request costs one token.  :meth:`try_admit` returns ``None`` when
    admitted, else the seconds until the next token — the gateway's
    ``Retry-After``.  With ``rate=None`` the table admits everything
    (quotas off).

    The table is bounded: past *max_clients* distinct ids the stalest
    bucket is evicted (an evicted client simply restarts with a full
    burst — quotas bound throughput, they are not an audit log).
    """

    def __init__(
        self,
        rate: float | None,
        burst: float | None = None,
        max_clients: int = 4096,
    ) -> None:
        if rate is not None and rate <= 0:
            raise StorageError("quota rate must be > 0 (or None: off)")
        self.rate = rate
        self.burst = float(burst if burst is not None else (rate or 1.0))
        if rate is not None and self.burst < 1.0:
            raise StorageError("quota burst must be >= 1")
        self.max_clients = max_clients
        # Guards the bucket table.  Lock class "pool" (registered in
        # repro.analysis.concurrency.LOCK_SITES): bucket arithmetic
        # only, nothing blocking.
        self._lock = threading.Lock()
        self._buckets: dict[str, list[float]] = {}

    def try_admit(self, client: str, now: float | None = None) -> float | None:
        """Spend one token for *client*; ``None`` when admitted, else
        the retry-after seconds."""
        if self.rate is None:
            return None
        if now is None:
            now = time.monotonic()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                if len(self._buckets) >= self.max_clients:
                    stalest = min(
                        self._buckets, key=lambda c: self._buckets[c][1]
                    )
                    del self._buckets[stalest]
                bucket = self._buckets[client] = [self.burst, now]
            tokens = min(
                self.burst, bucket[0] + (now - bucket[1]) * self.rate
            )
            bucket[1] = now
            if tokens >= 1.0:
                bucket[0] = tokens - 1.0
                return None
            bucket[0] = tokens
            return (1.0 - tokens) / self.rate

    def stats(self) -> dict:
        with self._lock:
            clients = len(self._buckets)
        return {
            "rate_per_second": self.rate,
            "burst": self.burst,
            "clients": clients,
            "max_clients": self.max_clients,
        }


class Gateway:
    """The HTTP/JSON query front end over one sharded store.

    :param store: the :class:`~repro.serve.sharded.ShardedStore` served.
    :param quota_rate: per-client admitted requests/second (None: off).
    :param quota_burst: per-client burst allowance (default: the rate).
    :param default_deadline: deadline applied when a request names none
        (the executor's own default still applies underneath).
    :param analyzer: optional
        :class:`~repro.analysis.xpathlint.XPathAnalyzer`; queries it
        proves unsatisfiable short-circuit on the event loop with an
        empty answer and zero SQL.
    :param idle_timeout: seconds a keep-alive connection may sit idle.

    ``start()`` opens the gateway's listener on the store's
    :class:`HttpServer` (starting its loop thread if needed); the
    gateway is usable from synchronous code (tests, benchmarks,
    ``curl``) immediately after.  ``stop()`` closes the listener
    gracefully; the owning store's ``close()`` stops everything.
    """

    def __init__(
        self,
        store,
        host: str = "127.0.0.1",
        port: int = 0,
        quota_rate: float | None = None,
        quota_burst: float | None = None,
        default_deadline: float | None = None,
        analyzer=None,
        idle_timeout: float = 30.0,
    ) -> None:
        self.store = store
        self.executor = store.executor
        self.metrics = store.metrics
        self.tracer = store.tracer
        self.host = host
        self.requested_port = port
        self.default_deadline = default_deadline
        self.analyzer = analyzer
        self.idle_timeout = idle_timeout
        self.quotas = ClientQuotas(quota_rate, quota_burst)
        self._listener: Listener | None = None
        self._route_seconds: dict = {}
        self._status_counters: dict = {}

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "Gateway":
        """Bind and serve; returns once the socket accepts connections."""
        if self._listener is None:
            self._listener = self.store.http_server().listen(
                self._route_request,
                self.host,
                self.requested_port,
                "gateway",
                idle_timeout=self.idle_timeout,
            )
        return self

    def stop(self) -> None:
        """Close the listener gracefully; idempotent."""
        if self._listener is not None:
            self._listener.stop()

    @property
    def port(self) -> int:
        if self._listener is None:
            raise StorageError("gateway is not started")
        return self._listener.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- metrics ------------------------------------------------------------------

    def _route_histogram(self, route: str):
        histogram = self._route_seconds.get(route)
        if histogram is None:
            histogram = self._route_seconds[route] = (
                self.metrics.histogram(f"gateway.route.{route}.seconds")
            )
        return histogram

    def _status_counter(self, status: int):
        counter = self._status_counters.get(status)
        if counter is None:
            counter = self._status_counters[status] = (
                self.metrics.counter(f"gateway.status.{status}")
            )
        return counter

    def _observe(
        self,
        route: str,
        status: int,
        started: float,
        request_id: str | None,
        client: str | None,
        xpath: str | None = None,
        first_byte: float | None = None,
        rows: int | None = None,
    ) -> None:
        """Per-request accounting: route histogram, status counter,
        and the ``http`` wide event."""
        elapsed = time.perf_counter() - started
        self.metrics.counter("gateway.requests").inc()
        self._route_histogram(route).observe(elapsed)
        self._status_counter(status).inc()
        if first_byte is not None:
            self.metrics.histogram("gateway.first_byte_seconds").observe(
                first_byte - started
            )
        log = self.executor.request_log
        if log is not None:
            event = {
                "event": "http",
                "ts": time.time(),
                "route": route,
                "status": status,
                "elapsed_seconds": elapsed,
            }
            if request_id is not None:
                event["request_id"] = request_id
            if client is not None:
                event["client"] = client
            if xpath is not None:
                event["xpath"] = xpath
            if first_byte is not None:
                event["first_byte_seconds"] = first_byte - started
            if rows is not None:
                event["rows"] = rows
            log.emit(event)

    # -- routes -------------------------------------------------------------------

    async def _route_request(
        self, writer, method, path, params, headers, body
    ) -> bool:
        """Dispatch one parsed request; returns True when the
        connection must close (streams always close)."""
        keep_alive = _keep_alive(headers)
        if path == "/query":
            return await self._handle_query(
                writer, method, params, headers, body, keep_alive
            )
        started = time.perf_counter()
        if path == "/healthz":
            status = await self._listener.server.healthz(writer, keep_alive)
            self._observe("healthz", status, started, None, None)
        elif path == "/stats":
            await self._respond_json(
                writer, 200, self.snapshot(), keep_alive=keep_alive
            )
            self._observe("stats", 200, started, None, None)
        else:
            await _send(
                writer, 404, _not_found(path), keep_alive=keep_alive
            )
            self._observe("other", 404, started, None, None)
        return not keep_alive

    # -- the query route ----------------------------------------------------------

    def _prepare(self, method, params, headers, body):
        """The on-loop phases: protocol validation, XPath parse, the
        optional satisfiability lint, quota admission, and shard-map
        target resolution.  Purely synchronous — runs under the
        ``gateway.request`` span, raises typed errors only."""
        default_client = headers.get(CLIENT_HEADER, ANONYMOUS_CLIENT)
        with self.tracer.span("gateway.parse"):
            if method == "POST":
                spec = parse_json_body(body, default_client)
            elif method == "GET":
                spec = parse_query_params(params, default_client)
            else:
                raise ProtocolError(
                    f"method {method} not allowed on /query"
                )
            if spec.deadline is None and self.default_deadline is not None:
                spec = dataclasses.replace(
                    spec, deadline=self.default_deadline
                )
            parsed = parse_xpath(spec.xpath)
        with self.tracer.span("gateway.admit", client=spec.client):
            retry_after = self.quotas.try_admit(spec.client)
        if retry_after is not None:
            self.metrics.counter("gateway.quota_rejections").inc()
            error = Overloaded(
                f"client {spec.client!r} exceeded its admission quota "
                f"({self.quotas.rate:g}/s, burst {self.quotas.burst:g})"
            )
            error.retry_after = retry_after
            raise error
        short_circuit = False
        if self.analyzer is not None:
            with self.tracer.span("gateway.lint"):
                short_circuit = self.analyzer.satisfiable(parsed) is False
            if short_circuit:
                self.metrics.counter("gateway.short_circuits").inc()
        if spec.doc_id is not None:
            record = self.store.shard_map.resolve(spec.doc_id)
            targets = {record.shard: [(spec.doc_id, record.local_doc_id)]}
        else:
            targets = {
                shard: self.store.shard_map.docs_for_shard(shard)
                for shard in self.store.pools
            }
        return spec, targets, short_circuit

    async def _handle_query(
        self, writer, method, params, headers, body, keep_alive
    ) -> bool:
        started = time.perf_counter()
        # detached=False: this root legitimately originates on the
        # event-loop thread — it IS the request origin, not broken
        # cross-thread propagation (which the tracer would flag).
        root = self.tracer.start_span(
            "gateway.request", method=method, detached=False
        )
        ctx = self.tracer.capture()
        request_id = ctx.request_id
        route = "query"
        status = 500
        spec = None
        first_byte = None
        rows = None
        close = not keep_alive
        try:
            try:
                spec, targets, short_circuit = self._prepare(
                    method, params, headers, body
                )
                if root:
                    root.set(
                        xpath=spec.xpath,
                        client=spec.client,
                        stream=spec.stream,
                    )
            finally:
                # The loop interleaves requests: no span survives an
                # await.  Children attach via the captured context.
                self.tracer.end_span(root)
            route = "query_stream" if spec.stream else "query"
            if spec.stream:
                # Streamed responses (short-circuit ones included) are
                # chunked with Connection: close — never reuse.
                close = True
            if short_circuit:
                status, rows = await self._respond_short_circuit(
                    writer, spec, request_id, started, keep_alive
                )
            elif spec.stream:
                status, first_byte, rows = await self._stream_query(
                    writer, spec, targets, ctx, request_id
                )
            else:
                status, rows = await self._materialized_query(
                    writer, spec, targets, ctx, request_id, keep_alive
                )
        except XmlRelError as error:
            status = http_status(error)
            extra = {}
            if isinstance(error, Overloaded):
                retry_after = getattr(error, "retry_after", None) or 1.0
                extra["Retry-After"] = str(
                    max(1, math.ceil(retry_after))
                )
            await self._respond_json(
                writer,
                status,
                error_body(error, request_id),
                keep_alive=keep_alive,
                extra_headers=extra,
            )
        if root:
            root.set(status=status)
        self._observe(
            route,
            status,
            started,
            request_id,
            spec.client if spec is not None else None,
            xpath=spec.xpath if spec is not None else None,
            first_byte=first_byte,
            rows=rows,
        )
        return close

    async def _respond_short_circuit(
        self, writer, spec, request_id, started, keep_alive
    ):
        """An unsatisfiable query answered from the loop: zero rows,
        zero SQL, zero executor occupancy."""
        if not spec.stream:
            empty = ScatterResult((), 0, time.perf_counter() - started)
            await self._respond_json(
                writer, 200, result_body(empty, request_id, True),
                keep_alive=keep_alive,
            )
            return 200, 0
        writer.write(_head(200, NDJSON_CONTENT_TYPE, chunked=True))
        for event in (
            {"event": "start", "request_id": request_id, "shards": 0},
            {"event": "end", "outcome": "ok", "rows": 0},
        ):
            await self._chunk(
                writer, ndjson_line({**event, "short_circuit": True})
            )
        await self._end_chunks(writer)
        return 200, 0

    @staticmethod
    async def _each_shard(stream, emit=None) -> None:
        """Await *stream*'s per-shard futures on the loop and collect
        them, passing each ``(shard, rows)`` to *emit* as it completes
        (rows None: the shard failed in ``partial`` mode).  With *emit*
        the shard workers wake the loop once per shard; without it,
        once per query, when ``stream.wake_when`` is met.  Raises the
        deadline miss, or a shard failure in fail-fast mode."""
        loop = asyncio.get_running_loop()
        woken = asyncio.Queue()
        fail_fast = stream.wake_when == asyncio.FIRST_EXCEPTION
        # next() on a count is atomic: the worker that draws 0 is the
        # last to finish, with no lock.
        left = itertools.count(len(stream.futures) - 1, -1)

        def on_done(future):  # on the worker that finished *future*
            last = next(left) == 0
            failed = fail_fast and (future.cancelled() or future.exception())
            if (emit is not None or last or failed) and not loop.is_closed():
                loop.call_soon_threadsafe(woken.put_nowait, future)

        for future in stream.futures:
            future.add_done_callback(on_done)
        for _ in range(len(stream.futures) if emit is not None else 1):
            try:
                future = await asyncio.wait_for(
                    woken.get(), stream.deadline_remaining()
                )
            except asyncio.TimeoutError:
                raise stream.expire() from None
            if emit is not None:
                await emit(*stream.collect(future))
        if emit is None:
            for future in stream.futures:
                if future.done():  # fail-fast raises at the failure
                    stream.collect(future)

    async def _materialized_query(
        self, writer, spec, targets, ctx, request_id, keep_alive
    ):
        """A collected stream: the loop awaits the shard futures (one
        hop, loop → shard workers), then answers in one JSON body."""
        stream = self.executor.stream(
            spec.xpath, targets, spec.deadline, spec.read_from, ctx=ctx
        )
        try:
            await self._each_shard(stream)
            result = stream.finish()
        except BaseException as error:
            # finish() releases the admission slot on every exit path.
            stream.finish(error)
            raise
        status = 206 if result.partial else 200
        await self._respond_json(
            writer,
            status,
            result_body(result, request_id),
            keep_alive=keep_alive,
        )
        return status, len(result.rows)

    async def _stream_query(self, writer, spec, targets, ctx, request_id):
        """The incremental path: NDJSON rows per shard as each
        completes, a terminal ``end`` (or ``error``) event as the
        in-band status line."""
        stream = self.executor.stream(
            spec.xpath, targets, spec.deadline, spec.read_from, ctx=ctx
        )
        # The stream owns an admission slot from here on: every write —
        # including the head and the start event, where a client hangup
        # raises — must sit under the try so finish() releases it.
        first_byte = None
        rows_sent = 0

        async def emit(shard, rows):
            nonlocal rows_sent
            if rows is None:
                message = dict(stream.failures()).get(shard, "shard failed")
                event = {"event": "shard_error", "shard": shard,
                         "message": message}
            else:
                rows_sent += len(rows)
                event = {"event": "rows", "shard": shard,
                         "rows": [list(row) for row in rows]}
            await self._chunk(writer, ndjson_line(event))

        try:
            writer.write(_head(200, NDJSON_CONTENT_TYPE, chunked=True))
            await self._chunk(
                writer,
                ndjson_line(
                    {
                        "event": "start",
                        "request_id": request_id,
                        "shards": len(targets),
                        "xpath": spec.xpath,
                    }
                ),
            )
            first_byte = time.perf_counter()
            await self._each_shard(stream, emit)
            result = stream.finish()
            end_event = {
                "event": "end",
                "outcome": "partial" if result.partial else "ok",
                "rows": len(result.rows),
                "elapsed_seconds": result.elapsed_seconds,
            }
            if result.partial:
                end_event["failed_shards"] = [
                    {"shard": shard, "message": message}
                    for shard, message in result.failed_shards
                ]
            await self._chunk(writer, ndjson_line(end_event))
            await self._end_chunks(writer)
            return (
                206 if result.partial else 200, first_byte, rows_sent,
            )
        except XmlRelError as error:
            stream.finish(error)
            await self._chunk(
                writer,
                ndjson_line(
                    {"event": "error", **error_body(error, request_id)}
                ),
            )
            await self._end_chunks(writer)
            return http_status(error), first_byte, rows_sent
        except BaseException as error:
            # Client hangup / loop shutdown: still release the slot.
            # finish() is idempotent, so a write failure after the
            # happy-path merge cannot double-release.
            stream.finish(error)
            raise

    # -- response plumbing --------------------------------------------------------

    async def _respond_json(
        self,
        writer,
        status: int,
        obj: dict,
        keep_alive: bool = False,
        extra_headers: dict | None = None,
    ) -> None:
        body = ndjson_line(obj)  # compact JSON + trailing newline
        await _send(
            writer, status, body, keep_alive=keep_alive,
            extra_headers=extra_headers,
        )
        self.metrics.counter("gateway.bytes_sent").inc(len(body))

    async def _chunk(self, writer, payload: bytes) -> None:
        writer.write(
            f"{len(payload):x}\r\n".encode("latin-1")
            + payload + b"\r\n"
        )
        await writer.drain()
        self.metrics.counter("gateway.bytes_sent").inc(len(payload))

    @staticmethod
    async def _end_chunks(writer) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- introspection ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/stats`` document: where the gateway sits, what it has
        served, and the quota table's occupancy."""
        return {
            "url": self.url,
            "store": {
                "scheme": self.store.scheme_name,
                "shards": len(self.store.pools),
                "documents": len(self.store.shard_map),
            },
            "quotas": self.quotas.stats(),
            "default_deadline": self.default_deadline,
            "metrics": self.metrics.snapshot(prefix="gateway."),
        }
