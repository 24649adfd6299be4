"""Span recording for the traced run, installed from outside ``src/``.

In a traced phase :meth:`SpanRecorder.install` replaces a fixed set of
public functions of the program with wrappers that record one span per
call: a name, a start and end (``time.perf_counter``), the parent span,
and the request the span belongs to.  :meth:`SpanRecorder.uninstall`
puts the originals back.  The program's own ``repro.obs`` tracer stays
the null tracer throughout; nothing under ``src/`` changes.

Parents are found per thread: a span's parent is the innermost span
still open on the same thread.  Work handed to a thread pool is tied to
its request by wrapping ``ThreadPoolExecutor.submit`` while tracing:
the submitting thread's innermost open span becomes the parent of a
``task`` span that wraps the submitted callable on the worker thread,
so the scatter executor's per-shard work nests under the
``QueryExecutor.query``/``stream`` call that fanned it out.  Requests
that enter through the HTTP gateway are tied by request id: the
gateway hands its request context to the executor, the executor
wrapper tags its span with ``ctx.request_id``, children inherit the
tag, and the client reads the same id from the response.  A streamed
scatter's executor window runs from the ``QueryExecutor.stream`` call
to the end of its last shard task, so the gateway's encoding and socket
writes of the stream count as gateway time, not executor time.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (children on other threads included).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from common import covered
from repro.core.registry import available_schemes, scheme_class
from repro.errors import Overloaded

#: Metric families that carry a ``.<scheme>`` suffix (on every
#: workload; the sharded and gateway stores hold interval documents
#: only, so their other schemes read 0).
SCHEME_FAMILIES = (
    ("translator.self_us", "us"),
    ("database.us_per_stmt", "us"),
    ("database.stmts_per_read", "count"),
    ("database.rows_per_read", "count"),
    ("storage.reconstruct_us_per_result", "us"),
    ("storage.records_per_result", "ratio"),
    ("serialize.mb_s", "MB/s"),
)

#: The remaining per-layer metrics.  A layer that a workload never runs
#: reads 0 on it (no pool on ``embedded_xml``, no HTTP elsewhere).
PLAIN_METRICS = (
    ("ingest.mb_s", "MB/s"),
    ("plancache.hit_ratio", "ratio"),
    ("pool.acquire_us", "us"),
    ("pool.pings_per_read", "count"),
    ("route.us", "us"),
    ("executor.overhead_us", "us"),
    ("executor.fanout", "count"),
    ("executor.rejects", "count"),
    ("updates.us", "us"),
    ("updates.rows_per_write", "count"),
    ("gateway.overhead_us", "us"),
    ("gateway.first_byte_us", "us"),
    ("protocol.encode_us", "us"),
    ("unattributed.share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    names = []
    for family, unit in SCHEME_FAMILIES:
        names.append((family, unit))
        names.extend(
            (f"{family}.{scheme}", unit) for scheme in available_schemes()
        )
    names.extend(PLAIN_METRICS)
    return names


class Span:
    """One recorded call.  ``size`` is the call's count (rows, bytes,
    shards, rows touched, results reconstructed); ``nodes`` is the
    number of nodes in a ``reconstruct`` span's result subtrees,
    counted when the call returns so no result is kept."""

    __slots__ = (
        "name", "start", "end", "parent", "scheme", "rid", "size",
        "nodes", "error",
    )

    def __init__(self, name, parent, scheme, rid) -> None:
        self.name = name
        self.parent = parent
        self.scheme = scheme
        self.rid = rid
        self.start = self.end = 0.0
        self.size = self.nodes = 0
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans in memory plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, parent=None, scheme=None, rid=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if parent is not None:
            scheme = scheme or parent.scheme
            rid = parent.rid if rid is None else rid
        span = Span(name, parent, scheme, rid)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        # list.append is atomic under the interpreter lock.
        self.spans.append(span)

    def request(self, rid, scheme=None) -> Span:
        """Open the benchmark's own root span for one operation."""
        return self.open("request", scheme=scheme, rid=rid)

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr, name, scheme=None, rid=None, note=None):
        original = vars(owner)[attr]
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(
                name,
                scheme=scheme(args) if scheme is not None else None,
                rid=rid(args, kwargs) if rid is not None else None,
            )
            try:
                result = original(*args, **kwargs)
            except BaseException as error:
                span.error = type(error).__name__
                raise
            finally:
                recorder.close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def _wrap_submit(self) -> None:
        original = ThreadPoolExecutor.submit
        recorder = self

        @functools.wraps(original)
        def submit(executor, fn, /, *args, **kwargs):
            parent = recorder.current()
            if parent is None:
                return original(executor, fn, *args, **kwargs)

            def task(*task_args, **task_kwargs):
                span = recorder.open("task", parent=parent)
                try:
                    return fn(*task_args, **task_kwargs)
                finally:
                    recorder.close(span)

            return original(executor, task, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", submit)

    def install(self) -> None:
        """Wrap the program's layer functions (traced phase only)."""
        # Through sys.modules: a package may re-export a function under
        # its module's name (``repro.xml.serialize`` does).
        store_module = importlib.import_module("repro.core.store")
        gateway_module = importlib.import_module("repro.serve.gateway")
        sharded_module = importlib.import_module("repro.serve.sharded")
        from repro.query.translator import BaseTranslator
        from repro.relational.database import Database
        from repro.relational.shardmap import ShardMap
        from repro.serve.executor import QueryExecutor
        from repro.serve.pool import ConnectionPool
        from repro.serve.sharded import ShardedStore
        from repro.storage.base import MappingScheme

        def ctx_rid(args, kwargs):
            ctx = kwargs.get("ctx")
            return ctx.request_id if ctx is not None else None

        def note_rows(span, args, kwargs, result):
            span.size = len(result)

        def note_result(span, args, kwargs, result):
            span.size = len(result)
            span.nodes = sum(_subtree_nodes(node) for node in result)

        def note_fanout(span, args, kwargs, result):
            span.size = len(args[2])

        def note_update(span, args, kwargs, result):
            span.size = result.rows_touched

        self._wrap_submit()
        self._wrap(
            BaseTranslator, "query_pres", "translator",
            scheme=lambda args: args[0].scheme.name,
        )
        self._wrap(Database, "query", "database", note=note_rows)
        self._wrap(Database, "execute", "database.execute")
        self._wrap(Database, "ping", "ping")
        self._wrap(
            MappingScheme, "reconstruct_subtrees", "reconstruct",
            scheme=lambda args: args[0].name, note=note_result,
        )
        # Every registered scheme overrides the batched fetch.
        for scheme in available_schemes():
            self._wrap(
                scheme_class(scheme), "fetch_records_many", "fetch",
                scheme=lambda args: args[0].name,
            )
        # query_xml calls serialize through these modules' imported names.
        for module in (store_module, sharded_module):
            self._wrap(module, "serialize", "serialize", note=note_rows)
        self._wrap(ConnectionPool, "acquire", "pool.acquire")
        self._wrap(ConnectionPool, "release", "pool.release")
        self._wrap(ShardMap, "resolve", "route")
        self._wrap(
            QueryExecutor, "query", "executor", rid=ctx_rid,
            note=note_fanout,
        )
        self._wrap(
            QueryExecutor, "stream", "executor.stream", rid=ctx_rid,
            note=note_fanout,
        )
        for method in ("insert_subtree", "delete_subtree"):
            self._wrap(ShardedStore, method, "updates", note=note_update)
        for function in ("result_body", "ndjson_line"):
            self._wrap(gateway_module, function, "protocol.encode")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


def _subtree_nodes(node) -> int:
    """Nodes of one reconstructed result: elements, attributes, text."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1 + len(getattr(current, "attributes", ()))
        stack.extend(getattr(current, "children", ()))
    return count


class Analysis:
    """Self times and per-layer metrics of one traced phase.

    *requests* are the phase's operations as ``(rid, start, end,
    is_read, scheme)``; spans whose request is not a read (the writer's)
    are left out of the per-read ratios.
    """

    def __init__(self, spans: list[Span], requests) -> None:
        self.spans = spans
        self.requests = list(requests)
        read_ids = {rid for rid, _, _, is_read, _ in self.requests if is_read}
        self.reads = len(read_ids)
        self.reads_by_scheme: dict[str, int] = {}
        for _, _, _, is_read, scheme in self.requests:
            if is_read and scheme is not None:
                self.reads_by_scheme[scheme] = (
                    self.reads_by_scheme.get(scheme, 0) + 1
                )
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent is not None:
                self.children.setdefault(id(span.parent), []).append(span)
        self.self_time: dict[int, float] = {}
        for span in spans:
            kids = self.children.get(id(span), ())
            overlap = covered(
                [(kid.start, kid.end) for kid in kids], span.start, span.end
            )
            self.self_time[id(span)] = span.duration - overlap
        self.read_spans = [
            span for span in spans if span.rid in read_ids
        ]

    def _select(self, names, scheme=None, reads_only=True):
        pool = self.read_spans if reads_only else self.spans
        return [
            span for span in pool
            if span.name in names
            and (scheme is None or span.scheme == scheme)
        ]

    def _self_sum(self, spans) -> float:
        return sum(self.self_time[id(span)] for span in spans)

    @staticmethod
    def _ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def scheme_family(self, scheme=None) -> dict[str, float]:
        """The :data:`SCHEME_FAMILIES` values for one scheme (or all)."""
        reads = (
            self.reads if scheme is None
            else self.reads_by_scheme.get(scheme, 0)
        )
        translator = self._select(("translator",), scheme)
        database = self._select(("database", "database.execute"), scheme)
        statements = [s for s in database if s.name == "database.execute"]
        queries = [s for s in database if s.name == "database"]
        reconstruct = self._select(("reconstruct",), scheme)
        storage = self._select(("reconstruct", "fetch"), scheme)
        serialize = self._select(("serialize",), scheme)
        results = sum(span.size for span in reconstruct)
        nodes = sum(span.nodes for span in reconstruct)
        fetched_rows = sum(
            span.size for span in queries if self._under(span, "fetch")
        )
        return {
            "translator.self_us": 1e6 * self._ratio(
                self._self_sum(translator), len(translator)
            ),
            "database.us_per_stmt": 1e6 * self._ratio(
                self._self_sum(database), len(statements)
            ),
            "database.stmts_per_read": self._ratio(len(statements), reads),
            "database.rows_per_read": self._ratio(
                sum(span.size for span in queries), reads
            ),
            "storage.reconstruct_us_per_result": 1e6 * self._ratio(
                self._self_sum(storage), results
            ),
            "storage.records_per_result": self._ratio(fetched_rows, nodes),
            "serialize.mb_s": self._ratio(
                sum(span.size for span in serialize) / 1e6,
                self._self_sum(serialize),
            ),
        }

    @staticmethod
    def _under(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False

    def _executor_end(self, span: Span) -> float:
        """End of an executor call's window: the call's own end, or for
        a stream (whose shard tasks outlive the call) its last task's."""
        if span.name == "executor":
            return span.end
        kids = self.children.get(id(span), ())
        return max(
            (kid.end for kid in kids if kid.name == "task"), default=span.end
        )

    def executor_overheads(self) -> list[float]:
        """Per scatter/doc-scoped executor call: its window minus the
        slowest shard's work (a ``task`` span on a worker thread, or the
        inline children on the calling thread for a pruned query)."""
        overheads = []
        for span in self._select(("executor", "executor.stream")):
            kids = self.children.get(id(span), ())
            tasks = [kid.duration for kid in kids if kid.name == "task"]
            if tasks:
                work = max(tasks)
            else:
                work = covered(
                    [(kid.start, kid.end) for kid in kids],
                    span.start, span.end,
                )
            overheads.append((self._executor_end(span) - span.start) - work)
        return overheads

    def executor_wall(self) -> dict:
        """Executor window per request id (HTTP join)."""
        return {
            span.rid: self._executor_end(span) - span.start
            for span in self.spans
            if span.name in ("executor", "executor.stream")
            and span.rid is not None
        }

    def unattributed_share(self) -> float:
        """Share of the operations' wall time that no layer span covers."""
        by_rid: dict = {}
        for span in self.spans:
            if span.rid is not None and span.name != "request":
                by_rid.setdefault(span.rid, []).append(
                    (span.start, span.end)
                )
        wall = uncovered = 0.0
        for rid, start, end, _, _ in self.requests:
            length = end - start
            wall += length
            uncovered += length - covered(by_rid.get(rid, ()), start, end)
        return self._ratio(uncovered, wall)

    def metrics(self, extra: dict[str, float]) -> dict[str, float]:
        """Every per-layer metric; *extra* supplies the values measured
        outside the spans (ingest rate, plan-cache ratio, HTTP joins,
        trace overhead)."""
        values: dict[str, float] = {}
        values.update(self.scheme_family())
        for scheme in available_schemes():
            for name, value in self.scheme_family(scheme).items():
                values[f"{name}.{scheme}"] = value
        acquires = self._select(("pool.acquire",))
        pings = self._select(("ping",))
        routes = self._select(("route",), reads_only=False)
        executors = self._select(("executor", "executor.stream"))
        overheads = self.executor_overheads()
        updates = self._select(("updates",), reads_only=False)
        values.update({
            "pool.acquire_us": 1e6 * self._ratio(
                sum(span.duration for span in acquires), len(acquires)
            ),
            "pool.pings_per_read": self._ratio(len(pings), self.reads),
            "route.us": 1e6 * self._ratio(
                sum(span.duration for span in routes), len(routes)
            ),
            "executor.overhead_us": 1e6 * self._ratio(
                sum(overheads), len(overheads)
            ),
            "executor.fanout": self._ratio(
                sum(span.size for span in executors), len(executors)
            ),
            "executor.rejects": float(sum(
                1 for span in executors if span.error == Overloaded.__name__
            )),
            "updates.us": 1e6 * self._ratio(
                sum(span.duration for span in updates), len(updates)
            ),
            "updates.rows_per_write": self._ratio(
                sum(span.size for span in updates), len(updates)
            ),
            "protocol.encode_us": 1e6 * self._ratio(
                self._self_sum(
                    self._select(("protocol.encode",), reads_only=False)
                ),
                self.reads,
            ),
            "gateway.overhead_us": 0.0,
            "gateway.first_byte_us": 0.0,
            "unattributed.share": self.unattributed_share(),
        })
        values.update(extra)
        return values
