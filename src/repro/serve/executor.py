"""Scatter-gather query execution over sharded stores.

A :class:`QueryExecutor` owns a thread pool and one
:class:`~repro.serve.pool.ConnectionPool` per shard.  A query arrives
with its *targets* — ``{shard: [(global_doc_id, local_doc_id), ...]}``,
computed by the shard map — and opens one :class:`ScatterStream`, the
single scatter path, which owns admission, the deadline, the
fail-fast/partial policy and outcome accounting.  It either

* **prunes to one shard** (doc-scoped :meth:`QueryExecutor.query`),
  running inline on the calling thread with no fan-out overhead, or
* **scatters** one task per shard onto the worker pool, whose futures
  :meth:`QueryExecutor.query` **gathers** on the calling thread and
  :meth:`QueryExecutor.stream` hands to the caller as they complete.

Answers merge into ``(doc_id, pre)`` pairs sorted by global doc id then
document order — the natural order key, since ``pre`` *is* document
order within one document.

Admission control and deadlines:

* at most ``max_in_flight`` queries run at once; the next one is shed
  immediately with :class:`~repro.errors.Overloaded` (no queueing — a
  loaded server answering late is worse than one answering "retry"),
* a per-query deadline (seconds) bounds the whole scatter-gather;
  missing it raises :class:`~repro.errors.DeadlineExceeded`.  Work still
  running on other shards is abandoned (its connections return to the
  pools when it finishes) — a deadline miss never blocks the caller
  further.

Degraded modes (``on_shard_error``): ``"fail"`` raises a typed
:class:`~repro.errors.ShardError` on the first shard failure;
``"partial"`` returns the surviving shards' rows with
``ScatterResult.partial`` set and the failures listed — the caller
decides whether a partial answer is better than none.  Deadline misses
always raise: a partial answer is a *complete* answer from fewer
shards, never a timing accident.

Replica routing (``read_from="replica"``): when a shard has shipped
read replicas (``replica_pools``), its read lands on one of them
(round-robin) instead of the primary, and the answer carries the
replica's *staleness bound* — how many committed writes it is behind
and how old its snapshot is (from
:class:`~repro.relational.shardmap.ShardState`).  A replica that is
down or overloaded falls back to the primary
(``serve.replica_fallbacks`` counts these), so replica reads degrade to
primary reads, never to failures the primary could have answered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    ALL_COMPLETED,
    FIRST_EXCEPTION,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from functools import partial

from repro.errors import (
    DeadlineExceeded,
    Overloaded,
    ServingError,
    ShardError,
    StorageError,
    XmlRelError,
)
from repro.obs.events import RequestLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, RequestContext, Tracer
from repro.serve.pool import ConnectionPool, ReadSession

#: Request outcomes used as the dimension on ``serve.query_seconds.*``
#: histograms, ``serve.query.outcome.*`` counters, and wide events.
QUERY_OUTCOMES = (
    "ok", "partial", "overloaded", "deadline_exceeded", "shard_error",
    "error",
)

#: Degraded-mode policies for shard failures during scatter-gather.
SHARD_ERROR_MODES = ("fail", "partial")

#: Where reads land by default: the shard primary, or its replicas
#: (with primary fallback).
READ_FROM_MODES = ("primary", "replica")


@dataclass(frozen=True)
class _ShardAnswer:
    """One shard's rows plus where they were read from."""

    rows: list
    replica: int | None = None
    lag_writes: int | None = None
    age_seconds: float | None = None


@dataclass(frozen=True)
class ScatterResult:
    """The merged answer of one scatter-gather (or doc-scoped) query.

    ``rows`` are ``(doc_id, pre)`` pairs — global document id and the
    node's pre-order id — sorted by ``(doc_id, pre)``, i.e. by document
    then document order.  ``partial`` is True when at least one shard
    failed under the ``"partial"`` degraded mode; ``failed_shards``
    then carries ``(shard, error message)`` pairs.

    ``replica_reads`` counts shards answered from a read replica; when
    any were, ``max_replica_lag_writes`` / ``max_replica_age_seconds``
    bound how stale the answer can be — the worst replica's committed
    writes behind its primary and snapshot age at ship time.
    """

    rows: tuple
    shards_queried: int
    elapsed_seconds: float
    partial: bool = False
    failed_shards: tuple = ()
    replica_reads: int = 0
    max_replica_lag_writes: int | None = None
    max_replica_age_seconds: float | None = None

    @property
    def pres(self) -> list[int]:
        """Just the node ids (useful for doc-scoped queries)."""
        return [pre for _, pre in self.rows]

    def doc_ids(self) -> list[int]:
        """Distinct matching document ids, in order."""
        return list(dict.fromkeys(doc for doc, _ in self.rows))


class QueryExecutor:
    """Thread-pool scatter-gather over per-shard connection pools."""

    def __init__(
        self,
        pools: dict[int, ConnectionPool],
        max_workers: int | None = None,
        max_in_flight: int = 32,
        default_deadline: float | None = None,
        on_shard_error: str = "fail",
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        replica_pools: dict[int, list[ConnectionPool]] | None = None,
        read_from: str = "primary",
        shard_state=None,
        request_log: RequestLog | None = None,
    ) -> None:
        if not pools:
            raise StorageError("executor needs at least one shard pool")
        if max_in_flight < 1:
            raise StorageError("max_in_flight must be >= 1")
        if on_shard_error not in SHARD_ERROR_MODES:
            raise StorageError(
                f"unknown shard-error mode {on_shard_error!r}; available: "
                + ", ".join(SHARD_ERROR_MODES)
            )
        if read_from not in READ_FROM_MODES:
            raise StorageError(
                f"unknown read-from mode {read_from!r}; available: "
                + ", ".join(READ_FROM_MODES)
            )
        self.pools = dict(pools)
        #: Per-shard replica pools; the owning store attaches entries as
        #: replica snapshots ship, so routing sees them appear live.
        self.replica_pools = dict(replica_pools or {})
        self.read_from = read_from
        #: :class:`~repro.relational.shardmap.ShardState` (or None) —
        #: the staleness bookkeeping replica-served answers report from.
        self.shard_state = shard_state
        self._replica_rr: dict[int, int] = {}
        self._replica_lock = threading.Lock()
        self.max_in_flight = max_in_flight
        self.default_deadline = default_deadline
        self.on_shard_error = on_shard_error
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Lazy caches for instruments with formatted names — the warm
        # query path must not rebuild "serve.shardN.query_seconds"
        # strings on every request.  Lazy (not eager) so an untouched
        # shard or outcome never materializes an empty instrument.
        self._shard_seconds: dict = {}
        self._outcome_instruments: dict = {}
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional wide-event sink: one structured record per query.
        self.request_log = request_log
        self._gate = threading.Semaphore(max_in_flight)
        self._threads = ThreadPoolExecutor(
            max_workers=max_workers or max(4, len(self.pools)),
            thread_name_prefix="xmlrel-serve",
        )
        self._closed = False

    # -- admission control --------------------------------------------------------

    def _admit(self) -> None:
        """Take one slot of the max-in-flight gate, or shed immediately."""
        if not self._gate.acquire(blocking=False):
            self.metrics.counter("serve.overloaded").inc()
            raise Overloaded(
                f"serving layer at max in-flight capacity "
                f"({self.max_in_flight})",
                in_flight=self.max_in_flight,
                limit=self.max_in_flight,
            )
        self.metrics.gauge("serve.in_flight").add(1)

    def _release(self) -> None:
        """Return the slot :meth:`_admit` took."""
        self.metrics.gauge("serve.in_flight").add(-1)
        self._gate.release()

    def _shard_histogram(self, shard: int):
        """``serve.shard{N}.query_seconds``, resolved once per shard."""
        histogram = self._shard_seconds.get(shard)
        if histogram is None:
            histogram = self._shard_seconds[shard] = self.metrics.histogram(
                f"serve.shard{shard}.query_seconds"
            )
        return histogram

    def _outcome_pair(self, outcome: str):
        """The ``(histogram, counter)`` pair for one query outcome."""
        pair = self._outcome_instruments.get(outcome)
        if pair is None:
            pair = self._outcome_instruments[outcome] = (
                self.metrics.histogram(f"serve.query_seconds.{outcome}"),
                self.metrics.counter(f"serve.query.outcome.{outcome}"),
            )
        return pair

    # -- per-shard work -----------------------------------------------------------

    def _pick_replica(self, shard: int) -> tuple[ConnectionPool, int] | None:
        """The next replica pool for *shard*, round-robin, if any."""
        replicas = self.replica_pools.get(shard)
        if not replicas:
            return None
        with self._replica_lock:
            index = self._replica_rr.get(shard, 0) % len(replicas)
            self._replica_rr[shard] = index + 1
        return replicas[index], index

    def _query_shard(
        self, query: "ScatterStream", shard: int, docs: list[tuple[int, int]]
    ) -> _ShardAnswer:
        """Run *query*'s XPath over every targeted document of one shard.

        Routes to a read replica when the query asks (and one exists),
        falling back to the primary if the replica is down or
        overloaded.  Adopts the query's trace context, so this shard's
        spans nest under its root even on a pool thread; when the
        wide-event log is on, records this shard's entry of the
        per-shard fan-out breakdown (latency, replica choice, plan-cache
        warmth, lint verdict, outcome).
        """
        if not docs:
            return _ShardAnswer(rows=[])
        started = time.perf_counter()
        info: dict | None = None
        if query.breakdown is not None:
            info = {"shard": shard, "docs": len(docs), "read_from": "primary"}
            query.breakdown[shard] = info

        def run(pool, replica):
            with (
                self.tracer.span("serve.execute", shard=shard)
                if replica is None
                else self.tracer.span("serve.replica_read", replica=replica)
            ):
                return self._query_on_pool(pool, docs, query)

        with self.tracer.adopt(query.ctx), self.tracer.span(
            "serve.shard", shard=shard, docs=len(docs)
        ) as span:
            try:
                rows, replica = self._routed(shard, query.route, run, info)
            except XmlRelError as error:
                elapsed = time.perf_counter() - started
                self._shard_histogram(shard).observe(elapsed)
                if info is not None:
                    info["elapsed_seconds"] = elapsed
                    info["outcome"] = "error"
                    info["error"] = f"{type(error).__name__}: {error}"
                raise
            if span:
                span.set(rows=len(rows))
                if replica is not None:
                    span.set(replica=replica)
        lag = age = None
        if replica is not None and self.shard_state is not None:
            staleness = self.shard_state.staleness(shard, replica)
            if staleness is not None:
                lag, age = staleness
        elapsed = time.perf_counter() - started
        self._shard_histogram(shard).observe(elapsed)
        if info is not None:
            info["elapsed_seconds"] = elapsed
            info["outcome"] = "ok"
            info["rows"] = len(rows)
            if replica is not None:
                info["read_from"] = "replica"
                info["replica"] = replica
                info["replica_lag_writes"] = lag
                info["replica_age_seconds"] = age
            pool = self.pools[shard]
            plans = pool.plan_cache.peek(
                (pool.scheme_name, pool.epoch, query.xpath)
            )
            info["plan_cached"] = plans is not None
            info["lint"] = self._lint_verdict(pool, plans)
        return _ShardAnswer(rows, replica, lag, age)

    def _routed(self, shard: int, read_from: str, run, info=None):
        """``run(pool, replica)`` on the next replica of *shard* when
        *read_from* is ``"replica"`` and one exists, else (or when the
        replica is down or overloaded) on the primary with ``replica``
        None.  Returns ``(result, replica)``."""
        picked = (
            self._pick_replica(shard) if read_from == "replica" else None
        )
        if picked is not None:
            pool, replica = picked
            try:
                result = run(pool, replica)
            except (Overloaded, StorageError):
                # The replica could not answer; its primary still can.
                self.metrics.counter("serve.replica_fallbacks").inc()
                if info is not None:
                    info["replica_fallback"] = True
            else:
                self.metrics.counter("serve.replica_reads").inc()
                return result, replica
        return run(self.pools[shard], None), None

    @staticmethod
    def _lint_verdict(pool: ConnectionPool, plans) -> str:
        """The plan linter's word on this query's cached plans:
        ``off`` (linting disabled on the pool), ``unknown`` (no cached
        plan to inspect), ``clean``, ``warn``, or ``error``."""
        if pool.lint == "off":
            return "off"
        if plans is None:
            return "unknown"
        diagnostics = [d for plan in plans for d in plan.diagnostics]
        if any(d.is_error for d in diagnostics):
            return "error"
        if diagnostics:
            return "warn"
        return "clean"

    @staticmethod
    def _query_on_pool(
        pool: ConnectionPool,
        docs: list[tuple[int, int]],
        query: "ScatterStream",
    ) -> list[tuple[int, int]]:
        """Returns ``(global_doc_id, pre)`` pairs.  Checks the deadline
        between documents so a slow shard stops burning its pool slot
        once the query has already missed."""
        timeout = pool.acquire_timeout
        remaining = query.deadline_remaining()
        if remaining is not None:
            if remaining <= 0:
                raise query.deadline_error()
            timeout = min(timeout, remaining)
        session = pool.acquire(timeout=timeout)
        try:
            rows: list[tuple[int, int]] = []
            for global_doc, local_doc in docs:
                if query.deadline_remaining() == 0:
                    raise query.deadline_error()
                for pre in session.scheme.query_pres(local_doc, query.xpath):
                    rows.append((global_doc, pre))
            return rows
        finally:
            pool.release(session)

    # -- the public query paths ---------------------------------------------------

    def query(
        self,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        read_from: str | None = None,
        ctx: RequestContext | None = None,
    ) -> ScatterResult:
        """Execute *xpath* against *targets* and merge the answers.

        A collected :meth:`stream`: the same handle, gathered on the
        calling thread.  *targets* maps each shard to its
        ``(global_doc_id, local_doc_id)`` pairs; a single-shard target
        set is the pruned doc-scoped fast lane, run inline on the
        calling thread (no thread handoff), anything else scatters
        across the worker pool.  *read_from* overrides the executor
        default per query (``"primary"`` or ``"replica"``).  *ctx*
        carries an upstream request's identity (e.g. the gateway's):
        the wide event and span tree reuse its request id instead of
        minting a fresh one.

        Every exit — success, Overloaded shed, deadline miss, shard
        failure — lands in ``serve.query_seconds`` (plus the
        outcome-dimensioned ``serve.query_seconds.<outcome>`` /
        ``serve.query.outcome.<outcome>`` series) and, when a
        :class:`~repro.obs.events.RequestLog` is attached, emits one
        wide event carrying the full per-shard breakdown.
        """
        return ScatterStream(
            self, xpath, targets, deadline, read_from, ctx,
            inline=len(targets) <= 1,
        ).gather()

    def stream(
        self,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        read_from: str | None = None,
        ctx: RequestContext | None = None,
    ) -> "ScatterStream":
        """Begin a scatter whose per-shard futures the caller consumes
        as they complete, instead of one materialized
        :class:`ScatterResult`.

        Admission, deadlines, replica routing, tracing, and outcome
        accounting are :meth:`query`'s — both open the same handle.
        Every shard, a doc-scoped one included, runs on the worker
        pool, so an event loop (the network gateway) can await the
        futures without blocking.  *ctx* optionally parents the
        ``serve.query`` span under an outer request span.

        Caller contract: consume the handle's futures (collecting each
        through :meth:`ScatterStream.collect`), then call
        :meth:`ScatterStream.finish` exactly once — on success *and* on
        error paths — to release the admission slot and land the
        latency/outcome metrics and the wide event.
        """
        return ScatterStream(self, xpath, targets, deadline, read_from, ctx)

    def submit(self, fn):
        """Run ``fn()`` on a worker thread; its ``concurrent.futures``
        future (the network gateway's off-loop hop for probes)."""
        return self._threads.submit(fn)

    def run_on_shard(
        self, shard: int, fn, timeout: float | None = None
    ):
        """Run ``fn(session)`` on one shard's pooled connection, under
        the admission gate — the door for read work that is not a plain
        pre-id query (node reconstruction, verification, raw reads)."""
        result, _ = self.run_on_shard_routed(shard, fn, timeout=timeout)
        return result

    def run_on_shard_routed(
        self,
        shard: int,
        fn,
        timeout: float | None = None,
        read_from: str = "primary",
    ) -> tuple:
        """Like :meth:`run_on_shard`, but routable to a replica.

        Returns ``(result, replica)`` where ``replica`` is the replica
        index that served (None when the primary did — including after
        a replica fallback, which a failed replica read of any kind
        triggers, exactly as for :meth:`query`)."""
        if self._closed:
            raise StorageError("query executor is closed")

        def run(pool, replica):
            session = pool.acquire(timeout=timeout)
            try:
                return fn(session)
            finally:
                pool.release(session)

        self._admit()
        try:
            return self._routed(shard, read_from, run)
        finally:
            self._release()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting queries and release the worker threads.

        Does not close the pools — their owner (the sharded store)
        does.
        """
        self._closed = True
        self._threads.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def outcome_for(error: BaseException) -> str:
    """The :data:`QUERY_OUTCOMES` dimension one error lands in."""
    if isinstance(error, Overloaded):
        return "overloaded"
    if isinstance(error, DeadlineExceeded):
        return "deadline_exceeded"
    if isinstance(error, ShardError):
        return "shard_error"
    return "error"


class ScatterStream:
    """One query in flight — the single scatter path behind
    :meth:`QueryExecutor.query` (gathered on the calling thread by
    :meth:`gather`) and :meth:`QueryExecutor.stream` (consumed shard by
    shard, e.g. from the gateway's event loop).

    Construction checks the read route, starts the deadline clock, and
    takes an admission slot (a shed query is accounted and raises
    :class:`~repro.errors.Overloaded`), which the handle holds until
    :meth:`finish`.  It then submits every shard's work to the worker
    pool — unless *inline* (the doc-scoped lane of
    :meth:`QueryExecutor.query`), where :meth:`gather` runs it on the
    calling thread.  :attr:`futures` exposes the per-shard
    ``concurrent.futures`` handles so an async caller can wrap and
    await them in completion order.  Rows flow
    shard-by-shard through :meth:`collect`, which applies the
    fail-fast/partial policy; :meth:`finish` merges the answers into a
    :class:`ScatterResult` and lands the metrics and wide event.

    The ``serve.query`` root span is opened and closed *synchronously*
    at construction (the creating thread may be an event loop
    interleaving many requests, so no span can stay open across a
    suspension point); per-shard and merge spans attach to it via the
    captured :class:`~repro.obs.trace.RequestContext`, and
    :meth:`finish` stamps it with ``rows`` and ``elapsed_seconds``.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        xpath: str,
        targets: dict[int, list[tuple[int, int]]],
        deadline: float | None = None,
        read_from: str | None = None,
        parent_ctx: RequestContext | None = None,
        inline: bool = False,
    ) -> None:
        if executor._closed:
            raise StorageError("query executor is closed")
        route = executor.read_from if read_from is None else read_from
        if route not in READ_FROM_MODES:
            raise StorageError(
                f"unknown read-from mode {route!r}; available: "
                + ", ".join(READ_FROM_MODES)
            )
        self.executor = executor
        self.xpath = xpath
        self.targets = targets
        self.route = route
        self.budget = (
            executor.default_deadline if deadline is None else deadline
        )
        self.deadline_at = (
            None if self.budget is None
            else time.monotonic() + self.budget
        )
        self.started = time.perf_counter()
        #: The request's trace context; the upstream one until the
        #: root span exists (a shed query is accounted under it).
        self.ctx = parent_ctx
        self.breakdown: dict | None = (
            {} if executor.request_log is not None else None
        )
        self._answers: list[_ShardAnswer] = []
        self._failures: list[tuple[int, str]] = []
        self._finished = False
        self._result: ScatterResult | None = None
        self._root = None
        self._inline = inline
        try:
            executor._admit()
        except Overloaded as error:
            self._account("overloaded", str(error))
            raise
        metrics = executor.metrics
        metrics.counter("serve.queries").inc()
        if len(targets) <= 1:
            metrics.counter("serve.doc_scoped_queries").inc()
        else:
            metrics.counter("serve.scatter_queries").inc()
        tracer = executor.tracer
        try:
            with tracer.adopt(parent_ctx), tracer.span(
                "serve.query", xpath=str(xpath), shards=len(targets)
            ) as root:
                self.ctx = tracer.capture(
                    root if root else None,
                    request_id=parent_ctx.request_id if parent_ctx else None,
                )
                if root:
                    root.set(request_id=self.ctx.request_id)
                    self._root = root
            #: ``{future: shard}`` — a shard with no targeted documents
            #: still gets a (trivial) task so the stream always
            #: announces every shard it covers.  Empty when *inline*:
            #: :meth:`gather` runs the shard on the calling thread.
            self.futures = {} if inline else {
                executor._threads.submit(
                    executor._query_shard, self, shard, docs
                ): shard
                for shard, docs in targets.items()
            }
        except BaseException:
            executor._release()
            raise

    def deadline_remaining(self) -> float | None:
        """Seconds left on the budget (None: no deadline)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - time.monotonic())

    def deadline_error(self) -> DeadlineExceeded:
        """The typed error for a query past its deadline."""
        budget = self.budget or 0.0
        return DeadlineExceeded(
            f"query exceeded its {budget:.3f}s deadline",
            deadline_seconds=budget,
            elapsed=time.perf_counter() - self.started,
        )

    def expire(self) -> DeadlineExceeded:
        """:meth:`deadline_error`, counted: the stream as a whole
        missed its deadline."""
        self.executor.metrics.counter("serve.deadline_exceeded").inc()
        return self.deadline_error()

    def collect(self, future) -> tuple[int, list | None]:
        """Fold one *completed* future into the stream.

        Returns ``(shard, rows)``; ``rows`` is ``None`` when the shard
        failed under the ``"partial"`` degraded mode (the failure is
        recorded for the terminal event).  Fail-fast mode and deadline
        misses raise.
        """
        return self._fold(self.futures[future], future.result)

    def _fold(self, shard: int, answer_of) -> tuple[int, list | None]:
        """:meth:`collect`'s body: ``answer_of()`` is the shard's
        answer, or raises its failure."""
        metrics = self.executor.metrics
        try:
            answer = answer_of()
        except DeadlineExceeded:
            metrics.counter("serve.deadline_exceeded").inc()
            raise
        except XmlRelError as error:
            metrics.counter("serve.shard_failures").inc()
            if self.executor.on_shard_error == "fail":
                if isinstance(error, ServingError):
                    raise
                raise ShardError(shard, error) from error
            self._failures.append((shard, str(error)))
            return shard, None
        self._answers.append(answer)
        return shard, answer.rows

    def failures(self) -> list[tuple[int, str]]:
        """Shard failures recorded so far (``partial`` mode only)."""
        return list(self._failures)

    @property
    def wake_when(self) -> str:
        """When a whole-answer collector wakes, as ``return_when`` of
        ``concurrent.futures.wait`` or ``asyncio.wait``: at the first
        failure in fail-fast mode, else after every shard (a late shard
        is still a good shard)."""
        if self.executor.on_shard_error == "fail":
            return FIRST_EXCEPTION
        return ALL_COMPLETED

    def gather(self) -> ScatterResult:
        """Wait for every shard on the calling thread (waking as
        :attr:`wake_when` says), then :meth:`finish` — the materialized
        answer.  A shard still running at the deadline is abandoned.
        """
        try:
            if self._inline:
                for shard, docs in self.targets.items():
                    self._fold(shard, partial(
                        self.executor._query_shard, self, shard, docs
                    ))
            else:
                done, not_done = wait(
                    self.futures,
                    timeout=self.deadline_remaining(),
                    return_when=self.wake_when,
                )
                for future in self.futures:
                    if future in done:
                        self.collect(future)
                if not_done:
                    raise self.expire()
        except BaseException as error:
            self.finish(error)
            raise
        return self.finish()

    def finish(
        self, error: BaseException | None = None
    ) -> ScatterResult | None:
        """Terminate the stream: release the admission slot and land
        the outcome metrics plus the wide event.

        With no *error*, merges the collected answers into the
        :class:`ScatterResult`.  Idempotent — the first call wins.
        """
        if self._finished:
            return self._result
        self._finished = True
        for future in self.futures:
            future.cancel()  # abandon stragglers; running tasks self-abort
        if error is None:
            tracer = self.executor.tracer
            with tracer.adopt(self.ctx), tracer.span(
                "serve.merge", answers=len(self._answers)
            ):
                self._result = self._merge()
            outcome = "partial" if self._result.partial else "ok"
            error_text = None
        else:
            outcome = outcome_for(error)
            error_text = f"{type(error).__name__}: {error}"
        self.executor._release()
        elapsed = self._account(outcome, error_text)
        if self._root is not None:
            self._root.set(elapsed_seconds=elapsed)
            if self._result is not None:
                self._root.set(rows=len(self._result.rows))
        return self._result

    def _merge(self) -> ScatterResult:
        """Fold the per-shard answers into one sorted,
        staleness-bounded result."""
        rows: list[tuple[int, int]] = []
        replica_reads = 0
        max_lag: int | None = None
        max_age: float | None = None
        for answer in self._answers:
            rows.extend(answer.rows)
            if answer.replica is not None:
                replica_reads += 1
                if answer.lag_writes is not None:
                    max_lag = (
                        answer.lag_writes if max_lag is None
                        else max(max_lag, answer.lag_writes)
                    )
                if answer.age_seconds is not None:
                    max_age = (
                        answer.age_seconds if max_age is None
                        else max(max_age, answer.age_seconds)
                    )
        return ScatterResult(
            rows=tuple(sorted(rows)),
            shards_queried=len(self.targets),
            elapsed_seconds=time.perf_counter() - self.started,
            partial=bool(self._failures),
            failed_shards=tuple(self._failures),
            replica_reads=replica_reads,
            max_replica_lag_writes=max_lag,
            max_replica_age_seconds=max_age,
        )

    def _account(self, outcome: str, error_text: str | None) -> float:
        """Latency + outcome accounting and the wide event, on every
        exit path of a query (success, shed and all raises alike);
        returns the query's elapsed seconds."""
        executor, result = self.executor, self._result
        elapsed = (
            result.elapsed_seconds if result is not None
            else time.perf_counter() - self.started
        )
        executor.metrics.histogram("serve.query_seconds").observe(elapsed)
        outcome_histogram, outcome_counter = executor._outcome_pair(outcome)
        outcome_histogram.observe(elapsed)
        outcome_counter.inc()
        if executor.request_log is None:
            return elapsed
        request_id = (
            self.ctx.request_id if self.ctx is not None
            else executor.tracer.capture().request_id
        )
        event = {
            "event": "query",
            "request_id": request_id,
            "ts": time.time(),
            "xpath": str(self.xpath),
            "read_from": self.route,
            "shards": len(self.targets),
            "docs": sum(len(docs) for docs in self.targets.values()),
            "outcome": outcome,
            "elapsed_seconds": elapsed,
            "deadline_seconds": self.budget,
            "deadline_slack_seconds": (
                None if self.budget is None else self.budget - elapsed
            ),
        }
        if error_text is not None:
            event["error"] = error_text
        if result is not None:
            event["rows"] = len(result.rows)
            event["partial"] = result.partial
            if result.failed_shards:
                event["failed_shards"] = list(result.failed_shards)
            event["replica_reads"] = result.replica_reads
            if result.max_replica_lag_writes is not None:
                event["max_replica_lag_writes"] = (
                    result.max_replica_lag_writes
                )
            if result.max_replica_age_seconds is not None:
                event["max_replica_age_seconds"] = (
                    result.max_replica_age_seconds
                )
        if self.breakdown:
            event["per_shard"] = [
                self.breakdown[shard] for shard in sorted(self.breakdown)
            ]
        executor.request_log.emit(event)
        return elapsed
