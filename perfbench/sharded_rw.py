"""Workload ``sharded_rw``: reads and writes on a 4-shard ``ShardedStore``.

The interval store holds 24 read documents and 8 write documents,
placed round-robin so every shard holds both kinds.  Two threads share
it:

* a closed-loop reader: 80% doc-scoped ``query_pres``, 10% doc-scoped
  ``query_xml`` and 10% ``query_all`` scatters, each over a seeded
  (document, Q1-Q16) draw;
* an open-loop writer at a fixed 50 writes/s: ``insert_subtree`` then
  ``delete_subtree`` of one small ``person`` subtree on a write
  document, each write timed from its due time.

Reads are drawn from a seeded deck (:func:`common.deck`), so every run
sees the same mix.  The gated read figures come from the reads started
in the quieter half of the phase's 1-second windows by host steal
(:func:`common.quiet_windows`); the whole-phase ones are printed too.

Pool acquire and ping, routing, executor fan-out and merge do the read
work; the writes use the same shard files, locks and pools, so a read
gain that costs writes, or adds interference, shows.  Scatter rows of
write documents are checked by count per document (the fragment may be
in or out when the scatter reads).  After the run every store invariant
must hold and every write document must reconstruct byte-identical to
its original.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time

from common import (
    WINDOW_S,
    Tally,
    deck,
    in_windows,
    latency_summary,
    percentile,
    quiet_windows,
    tick_mark,
    window_steal,
)
from corpus import (
    QUERIES,
    WRITE_PARENT_XPATH,
    answers_for,
    auction_text,
    counts_with_fragment,
    write_fragment,
)
from repro.errors import XmlRelError
from repro.serve import ShardedStore

SHARDS = 4
READ_DOCS = 24
#: Read documents take evenly spaced scale factors from this range
#: (about 4.5-17 KB), the same sizes on every seed.
READ_SCALE = (0.01, 0.04)
WRITE_DOCS = 8
WRITE_SCALE = 0.01
#: Writes per second offered by the open-loop writer (insert + delete),
#: below its knee on a 2-core machine (``probe.py``; ``meta.json``).
WRITE_RATE = 50.0
#: One pass of a request mix holds every (read document, query) pair
#: once as the main kind and each query this many times as each minor
#: kind: 384 + 48 + 48 requests, an 80/10/10 mix.
MINOR_REPEATS = 3

INSERTED_XPATH = "/site/people/person[@id = 'bench-writer']"


def open_store(directory: str) -> ShardedStore:
    return ShardedStore.open(
        directory, scheme="interval", shards=SHARDS,
        placement="round_robin",
    )


class ReadCorpus:
    """Read documents plus their expected answers; shared with the
    gateway workload."""

    def __init__(self, rng: random.Random) -> None:
        low, high = READ_SCALE
        self.texts = [
            auction_text(
                low + (high - low) * index / (READ_DOCS - 1),
                rng.randrange(1 << 30),
            )
            for index in range(READ_DOCS)
        ]
        self.answers = [answers_for(text) for text in self.texts]
        self.names = [f"read-{index}" for index in range(READ_DOCS)]

    def request_mix(self, rng: random.Random, kinds) -> list:
        """One pass of the mix: ``(kind, document index, key, xpath)``;
        minor kinds get seeded documents (a scatter ignores its own)."""
        entries = [
            (kinds[0], index, key, xpath)
            for index in range(READ_DOCS)
            for key, xpath in QUERIES
        ]
        for kind in kinds[1:]:
            entries += [
                (kind, rng.randrange(READ_DOCS), key, xpath)
                for _ in range(MINOR_REPEATS)
                for key, xpath in QUERIES
            ]
        return entries

    def scatter_rows(self, doc_ids: list[int]) -> dict[str, list]:
        """Expected ``(doc_id, pre)`` rows of each query over the read
        documents, in the executor's (doc_id, pre) merge order."""
        return {
            key: sorted(
                (doc_id, pre)
                for doc_id, answers in zip(doc_ids, self.answers)
                for pre in answers.pres[key]
            )
            for key, _ in QUERIES
        }


class Sharded:
    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        self.reads = ReadCorpus(rng)
        self.write_texts = [
            auction_text(WRITE_SCALE, rng.randrange(1 << 30))
            for _ in range(WRITE_DOCS)
        ]
        self.write_counts = [
            (answers_for(text).counts(), counts_with_fragment(text))
            for text in self.write_texts
        ]
        self.input_bytes = sum(
            len(text.encode()) for text in self.reads.texts + self.write_texts
        )
        read_rng = random.Random(seed * 7919 + 1)
        self.reads_deck = deck(read_rng, self.reads.request_mix(
            read_rng, ("query_pres", "query_xml", "query_all")
        ))
        self.write_rng = random.Random(seed * 7919 + 2)

    # -- set-up ----------------------------------------------------------------

    def build(self):
        directory = tempfile.mkdtemp(prefix="sharded-", dir=self.workdir)
        store = open_store(directory)
        names = self.reads.names + [
            f"write-{index}" for index in range(WRITE_DOCS)
        ]
        started = time.perf_counter()
        doc_ids = store.store_corpus(
            self.reads.texts + self.write_texts, names=names
        )
        ingest_seconds = time.perf_counter() - started
        read_ids = doc_ids[:READ_DOCS]
        for _, xpath in QUERIES:
            store.query_all(xpath)
            store.query_xml(read_ids[0], xpath)
        # One insert/delete pair per write document warms the update
        # path and finds the pre ids the writer targets.
        targets = []
        for doc_id in doc_ids[READ_DOCS:]:
            parent = store.query_pres(doc_id, WRITE_PARENT_XPATH)[0]
            store.insert_subtree(doc_id, parent, write_fragment(), 0)
            inserted = store.query_pres(doc_id, INSERTED_XPATH)[0]
            store.delete_subtree(doc_id, inserted)
            targets.append((doc_id, parent, inserted))
        state = (store, directory, read_ids, targets)
        return state, ingest_seconds, self.input_bytes

    @staticmethod
    def close_state(state) -> None:
        store, directory = state[0], state[1]
        store.close()
        shutil.rmtree(directory, ignore_errors=True)

    def adopt(self, state) -> None:
        """Make *state* (one :meth:`build` result) the measured one."""
        self.state = state
        self.store, _, self.read_ids, self.targets = state
        self.expected_scatter = self.reads.scatter_rows(self.read_ids)
        self.read_set = set(self.read_ids)
        self.write_index = {
            doc_id: index for index, (doc_id, _, _) in enumerate(self.targets)
        }
        stored = sum(writer.storage_bytes() for writer in self.store.writers)
        self.space_amp = stored / self.input_bytes

    def close(self) -> None:
        self.close_state(self.state)

    def plan_caches(self) -> list:
        return [pool.plan_cache for pool in self.store.pools.values()]

    # -- the writer ------------------------------------------------------------

    def _writer(self, start: float, stop_at: float, recorder, out) -> None:
        store, rng = self.store, self.write_rng
        tally, latencies, lags, requests = Tally(), [], [], []
        step = 0
        target = inserted_ok = None
        while True:
            due = start + step / WRITE_RATE
            inserting = step % 2 == 0
            if inserting and due >= stop_at:
                break
            if inserting:
                target = rng.choice(self.targets)
                fragment = write_fragment()
            elif not inserted_ok:
                step += 1  # the insert failed: nothing to delete
                continue
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            begun = time.perf_counter()
            lags.append(begun - due)
            doc_id, parent, inserted = target
            root = (
                recorder.request(("write", step))
                if recorder is not None else None
            )
            try:
                if inserting:
                    store.insert_subtree(doc_id, parent, fragment, 0)
                else:
                    store.delete_subtree(doc_id, inserted)
            except XmlRelError as error:
                failure = f"{type(error).__name__}: {error}"
            else:
                failure = None
            done = time.perf_counter()
            if root is not None:
                recorder.close(root)
                requests.append((root.rid, root.start, root.end, False, None))
            latencies.append(done - due)
            op = "insert" if inserting else "delete"
            if failure is None:
                tally.ok()
            else:
                tally.fail(f"{op}_subtree doc {doc_id}: {failure}")
            if inserting:
                inserted_ok = failure is None
            step += 1
        out.update(
            tally=tally, latencies=latencies, lags=lags, requests=requests
        )

    # -- the reader ------------------------------------------------------------

    def _check_scatter(self, tally: Tally, result, key: str) -> None:
        label = f"query_all {key}"
        if result.partial:
            tally.fail(f"{label}: partial answer {result.failed_shards}")
            return
        read_rows = [row for row in result.rows if row[0] in self.read_set]
        if read_rows != self.expected_scatter[key]:
            tally.check(read_rows, self.expected_scatter[key], label)
            return
        counts: dict[int, int] = {}
        for doc_id, _ in result.rows:
            if doc_id not in self.read_set:
                counts[doc_id] = counts.get(doc_id, 0) + 1
        for doc_id in counts:
            if doc_id not in self.write_index:
                tally.fail(f"{label}: rows of unknown document {doc_id}")
                return
        for doc_id, index in self.write_index.items():
            before, during = self.write_counts[index]
            got = counts.get(doc_id, 0)
            if got not in (before[key], during[key]):
                allowed = sorted({before[key], during[key]})
                tally.fail(
                    f"{label}: write doc {doc_id} has {got} rows, "
                    f"expected one of {allowed}"
                )
                return
        tally.ok()

    def phase(self, seconds: float, recorder=None) -> dict:
        store, answers = self.store, self.reads.answers
        start = time.perf_counter()
        stop_at = start + seconds
        written: dict = {}
        writer = threading.Thread(
            target=self._writer,
            args=(start, stop_at, recorder, written),
            name="perfbench-writer",
        )
        writer.start()
        tally, reads, requests = Tally(), [], []
        marks = [tick_mark()]
        try:
            while (now := time.perf_counter()) < stop_at:
                if now >= marks[-1][0] + WINDOW_S:
                    marks.append(tick_mark())
                kind, index, key, xpath = next(self.reads_deck)
                doc_id = self.read_ids[index]
                root = (
                    recorder.request(("read", len(reads)), "interval")
                    if recorder is not None else None
                )
                started = time.perf_counter()
                try:
                    if kind == "query_pres":
                        got = store.query_pres(doc_id, xpath)
                    elif kind == "query_xml":
                        got = store.query_xml(doc_id, xpath)
                    else:
                        got = store.query_all(xpath)
                except XmlRelError as error:
                    got = error
                reads.append((started, time.perf_counter() - started))
                if root is not None:
                    recorder.close(root)
                    requests.append(
                        (root.rid, root.start, root.end, True, "interval")
                    )
                if isinstance(got, XmlRelError):
                    tally.fail(
                        f"{kind} {key}: {type(got).__name__}: {got}"
                    )
                elif kind == "query_pres":
                    tally.check(
                        got, answers[index].pres[key],
                        f"query_pres doc {doc_id} {key}",
                    )
                elif kind == "query_xml":
                    tally.check(
                        got, answers[index].xml[key],
                        f"query_xml doc {doc_id} {key}",
                    )
                else:
                    self._check_scatter(tally, got, key)
            marks.append(tick_mark())
        finally:
            writer.join()
        tally.absorb(written["tally"])
        quiet = quiet_windows(marks)
        kept = [
            latency for started, latency in reads
            if in_windows(started, quiet)
        ]
        p50, p99 = latency_summary(kept)
        all_p50, all_p99 = latency_summary([latency for _, latency in reads])
        write_p50, write_p99 = latency_summary(written["latencies"])
        return {
            "tally": tally,
            "read_p50_ms": p50,
            "read_p99_ms": p99,
            "read_ops_s": len(kept) / sum(high - low for low, high in quiet),
            "reads": len(reads),
            "requests": requests + written["requests"],
            "report": {
                "quiet_reads": (len(kept), "count"),
                "quiet_steal_share": (window_steal(marks, quiet), "ratio"),
                "all_read_p50_ms": (all_p50, "ms"),
                "all_read_p99_ms": (all_p99, "ms"),
                "all_read_ops_s": (len(reads) / (marks[-1][0] - start),
                                   "1/s"),
                "write_p50_ms": (write_p50, "ms"),
                "write_p99_ms": (write_p99, "ms"),
                "writes": (len(written["latencies"]), "count"),
                "sched_lag_p99_ms": (
                    percentile(written["lags"], 99) * 1e3, "ms"
                ),
            },
        }

    def final_checks(self, tally: Tally) -> None:
        """Store invariants and byte-identical write documents."""
        tally.check(self.store.verify_ok(), True, "verify_ok()")
        for (doc_id, _, _), text in zip(self.targets, self.write_texts):
            tally.check(
                self.store.reconstruct_xml(doc_id) == text, True,
                f"write doc {doc_id} reconstructs byte-identical",
            )

    def report_lines(self) -> list[str]:
        return [
            f"corpus: {READ_DOCS} read docs (sf {READ_SCALE[0]}-"
            f"{READ_SCALE[1]}), {WRITE_DOCS} write docs (sf {WRITE_SCALE}),"
            f" {SHARDS} interval shards, {self.input_bytes} bytes",
            f"writer: open loop, {WRITE_RATE:g} writes/s",
        ]

