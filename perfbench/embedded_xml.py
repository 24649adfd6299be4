"""Workload ``embedded_xml``: ``XmlRelStore.query_xml`` in process.

One in-memory store per scheme (all 7) holds the same auction corpus of
five documents spanning 10x in size.  One closed-loop caller draws
(scheme, document, query) from the seed, every triple equally often
(:func:`common.deck`), and asks for the
serialized XML of the matches, so translation, SQL, reconstruction and
serialization do the work and no ``serve/`` code runs.  The pairs a
scheme rejects with ``UnsupportedQueryError`` during the warm pass
(xrel and universal on the positional Q13/Q14) are left out of the
draw and listed in the report.
"""

from __future__ import annotations

import random
import time

from common import Tally, deck, latency_summary
from corpus import QUERIES, answers_for, auction_text
from repro import XmlRelStore
from repro.core.registry import available_schemes
from repro.errors import UnsupportedQueryError, XmlRelError
from repro.workloads.auction import auction_dtd

#: Auction scale factors of the corpus, 10x apart: about 4.5 KB to 45 KB.
SCALE_FACTORS = (0.01, 0.018, 0.032, 0.056, 0.1)


class Embedded:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.texts = [
            auction_text(scale, rng.randrange(1 << 30))
            for scale in SCALE_FACTORS
        ]
        self.answers = [answers_for(text) for text in self.texts]
        self.input_bytes = sum(len(text.encode()) for text in self.texts)
        self.draw_rng = random.Random(seed * 7919 + 1)

    # -- set-up ----------------------------------------------------------------

    def build(self):
        stores = {}
        ingest_seconds = 0.0
        for scheme in available_schemes():
            kwargs = {"dtd": auction_dtd()} if scheme == "inlining" else {}
            store = XmlRelStore.open(":memory:", scheme=scheme, **kwargs)
            started = time.perf_counter()
            doc_ids = [
                store.store_stream(text, name=f"auction-{index}")
                for index, text in enumerate(self.texts)
            ]
            ingest_seconds += time.perf_counter() - started
            stores[scheme] = (store, doc_ids)
        excluded = set()
        for scheme, (store, doc_ids) in stores.items():
            for key, xpath in QUERIES:
                try:
                    store.query_xml(doc_ids[0], xpath)
                except UnsupportedQueryError:
                    excluded.add((scheme, key))
        ingest_bytes = self.input_bytes * len(stores)
        return (stores, excluded), ingest_seconds, ingest_bytes

    @staticmethod
    def close_state(state) -> None:
        stores, _ = state
        for store, _ in stores.values():
            store.close()

    def adopt(self, state) -> None:
        """Make *state* (one :meth:`build` result) the measured one."""
        self.state = state
        self.stores, self.excluded = state
        self.draws = deck(self.draw_rng, [
            (scheme, index, key, xpath)
            for scheme in self.stores
            for index in range(len(self.texts))
            for key, xpath in QUERIES
            if (scheme, key) not in self.excluded
        ])
        stored = sum(store.storage_bytes() for store, _ in self.stores.values())
        self.space_amp = stored / (self.input_bytes * len(self.stores))

    def close(self) -> None:
        self.close_state(self.state)

    def plan_caches(self) -> list:
        return [store.db.plan_cache for store, _ in self.stores.values()]

    # -- measurement -----------------------------------------------------------

    def phase(self, seconds: float, recorder=None) -> dict:
        tally = Tally()
        latencies: list[float] = []
        requests = []
        started_phase = time.perf_counter()
        deadline = started_phase + seconds
        while time.perf_counter() < deadline:
            scheme, index, key, xpath = next(self.draws)
            store, doc_ids = self.stores[scheme]
            root = (
                recorder.request(len(latencies), scheme)
                if recorder is not None else None
            )
            started = time.perf_counter()
            try:
                got = store.query_xml(doc_ids[index], xpath)
            except XmlRelError as error:
                got = error
            elapsed = time.perf_counter() - started
            if root is not None:
                recorder.close(root)
                requests.append(
                    (root.rid, root.start, root.end, True, scheme)
                )
            latencies.append(elapsed)
            label = f"{scheme} doc {index} {key}"
            if isinstance(got, XmlRelError):
                tally.fail(f"{label}: {type(got).__name__}: {got}")
            else:
                tally.check(got, self.answers[index].xml[key], label)
        wall = time.perf_counter() - started_phase
        p50, p99 = latency_summary(latencies)
        return {
            "tally": tally,
            "read_p50_ms": p50,
            "read_p99_ms": p99,
            "read_ops_s": len(latencies) / wall,
            "reads": len(latencies),
            "requests": requests,
        }

    def report_lines(self) -> list[str]:
        pairs = ", ".join(
            f"{scheme}/{key}" for scheme, key in sorted(self.excluded)
        )
        return [f"excluded (scheme/query, UnsupportedQueryError): {pairs}"]
