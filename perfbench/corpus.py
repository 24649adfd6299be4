"""Seeded inputs and the evaluator oracle.

Every document is an XMark-style auction generated from the run's seed
and handed to the program as XML text, the only input it receives.  The
expected answer of every (document, query) pair comes from the
in-memory XPath evaluator over a DOM parsed from the same text, before
anything is timed: ``order_key`` for ``query_pres`` answers and
``serialize`` for ``query_xml`` answers.
"""

from __future__ import annotations

from repro.workloads.auction import generate_auction
from repro.workloads.queries import AUCTION_QUERIES
from repro.xml.parser import ParseOptions, parse_document
from repro.xml.serialize import serialize
from repro.xpath import evaluate_nodes

#: The query set of every workload: Q1-Q16 of the auction suite.
QUERIES = tuple((spec.key, spec.xpath) for spec in AUCTION_QUERIES)

#: The subtree the ``sharded_rw`` writer inserts and deletes again.  Its
#: id is unique in the corpus, so it never satisfies Q7's point lookup.
WRITE_FRAGMENT = (
    "<person id=\"bench-writer\"><name>Bench Writer</name>"
    "<emailaddress>mailto:writer@example.com</emailaddress></person>"
)

#: Where the writer inserts the fragment: first child of ``people``.
WRITE_PARENT_XPATH = "/site/people"


def auction_text(scale_factor: float, seed: int) -> str:
    """One generated auction document as XML text."""
    return serialize(generate_auction(scale_factor, seed=seed))


def parse(text: str):
    """The DOM the oracle evaluates over (whitespace kept, as stored)."""
    return parse_document(text, ParseOptions(keep_whitespace=True))


class Answers:
    """Expected answers of one document for every query."""

    def __init__(self, document) -> None:
        self.pres: dict[str, list[int]] = {}
        self.xml: dict[str, list[str]] = {}
        for key, xpath in QUERIES:
            # The SQL answers never contain the document node itself.
            nodes = [
                node for node in evaluate_nodes(document, xpath)
                if node.order_key > 0
            ]
            self.pres[key] = [node.order_key for node in nodes]
            self.xml[key] = [serialize(node) for node in nodes]

    def counts(self) -> dict[str, int]:
        return {key: len(pres) for key, pres in self.pres.items()}


def answers_for(text: str) -> Answers:
    return Answers(parse(text))


def write_fragment():
    """A fresh, detached copy of :data:`WRITE_FRAGMENT`."""
    holder = parse_document(WRITE_FRAGMENT)
    element = holder.root_element
    holder.remove_child(element)
    return element


def counts_with_fragment(text: str) -> dict[str, int]:
    """Per-query answer counts of *text* while the writer's fragment is
    inserted, so a scatter that reads a write document mid-pair is
    checked exactly."""
    document = parse(text)
    parent = evaluate_nodes(document, WRITE_PARENT_XPATH)[0]
    parent.insert_child(0, write_fragment())
    return Answers(document).counts()
