"""The streaming ingest pipeline.

Three layers of differential evidence, each against a DOM-side oracle:

* the pull parser's event stream is *byte-identical* to
  ``stream_events(parse_document(text))`` — including every syntax
  error's message, line and column — at several read-chunk sizes;
* the shredder (:func:`shred_into`) numbers nodes exactly as the DOM
  reference walk (:func:`number_document` + :func:`element_content`)
  does, over both event sources;
* storing parsed text and a parsed document produces byte-identical
  tables, catalog rows and reconstruction output across **all seven
  schemes**.

Plus the bulk machinery around them: file/corpus ingestion, deferred
index rebuilds, and the ``ingest.*`` telemetry.
"""

import pytest

from repro.core.store import XmlRelStore
from repro.errors import StorageError, XmlRelError, XmlSyntaxError
from repro.serve import ShardedStore
from repro.storage.interval import element_content
from repro.storage.numbering import number_document, shred_into
from repro.workloads import (
    auction_dtd,
    dblp_dtd,
    generate_auction,
    generate_dblp,
)
from repro.xml import parse_document, serialize
from repro.xml.events import parse_events, stream_events
from repro.xml.parser import ParseOptions
from repro.xml.stream import iter_events

XML_SMALL = """<?xml version="1.0"?>
<!DOCTYPE bib [<!ENTITY co "Company">]>
<bib xmlns="urn:x">
  <book year="1994" id="b1"><title>TCP/IP &amp; &co;</title>
    <!-- a comment --><?proc data?>
    <price>65.95</price><empty/><ws>   </ws>
  </book>
  <book year="2000"><title><![CDATA[Data >> on ]] the Web]]></title></book>
</bib>"""

WELL_FORMED = [
    "<a/>",
    "<a>x</a>",
    '<a b="1" c="2"><d>t</d><!--c--><?pi d?></a>',
    "<r>" + "".join(f'<i k="{i}">v{i}</i>' for i in range(50)) + "</r>",
    "<a>x<![CDATA[ ]]> ]] ><b/>tail</a>",
    "<a>\n  <b>  </b>\n</a>",
    "<a>&amp;&lt;&#65;</a>",
    '<a x="&quot;q&apos;"/>',
    XML_SMALL,
]

MALFORMED = [
    '<a b="1" b="2"/>',
    "<a><b></c></a>",
    "<a><![CDATA[x]]",
    "<a>x",
    "<a><!--",
    "<a><?pi",
    "<a>&unknown;</a>",
    "<a",
    "<>",
    "<a></a><b/>",
    "<a>]]></a>",
    "<a b=1/>",
]

#: Chunk sizes that land refills mid-tag, mid-text and beyond EOF.
CHUNKS = (7, 64, 8192)

SCHEMES = ("interval", "dewey", "edge", "binary", "universal", "xrel",
           "inlining")


def _chunked_reader(text, chunk):
    """A file-like over *text* that returns *chunk* chars per read."""
    state = {"pos": 0}

    class _Reader:
        def read(self, count):
            start = state["pos"]
            state["pos"] = start + chunk
            return text[start:start + chunk]

    return _Reader()


# -- event-stream parity -----------------------------------------------------


@pytest.mark.parametrize("keep_ws", [False, True])
def test_events_match_dom_walk(keep_ws):
    options = ParseOptions(keep_whitespace=keep_ws)
    for text in WELL_FORMED:
        expected = list(
            stream_events(parse_document(text, options=options))
        )
        for chunk in CHUNKS:
            streamed = list(
                iter_events(_chunked_reader(text, chunk), options)
            )
            assert streamed == expected, (text, chunk)


def test_syntax_errors_match_dom_parser():
    """Same message, same line, same column — at every chunk size."""
    for text in MALFORMED:
        with pytest.raises(XmlSyntaxError) as dom_error:
            parse_document(text)
        for chunk in CHUNKS:
            with pytest.raises(XmlSyntaxError) as stream_error:
                list(iter_events(_chunked_reader(text, chunk)))
            assert str(stream_error.value) == str(dom_error.value), (
                text, chunk
            )


def test_text_source_and_path_source(tmp_path):
    text = WELL_FORMED[2]
    expected = list(stream_events(parse_document(text)))
    assert list(parse_events(text)) == expected
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    assert list(parse_events(path)) == expected


# -- shredder parity ---------------------------------------------------------


@pytest.mark.parametrize("source", ["dom", "text"])
def test_shred_into_matches_number_document(source):
    """The one shredder against the DOM reference walk: the same
    records, the same text-only content cache, and element opens in
    pre order — from a parsed document's replay and from the pull
    parser alike."""
    text = serialize(generate_auction(0.02, seed=9))
    document = parse_document(text, ParseOptions(keep_whitespace=True))
    expected = number_document(document)
    contents = element_content(expected)
    events = (
        stream_events(document) if source == "dom" else parse_events(text)
    )
    records, enters = [], []
    count, root = shred_into(
        events,
        lambda record, content: records.append((record, content)),
        lambda pre, name, parent: enters.append((pre, name, parent)),
    )
    records.sort(key=lambda item: item[0].pre)
    assert [record for record, _ in records] == expected
    assert [content for _, content in records] == [
        contents.get(record.pre) if record.is_element else None
        for record in expected
    ]
    assert enters == [
        (record.pre, record.name, record.parent_pre)
        for record in expected
        if record.is_element
    ]
    assert count == len(expected)
    assert root == "site"


def test_shred_into_rejects_unbalanced_stream():
    events = list(parse_events("<a><b/></a>"))[:-2]  # drop END a + doc
    with pytest.raises(StorageError):
        shred_into(events, lambda record, content: None)


# -- whole-store differential: stream vs DOM across all schemes --------------


def _dump_tables(store):
    def key(row):
        return tuple((value is None, value) for value in row)

    return {
        table: sorted(
            store.db.query(f"SELECT * FROM {table}"), key=key
        )
        for table in sorted(store.scheme.table_names())
    }


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stream_store_tables_identical_to_dom(scheme):
    corpora = {
        "auction": (
            serialize(generate_auction(0.01, seed=42)), auction_dtd
        ),
        "dblp": (
            serialize(generate_dblp(record_count=40, seed=7)), dblp_dtd
        ),
    }
    if scheme != "inlining":
        corpora["small"] = (XML_SMALL, None)
    for label, (xml, dtd_factory) in corpora.items():
        kwargs = (
            {"dtd": dtd_factory()} if scheme == "inlining" else {}
        )
        dom_store = XmlRelStore.open(scheme=scheme, **kwargs)
        dom_store.scheme.create_schema()
        stream_store = XmlRelStore.open(scheme=scheme, **kwargs)
        stream_store.scheme.create_schema()
        try:
            dom_result = dom_store.scheme.store(
                parse_document(xml), name="doc"
            )
            stream_result = stream_store.scheme.store_stream(
                parse_events(xml), name="doc"
            )
            assert dom_result.doc_id == stream_result.doc_id
            assert dom_result.node_count == stream_result.node_count
            assert dom_result.row_counts == stream_result.row_counts, (
                scheme, label
            )
            dom_tables = _dump_tables(dom_store)
            stream_tables = _dump_tables(stream_store)
            assert dom_tables.keys() == stream_tables.keys()
            for table in dom_tables:
                assert dom_tables[table] == stream_tables[table], (
                    scheme, label, table
                )
            assert dom_store.db.query(
                "SELECT * FROM xmlrel_documents"
            ) == stream_store.db.query("SELECT * FROM xmlrel_documents")
            assert dom_store.reconstruct_xml(
                dom_result.doc_id
            ) == stream_store.reconstruct_xml(stream_result.doc_id)
        finally:
            dom_store.close()
            stream_store.close()


# -- file and corpus ingestion -----------------------------------------------


def test_store_file_streams_and_round_trips(tmp_path):
    text = serialize(generate_auction(0.01, seed=3))
    path = tmp_path / "auction.xml"
    path.write_text(text, encoding="utf-8")
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        doc_id = store.store_file(str(path), name="auction")
        assert store.reconstruct_xml(doc_id) == serialize(
            parse_document(text)
        )


def test_store_file_wraps_io_errors(tmp_path):
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        with pytest.raises(XmlRelError, match="cannot read XML file"):
            store.store_file(str(tmp_path / "missing.xml"))
        bad = tmp_path / "bad.xml"
        bad.write_bytes(b"<a>\xff\xfe</a>")
        with pytest.raises(XmlRelError):
            store.store_file(str(bad))


def test_store_corpus_parallel_load(tmp_path):
    texts = [
        serialize(generate_auction(0.01, seed=50 + i)) for i in range(6)
    ]
    names = [f"auction-{i}" for i in range(len(texts))]
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=3,
        placement="round_robin",
    ) as store:
        doc_ids = store.store_corpus(texts, names=names)
        assert len(doc_ids) == len(texts)
        # Ids come back in input order and resolve to the right bytes.
        for doc_id, text in zip(doc_ids, texts):
            assert serialize(store.reconstruct(doc_id)) == serialize(
                parse_document(text)
            )
        counts = store.shard_counts()
        assert sum(counts.values()) == len(texts)
        assert all(count > 0 for count in counts.values())
        # The ingest instruments saw the load.
        snapshot = store.metrics.snapshot()
        assert snapshot["counters"]["ingest.documents"] == len(texts)
        assert snapshot["counters"]["ingest.rows"] > 0
        shard_histograms = [
            name
            for name in snapshot["histograms"]
            if name.startswith("ingest.shard")
        ]
        assert len(shard_histograms) == 3


def test_store_corpus_mixed_payloads(tmp_path):
    text = serialize(generate_auction(0.01, seed=11))
    path = tmp_path / "doc.xml"
    path.write_text(text, encoding="utf-8")
    store_dir = tmp_path / "store"
    with ShardedStore.open(
        str(store_dir), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        doc_ids = store.store_corpus(
            [text, path, parse_document(text)],
            names=["as-text", "as-path", "as-document"],
        )
        reconstructed = {
            serialize(store.reconstruct(doc_id)) for doc_id in doc_ids
        }
        assert reconstructed == {serialize(parse_document(text))}


def test_store_corpus_name_count_mismatch(tmp_path):
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
    ) as store:
        with pytest.raises(StorageError, match="name"):
            store.store_corpus(["<a/>", "<b/>"], names=["only-one"])


@pytest.mark.parametrize("case", ["short_names", "long_names", "malformed"])
def test_store_corpus_failure_leaves_no_rows(tmp_path, case):
    """A failed load rolls back every shard's session: no shard-map
    entry and no orphan row on any shard — also for generator sources,
    whose length is unknown until they run dry."""
    good = [f"<a><b>{i}</b></a>" for i in range(3)]
    if case == "short_names":
        sources, names, error = good, ["n0", "n1"], StorageError
    elif case == "long_names":
        sources, names, error = good, ["n0", "n1", "n2", "n3"], StorageError
    else:
        sources = good + ["<broken><nope></broken>"]
        names, error = None, XmlSyntaxError
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        with pytest.raises(error):
            store.store_corpus((text for text in sources), names=names)
        assert store.documents() == []
        for writer in store.writers:
            assert writer.documents() == []


def test_store_corpus_atomicity_on_bad_document(tmp_path):
    """One malformed payload rolls back the whole corpus: no shard-map
    entries, no catalog rows, nothing partially registered."""
    good = serialize(generate_auction(0.01, seed=21))
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
        placement="round_robin",
    ) as store:
        with pytest.raises(XmlSyntaxError):
            store.store_corpus(
                [good, good, "<broken><nope></broken>"],
                names=["a", "b", "c"],
            )
        assert store.documents() == []
        assert sum(store.shard_counts().values()) == 0
        # The store remains fully usable afterwards.
        [doc_id] = store.store_corpus([good], names=["after"])
        assert serialize(store.reconstruct(doc_id)) == serialize(
            parse_document(good)
        )


def test_store_corpus_empty(tmp_path):
    with ShardedStore.open(
        str(tmp_path), scheme="interval", shards=2,
    ) as store:
        assert store.store_corpus([]) == []


# -- deferred index rebuilds --------------------------------------------------


def _index_names(db):
    return {
        row[0]
        for row in db.query(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name NOT LIKE 'sqlite_%'"
        )
    }


def test_bulk_session_defers_and_rebuilds_indexes():
    text = serialize(generate_auction(0.01, seed=5))
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        before = _index_names(store.db)
        assert before  # the interval scheme has secondary indexes
        with store.bulk_session() as session:
            session.store_stream(parse_events(text), "doc")
            # Inside the session the secondary indexes are dropped so
            # inserts pay no incremental maintenance.
            assert not _index_names(store.db) & before
        # Rebuilt (inside the commit) on the way out.
        assert _index_names(store.db) >= before
        [doc] = store.documents()
        assert store.reconstruct_xml(doc.doc_id) == serialize(
            parse_document(text)
        )


def test_bulk_session_rollback_restores_indexes():
    with XmlRelStore.open(scheme="interval") as store:
        store.scheme.create_schema()
        before = _index_names(store.db)
        with pytest.raises(XmlSyntaxError):
            with store.bulk_session() as session:
                session.store_stream(parse_events("<a>ok</a>"), "ok")
                session.store_stream(
                    parse_events("<broken>"), "broken"
                )
        # The rolled-back transaction takes the DROP INDEX statements
        # with it: the schema is exactly as before the session.
        assert _index_names(store.db) >= before
        assert store.documents() == []
