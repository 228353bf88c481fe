import contextlib
import errno
import io
import json
import multiprocessing
import os
import re
import signal
import string
import sys
from collections import Counter
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import priorlearn.corpus as corpus_module
from oracles import (
    category_items,
    document,
    from_documents,
    peak_bytes,
    per_character_tokenize,
    retained_bytes,
    row_documents,
    seeded_rows_corpus,
    splitlines_truncate_at_references,
)
from priorlearn.corpus import (
    CategoryIndex,
    Corpus,
    CorpusFormatError,
    Document,
    IngestError,
    extract_categories,
    ingest_wiki_dump,
    load_corpus,
    store_corpus,
    tokenize,
    truncate_at_references,
)

DATA = Path(__file__).parent / "data"


class TestTokenize:
    def test_sentence(self):
        assert tokenize("AlphaGo is a program.") == {"alphago", "is", "a", "program"}

    def test_empty(self):
        assert tokenize("") == set()
        assert tokenize("   \n\t ") == set()

    def test_strip_lowercase_dedup(self):
        # interior '.' survives, surrounding punctuation and case fold away,
        # and the duplicate 2.0 collapses
        assert tokenize("Version 2.0, (beta) 2.0!") == {"version", "2.0", "beta"}

    def test_interior_punctuation_kept(self):
        assert tokenize("don't stop-gap a--b") == {"don't", "stop-gap", "a--b"}

    def test_all_punctuation_piece_dropped(self):
        assert tokenize("wait -- what ... !!") == {"wait", "what"}

    def test_ascii_symbols_count_as_punctuation(self):
        assert tokenize("C++ and C#") == {"c", "and"}

    def test_unicode_punctuation(self):
        assert tokenize("«quoted» —dash—") == {"quoted", "dash"}

    def test_numbers_kept(self):
        assert tokenize("In 2020, 5,935,124 articles.") == {"in", "2020", "5,935,124", "articles"}

    def test_matches_per_character_oracle(self):
        # boundary characters from every class the fast path treats apart:
        # ASCII punctuation and symbols, Unicode punctuation, non-ASCII
        # non-punctuation (letters, a currency sign, emoji, a combining mark)
        # (the ASCII symbols of category S are drawn twice as often)
        alphabet = list(
            string.punctuation + "$+<=>^|~" + "«»—“”¿、。！" + "éÅñßΩж中文日本" + "€😀\u0301"
            + string.ascii_letters + string.digits
        )
        spaces = list(" \t\n\u3000\xa0")
        rng = np.random.default_rng(4)
        for _ in range(5000):
            pieces = [
                "".join(alphabet[i] for i in rng.integers(len(alphabet), size=rng.integers(1, 7)))
                for _ in range(rng.integers(0, 8))
            ]
            text = "".join(piece + spaces[rng.integers(len(spaces))] for piece in pieces)
            assert tokenize(text) == per_character_tokenize(text), text

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(sorted(tokens))) == tokens

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_output_invariants(self, text):
        for t in tokenize(text):
            assert t
            assert t == t.lower()
            assert t == t.strip()


#: The line breaks of ``str.splitlines``, ``\r\n`` among them as one.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
#: Pieces of headings and of the lines around them: ``\x1f`` and U+00A0 are whitespace but no line break, and
#: ``ſ`` and the Kelvin sign match ``s`` and ``k`` under ``re.IGNORECASE`` while ``str.lower`` keeps them.
HEADING_FRAGMENTS = [
    "=", "==", " ", "\t", "\x1f", "\xa0", "x", "References", "REFERENCES", "references", "Referenceſ",
    "\u212aey", "Ref", "erences", *LINE_BREAKS,
]


class TestReferencesTruncation:
    def test_drops_heading_and_tail(self):
        text = "body text\n== References ==\ntail\n[[Category:X]]\n"
        assert truncate_at_references(text) == "body text\n"

    def test_heading_variants(self):
        assert truncate_at_references("a\n==References==\nb") == "a\n"
        assert truncate_at_references("a\n=== references ===\nb") == "a\n"

    def test_other_headings_kept(self):
        text = "a\n== History ==\nb\n== Reference list ==\nc"
        assert truncate_at_references(text) == text

    def test_absent_heading_keeps_whole_body(self):
        assert truncate_at_references("no headings here") == "no headings here"

    @pytest.mark.parametrize("line_break", LINE_BREAKS)
    def test_every_splitlines_break_starts_a_line(self, line_break):
        assert truncate_at_references(f"a{line_break} == References ==\nb") == f"a{line_break}"

    def test_only_whitespace_may_come_before_the_heading_on_its_line(self):
        for text in ("a\x1f== References ==", "a = b\n x == References ==", "a\nb== References =="):
            assert truncate_at_references(text) == text
        assert truncate_at_references("a\n\x1f\xa0 == References ==") == "a\n"

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(HEADING_FRAGMENTS), max_size=14).map("".join))
    def test_matches_the_splitlines_oracle(self, text):
        assert truncate_at_references(text) == splitlines_truncate_at_references(text)


class TestExtractCategories:
    def test_basic_and_sortkey_forms(self):
        text = "x [[Category:Machine learning]] y [[Category:Software|sort key]] z"
        assert extract_categories(text) == ["Machine learning", "Software"]

    def test_underscores_and_case(self):
        assert extract_categories("[[category:Windows_games]]") == ["Windows games"]

    def test_deduplicated(self):
        assert extract_categories("[[Category:A]] [[Category:A]]") == ["A"]

    def test_a_link_in_a_comment_is_none(self):
        assert extract_categories("a <!-- [[Category:Commented]] --> b [[Category:Kept]]") == ["Kept"]

    def test_an_unclosed_comment_runs_to_the_end(self):
        assert extract_categories("[[Category:Kept]] <!-- [[Category:Lost]]\n--\n[[Category:Also lost]]") == ["Kept"]

    def test_a_comment_inside_a_link_is_dropped_first(self):
        assert extract_categories("[[Cate<!-- split -->gory:Joined]]") == ["Joined"]

    def test_a_link_in_a_nowiki_span_is_none(self):
        text = "<nowiki>[[Category:Nowiki]]</nowiki> <NoWiki>[[Category:Upper]]</NOWIKI> [[Category:Kept]]"
        assert extract_categories(text) == ["Kept"]

    def test_only_a_closed_nowiki_span_is_cut(self):
        assert extract_categories("<nowiki>[[Category:Open]]") == ["Open"]

    def test_an_empty_nowiki_tag_breaks_a_link(self):
        assert extract_categories("[[<nowiki/>Category:Broken]] [[<nowiki />Category:Spaced]]") == []

    def test_a_link_to_a_category_page_is_no_membership(self):
        assert extract_categories("see [[:Category:Foo]] and [[ :Category:Bar|bar]]") == []

    def test_a_link_ends_at_its_line(self):
        text = "intro [[Category:Foo\nmore body text here\nand [[Link]] end"
        assert extract_categories(text) == ["Foo"]
        assert extract_categories("intro [[Category:\nnext line\n[[\nCategory:X]]") == []


def _wrap_pages(*pages: str) -> io.BytesIO:
    xml = (
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">'
        + "".join(pages)
        + "</mediawiki>"
    )
    return io.BytesIO(xml.encode("utf-8"))


def _page(pid: int, title: str, text: str, ns: int = 0, redirect: bool = False) -> str:
    redirect_tag = '<redirect title="elsewhere" />' if redirect else ""
    return (
        f"<page><title>{title}</title><ns>{ns}</ns><id>{pid}</id>{redirect_tag}"
        f"<revision><id>{pid * 100}</id><text>{text}</text></revision></page>"
    )


LONG_BODY = "alpha beta gamma delta " * 20  # 460 bytes, tokens {alpha,beta,gamma,delta}


class TestIngest:
    def test_three_page_fixture(self):
        skipped = Counter()
        with (DATA / "mini_dump.xml").open("rb") as stream:
            corpus, cats = ingest_wiki_dump(stream, skipped=skipped)
        assert corpus.doc_count == 1
        doc = document(corpus, 11)
        assert doc.title == "Hill climbing"
        assert doc.tokens == {
            "hill", "climbing", "picks", "the", "best", "nearby", "value", "then",
            "repeats", "alpha", "beta", "gamma", "delta",
        }
        assert category_items(cats) == [
            ("Optimization", frozenset({11})),
            ("Search methods", frozenset({11})),
        ]
        assert skipped["below_min_bytes"] == 1
        assert skipped["redirect"] == 1

    def test_short_page_excluded(self):
        corpus, _ = ingest_wiki_dump(_wrap_pages(_page(1, "Short", "tiny body")))
        assert corpus.doc_count == 0

    def test_redirect_excluded_via_element_and_marker(self):
        pages = _wrap_pages(
            _page(1, "R1", LONG_BODY, redirect=True),
            _page(2, "R2", "#REDIRECT [[Elsewhere]] " + LONG_BODY),
        )
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(pages, skipped=skipped)
        assert corpus.doc_count == 0
        assert skipped["redirect"] == 2

    def test_non_article_namespaces_skipped_with_counter(self):
        pages = _wrap_pages(
            _page(1, "Talk:Thing", LONG_BODY, ns=1),
            _page(2, "Category:Thing", LONG_BODY, ns=14),
            _page(3, "Keeper", LONG_BODY),
        )
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(pages, skipped=skipped)
        assert corpus.doc_ids.tolist() == [3]
        assert skipped["namespace:1"] == 1
        assert skipped["namespace:14"] == 1

    def test_disambiguation_template_skipped(self):
        pages = _wrap_pages(_page(1, "Mercury", "{{disambiguation}} " + LONG_BODY))
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(pages, skipped=skipped)
        assert corpus.doc_count == 0
        assert skipped["disambiguation"] == 1

    def test_a_commented_out_disambiguation_template_skips_nothing(self):
        pages = _wrap_pages(_page(1, "Mercury", escape(LONG_BODY + "<!-- {{disambiguation}} -->")))
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(pages, skipped=skipped)
        assert corpus.doc_ids.tolist() == [1] and skipped == Counter()
        assert document(corpus, 1).tokens == {"alpha", "beta", "gamma", "delta"}

    def test_min_bytes_measured_after_truncation(self):
        # body clears the threshold only if the references tail is counted
        body = "kept words here\n== References ==\n" + LONG_BODY
        corpus, _ = ingest_wiki_dump(_wrap_pages(_page(1, "T", body)))
        assert corpus.doc_count == 0

    def test_categories_survive_truncation(self):
        body = LONG_BODY + "\n== References ==\nrefs\n[[Category:Hidden gems]]"
        corpus, cats = ingest_wiki_dump(_wrap_pages(_page(7, "T", body)))
        assert document(corpus, 7).tokens == {"alpha", "beta", "gamma", "delta"}
        assert cats.members("Hidden gems") == {7}

    def test_category_links_left_in_the_body_are_not_tokenized(self):
        # one link above the references heading, one on a page with no such heading
        pages = _wrap_pages(
            _page(1, "Above", LONG_BODY + "[[Category:Zebra stripes]]\n== References ==\nrefs"),
            _page(2, "Headless", LONG_BODY + "\n[[Category:Okapi_herds|sort key]] "),
        )
        corpus, cats = ingest_wiki_dump(pages)
        assert document(corpus, 1).tokens == document(corpus, 2).tokens == {"alpha", "beta", "gamma", "delta"}
        assert category_items(cats) == [("Okapi herds", frozenset({2})), ("Zebra stripes", frozenset({1}))]

    def test_unclosed_link_removes_only_its_own_line(self):
        body = LONG_BODY + "\n[[Category:Foo\nzebra okapi\nand [[Link]] end"
        corpus, cats = ingest_wiki_dump(_wrap_pages(_page(1, "T", body)))
        assert document(corpus, 1).tokens == {"alpha", "beta", "gamma", "delta", "zebra", "okapi", "and", "link", "end"}
        assert category_items(cats) == [("Foo", frozenset({1}))]

    def test_min_bytes_measured_after_link_removal(self):
        body = "kept words here [[Category:" + "Long name " * 50 + "]]"
        skipped = Counter()
        corpus, cats = ingest_wiki_dump(_wrap_pages(_page(1, "T", body)), skipped=skipped)
        assert corpus.doc_count == 0 and category_items(cats) == [] and skipped["below_min_bytes"] == 1

    def test_comments_and_nowiki_spans_are_neither_labels_nor_tokens(self):
        body = (
            LONG_BODY + "<!-- zebra [[Category:Commented]] -->\n<nowiki>okapi [[Category:Nowiki]]</nowiki>"
            "\n[[Category:Kept]] <!-- giraffe [[Category:Open comment]]\n== References ==\nrefs"
        )
        corpus, cats = ingest_wiki_dump(_wrap_pages(_page(1, "T", escape(body))))
        assert document(corpus, 1).tokens == {"alpha", "beta", "gamma", "delta"}
        assert category_items(cats) == [("Kept", frozenset({1}))]

    def test_min_bytes_measured_after_the_comment_cut(self):
        body = "kept words here <!--" + LONG_BODY + "-->"
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(_wrap_pages(_page(1, "T", escape(body))), skipped=skipped)
        assert corpus.doc_count == 0 and skipped["below_min_bytes"] == 1

    def test_the_last_revision_is_read(self):
        # a history export lists a page's revisions oldest first
        revisions = "".join(
            f"<revision><id>{rid}</id><text>{LONG_BODY}{word} [[Category:{name}]]</text></revision>"
            for rid, word, name in ((1, "stale", "Old"), (2, "fresh", "New"))
        )
        pages = _wrap_pages(f"<page><title>T</title><ns>0</ns><id>5</id>{revisions}</page>")
        corpus, cats = ingest_wiki_dump(pages)
        assert document(corpus, 5).tokens == {"alpha", "beta", "gamma", "delta", "fresh"}
        assert category_items(cats) == [("New", frozenset({5}))]

    def test_category_pointing_at_dropped_page_is_pruned(self):
        pages = _wrap_pages(
            _page(1, "Kept", LONG_BODY + " [[Category:Mixed]]"),
            _page(2, "Dropped", "short [[Category:Mixed]] [[Category:Only dropped]]"),
        )
        _, cats = ingest_wiki_dump(pages)
        assert cats.members("Mixed") == {1}
        assert "Only dropped" not in cats

    def test_fields_are_matched_in_the_root_namespace(self):
        uri = "http://www.mediawiki.org/xml/export-0.10/"
        pages = (
            _page(1, "Keeper", LONG_BODY + "[[Category:Kept]]")
            + _page(2, "Talk:Keeper", LONG_BODY, ns=1)
            + _page(3, "Moved", LONG_BODY, redirect=True)
            + _page(4, "Short", "tiny [[Category:Dropped]]")
            + "<page><ns>0</ns><id>5</id><revision><text>" + LONG_BODY + "</text></revision></page>"
        )
        prefixed = re.sub(r"<(/?)(?=\w)", r"<\1mw:", pages)
        exports = [
            f"<mediawiki>{pages}</mediawiki>",
            f'<mediawiki xmlns="{uri}">{pages}</mediawiki>',
            f'<mw:mediawiki xmlns:mw="{uri}">{prefixed}</mw:mediawiki>',
        ]
        results = []
        for export in exports:
            skipped = Counter()
            corpus, cats = ingest_wiki_dump(io.BytesIO(export.encode("utf-8")), skipped=skipped)
            arrays = (corpus.doc_ids, corpus.offsets, corpus.slots)
            columns = (corpus.titles, corpus.vocabulary, *(column.tolist() for column in arrays))
            results.append((columns, category_items(cats), skipped))
        assert results[0] == results[1] == results[2]
        assert results[0][1] == [("Kept", frozenset({1}))]
        assert results[0][2] == Counter(
            {"namespace:1": 1, "redirect": 1, "below_min_bytes": 1, "incomplete_page": 1}
        )

    def test_a_page_in_another_namespace_is_not_read(self):
        page = _page(1, "Elsewhere", LONG_BODY).replace("<page>", '<page xmlns="urn:other">', 1)
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(_wrap_pages(page, _page(2, "Keeper", LONG_BODY)), skipped=skipped)
        assert corpus.doc_ids.tolist() == [2] and not skipped

    def test_malformed_xml_names_line_and_column(self):
        stream = io.BytesIO(b"<mediawiki><page><title>Broken</title>")
        with pytest.raises(IngestError, match=r"line \d+, column \d+"):
            ingest_wiki_dump(stream)

    @pytest.mark.parametrize("raw_id", ["abc", "1" * 31, str(2**63), str(-(2**63) - 1)])
    def test_page_id_outside_int64_names_the_page(self, raw_id):
        page = _page(1, "Odd id", LONG_BODY).replace("<id>1</id>", f"<id>{raw_id}</id>", 1)
        with pytest.raises(IngestError, match=f"page 'Odd id': id '{raw_id}'"):
            ingest_wiki_dump(_wrap_pages(page))

    def test_int64_bounds_are_ids(self):
        pages = _wrap_pages(
            _page(1, "Top", LONG_BODY).replace("<id>1</id>", f"<id>{2**63 - 1}</id>", 1),
            _page(2, "Bottom", LONG_BODY).replace("<id>2</id>", f"<id> {-(2**63)} </id>", 1),
        )
        corpus, _ = ingest_wiki_dump(pages)
        assert corpus.doc_ids.tolist() == [-(2**63), 2**63 - 1]

    def test_memory_does_not_grow_with_skipped_pages(self):
        def pages(n_pages):
            return _wrap_pages(*(_page(pid, f"Talk {pid}", "x", ns=1) for pid in range(n_pages)))

        peak_bytes(ingest_wiki_dump, pages(10))  # first-call allocations (compiled patterns, caches) out of the way
        small, large = peak_bytes(ingest_wiki_dump, pages(1000)), peak_bytes(ingest_wiki_dump, pages(8000))
        # a cleared page kept as the root's child costs ~70 bytes: 7,000 more ~0.5 MB
        assert large < small + 100_000

    def test_memory_per_kept_page_is_its_index_row(self):
        words = [f"word{i}" for i in range(1000)]

        def pages(n_pages):
            rng = np.random.default_rng(n_pages)
            bodies = (" ".join(words[j] for j in rng.choice(len(words), 40, replace=False)) for _ in range(n_pages))
            return _wrap_pages(*(_page(pid, f"Page {pid}", body) for pid, body in enumerate(bodies, 1)))

        peak_bytes(ingest_wiki_dump, pages(10), min_bytes=0)
        small, large = (peak_bytes(ingest_wiki_dump, pages(n), min_bytes=0) for n in (1000, 8000))
        # per kept page of 40 tokens: ~2.6 KB at the peak as a frozenset Document, ~0.9 KB as
        # a row of 40 token ids plus the index sort's keys
        assert large < small + 7000 * 1500

    def test_ingested_index_equals_the_index_of_oracle_documents(self, monkeypatch):
        words = ["Alpha", "école", "2.0", "don't", "(beta)", "—dash—", "...", "Ωmega", "gamma,", "C++"]
        rng = np.random.default_rng(12)
        page_ids = [17, 3, 250, 8, 42, 5, 99, 1]  # out of order
        texts = {}
        for pid in page_ids:
            pieces = [words[i] for i in rng.integers(len(words), size=int(rng.integers(1, 30)))]
            if pid % 2:
                pieces.insert(len(pieces) // 2, "\n== References ==\n")
            texts[pid] = " ".join(pieces)
        texts[5] = "... !! --"  # a kept page with no token
        made = []
        monkeypatch.setattr(corpus_module, "Document", lambda **fields: made.append(fields) or Document(**fields))
        corpus, _ = ingest_wiki_dump(
            _wrap_pages(*(_page(pid, f"P{pid}", text) for pid, text in texts.items())), min_bytes=0
        )
        assert made == []  # ingest keeps index rows, not Documents
        documents = [
            Document(pid, f"P{pid}", frozenset(per_character_tokenize(truncate_at_references(texts[pid]))))
            for pid in sorted(texts)
        ]
        expected = from_documents(documents)
        assert corpus.vocabulary == expected.vocabulary
        for name in ("doc_ids", "offsets", "slots"):
            assert getattr(corpus, name).dtype == getattr(expected, name).dtype, name
            assert np.array_equal(getattr(corpus, name), getattr(expected, name)), name
        assert corpus.titles == tuple(doc.title for doc in documents)
        assert list(corpus) == documents

    def test_dump_with_no_kept_page_stores_and_loads(self, tmp_path):
        corpus, cats = ingest_wiki_dump(_wrap_pages(_page(1, "Short", "tiny body", ns=1), _page(2, "S", "tiny")))
        assert corpus.doc_count == 0 and corpus.vocabulary == ()
        store_corpus(corpus, cats, tmp_path / "s")
        loaded, loaded_cats = load_corpus(tmp_path / "s")
        assert loaded.doc_ids.tolist() == [] and list(loaded) == [] and category_items(loaded_cats) == []

    def test_repeated_page_id_is_named(self):
        pages = _wrap_pages(_page(4, "A", LONG_BODY), _page(9, "B", LONG_BODY), _page(4, "C", LONG_BODY))
        with pytest.raises(ValueError, match="^duplicate document id 4$"):
            ingest_wiki_dump(pages)

    def test_pages_below_a_wrapper_drop_their_text(self):
        def stream(n_pages):
            pages = "".join(_page(pid, f"Talk {pid}", "x" * 2000, ns=1) for pid in range(n_pages))
            return _wrap_pages(f"<group>{pages}</group>")

        peak_bytes(ingest_wiki_dump, stream(10))
        small, large = peak_bytes(ingest_wiki_dump, stream(500)), peak_bytes(ingest_wiki_dump, stream(4000))
        # the wrapper still holds each cleared page (~70 bytes); their texts would add ~7 MB
        assert large < small + 3500 * 500

    def test_tokens_match_oracle_and_are_shared_across_pages(self):
        # the same words recur across pages in other cases and inside Unicode
        # and ASCII boundary punctuation, so most pieces repeat across the dump
        words = ["Alpha", "école", "ΟΔΟΣ", "İstanbul", "2.0", "don't", "straße", "中文"]
        wrappers = [("", ""), ("«", "»"), ("“", "”."), ("¿", "?"), ("—", "—"), ("(", "),"), ("'", "'")]
        cases = [str, str.upper, str.lower, str.title]
        rng = np.random.default_rng(10)
        texts = {}
        for pid in range(1, 41):
            pieces = []
            for _ in range(80):
                left, right = wrappers[rng.integers(len(wrappers))]
                word = cases[rng.integers(len(cases))](words[rng.integers(len(words))])
                pieces.append(left + word + right)
            if pid % 4 == 0:
                pieces.insert(40, "\n== References ==\n")
            texts[pid] = " ".join(pieces)
        corpus, _ = ingest_wiki_dump(
            _wrap_pages(*(_page(pid, f"P{pid}", text) for pid, text in texts.items())), min_bytes=0
        )
        assert corpus.doc_ids.tolist() == sorted(texts)
        first_seen = {}
        for doc in corpus:
            assert doc.tokens == per_character_tokenize(truncate_at_references(texts[doc.id]))
            for token in doc.tokens:
                assert first_seen.setdefault(token, token) is token
        assert len(first_seen) < sum(len(doc.tokens) for doc in corpus)


@contextlib.contextmanager
def _within(seconds: int):
    """Raise ``TimeoutError`` in the block once ``seconds`` pass, so that a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


B = corpus_module._BATCH_PAGES
#: A page of each skip reason, given an id, with that reason.
SKIPPED_PAGES = [
    (lambda pid: _page(pid, f"Talk {pid}", LONG_BODY, ns=1), "namespace:1"),
    (lambda pid: _page(pid, f"Category {pid}", LONG_BODY, ns=14), "namespace:14"),
    (lambda pid: _page(pid, f"Moved {pid}", LONG_BODY, redirect=True), "redirect"),
    (lambda pid: _page(pid, f"Redirect {pid}", "#REDIRECT [[Elsewhere]] " + LONG_BODY), "redirect"),
    (lambda pid: _page(pid, f"Mercury {pid}", "{{disambig}} " + LONG_BODY), "disambiguation"),
    (lambda pid: _page(pid, f"Stub {pid}", "tiny body"), "below_min_bytes"),
    (lambda pid: f"<page><ns>0</ns><id>{pid}</id><revision><text>{LONG_BODY}</text></revision></page>",
     "incomplete_page"),
]


def _dump_of(kept: int, seed: int = 0) -> tuple[io.BytesIO, dict[int, str]]:
    """A dump of ``kept`` articles of words new and seen, each followed by a page of the next skip reason.

    Returns the dump and each kept page's text by id.
    """
    rng = np.random.default_rng(seed)
    words = [f"{left}{case(f'w{i}')}{right}" for i in range(400) for left, right, case in
             [("", "", str), ("«", "»", str.upper), ("(", "),", str.title)]]
    texts, pages = {}, [make(-1 - i) for i, (make, _) in enumerate(SKIPPED_PAGES)]
    for pid in range(1, kept + 1):
        texts[pid] = " ".join(rng.choice(words, 90))
        pages += [_page(pid, f"P{pid}", texts[pid]), SKIPPED_PAGES[pid % len(SKIPPED_PAGES)][0](10**6 + pid)]
    return _wrap_pages(*pages), texts


class TestTokenizerWorker:
    @pytest.mark.parametrize("kept", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_rows_are_the_oracle_documents_across_batch_boundaries(self, kept):
        stream, texts = _dump_of(kept, seed=kept)
        skipped = Counter()
        corpus, _ = ingest_wiki_dump(stream, skipped=skipped)
        documents = [Document(pid, f"P{pid}", frozenset(per_character_tokenize(texts[pid]))) for pid in texts]
        expected = from_documents(documents)
        assert corpus.vocabulary == expected.vocabulary and corpus.titles == expected.titles
        for name in ("doc_ids", "offsets", "slots"):
            assert np.array_equal(getattr(corpus, name), getattr(expected, name)), name
        reasons = [reason for _, reason in SKIPPED_PAGES]
        assert skipped == Counter(reasons) + Counter(reasons[pid % len(reasons)] for pid in texts)

    def test_no_worker_outlives_a_successful_ingest(self):
        with _within(60):
            ingest_wiki_dump(_dump_of(B + 1)[0])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure", ["malformed XML", "bad page id", "duplicate id", "interrupt"])
    def test_no_worker_outlives_a_failed_ingest(self, failure, monkeypatch):
        stream, _ = _dump_of(2 * B + 1)
        xml = stream.getvalue()
        error = IngestError
        if failure == "malformed XML":
            xml = xml[: len(xml) // 2]
        elif failure == "bad page id":
            xml = xml.replace(b"<ns>0</ns><id>300</id>", b"<ns>0</ns><id>x300</id>", 1)
        elif failure == "duplicate id":
            xml = xml.replace(b"<ns>0</ns><id>300</id>", b"<ns>0</ns><id>3</id>", 1)
            error = ValueError
        else:
            pages = iter(range(400))
            ingest_page = corpus_module._ingest_page

            def interrupted(*args):
                if next(pages) == 300:
                    raise KeyboardInterrupt
                return ingest_page(*args)

            monkeypatch.setattr(corpus_module, "_ingest_page", interrupted)
            error = KeyboardInterrupt
        with _within(60), pytest.raises(error):
            ingest_wiki_dump(io.BytesIO(xml))
        assert multiprocessing.active_children() == []

    def test_a_worker_that_ends_early_is_named_by_its_exit_code(self, monkeypatch):
        def drain_then_exit(to_parent, to_worker):
            to_worker.close()
            for _ in iter(to_parent.recv, None):
                pass
            os._exit(4)

        # each applied before the fork, so the worker runs it: one ends before a send, one before its reply
        for worker, code in ((lambda *ends: os._exit(3), 3), (drain_then_exit, 4)):
            monkeypatch.setattr(corpus_module, "_tokenize_bodies", worker)
            with _within(60), pytest.raises(RuntimeError, match=f"^the tokenizer worker exited with code {code}$"):
                ingest_wiki_dump(_dump_of(2 * B + 1)[0])
            assert multiprocessing.active_children() == []


STORE_FILES = [
    "manifest.json",
    "doc_ids.npy",
    "offsets.npy",
    "slots.npy",
    "vocabulary.txt",
    "titles.txt",
    "categories.txt",
    "category_offsets.npy",
    "category_members.npy",
]


def _tree(root: Path) -> dict:
    """Every path under ``root``, directories included, with a file's bytes."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


def _toy_corpus():
    docs = [
        Document(1, "One", frozenset({"alpha", "beta"})),
        Document(2, "Two", frozenset({"beta", "gamma"})),
        Document(7, "Seven & co", frozenset({"delta"})),
        Document(10, "Ten", frozenset({"alpha", "delta", "2.0"})),
    ]
    corpus = from_documents(docs)
    cats = CategoryIndex.from_mapping({"Fancy/Category Name": [1, 10], "Other": [2]})
    return corpus, cats


class TestCorpusStore:
    def test_round_trip_identity(self, tmp_path):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "store")
        loaded, loaded_cats = load_corpus(tmp_path / "store")
        assert loaded.doc_count == corpus.doc_count
        assert loaded.doc_ids.tolist() == corpus.doc_ids.tolist() and loaded.titles == corpus.titles
        for doc in corpus:
            assert document(loaded, doc.id) == doc
        assert category_items(loaded_cats) == category_items(cats)

    def test_reserialization_is_byte_identical(self, tmp_path):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "a")
        loaded, loaded_cats = load_corpus(tmp_path / "a")
        store_corpus(loaded, loaded_cats, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_every_doc_in_exactly_one_row(self, tmp_path):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == sorted(STORE_FILES)
        assert np.load(tmp_path / "s" / "doc_ids.npy").tolist() == corpus.doc_ids.tolist() == [1, 2, 7, 10]
        assert (tmp_path / "s" / "titles.txt").read_text() == "One\nTwo\nSeven & co\nTen\n"
        vocabulary = (tmp_path / "s" / "vocabulary.txt").read_text().split("\n")[:-1]
        assert vocabulary == ["2.0", "alpha", "beta", "delta", "gamma"]
        offsets, slots = (np.load(tmp_path / "s" / name) for name in ("offsets.npy", "slots.npy"))
        rows = [slots[start:end].tolist() for start, end in zip(offsets, offsets[1:])]
        assert rows == [[0, 2, 3], [0, 3, 5], [0, 4], [0, 1, 2, 4]]

    def test_restore_leaves_nothing_of_the_old_store(self, tmp_path):
        doc = Document(1, "One", frozenset({"alpha"}))
        store_corpus(
            from_documents([doc, Document(2, "Two", frozenset({"beta"}))]),
            CategoryIndex.from_mapping({"Old": [1]}),
            tmp_path / "s",
        )
        (tmp_path / "s" / "notes.txt").write_text("kept")
        store_corpus(from_documents([doc]), CategoryIndex.from_mapping({"New": [1]}), tmp_path / "s")
        store_corpus(from_documents([doc]), CategoryIndex.from_mapping({"New": [1]}), tmp_path / "fresh")
        loaded, cats = load_corpus(tmp_path / "s")
        assert cats.names == ("New",)
        assert list(loaded) == [doc]
        (tmp_path / "s" / "notes.txt").unlink()
        assert _tree(tmp_path / "s") == _tree(tmp_path / "fresh")

    @pytest.mark.parametrize("over_good_store", [False, True])
    def test_failed_store_cannot_be_loaded(self, tmp_path, monkeypatch, over_good_store):
        doc = Document(1, "One", frozenset({"alpha"}))
        corpus = from_documents([doc])
        if over_good_store:
            store_corpus(corpus, CategoryIndex.from_mapping({"Apples": [1]}), tmp_path / "s")
        write_text = Path.write_text

        def disk_full_at_categories(path, *args, **kwargs):
            if path.name == "categories.txt":
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_text(path, *args, **kwargs)

        # fails part-way: after the arrays, the category rows and the titles are written
        monkeypatch.setattr(Path, "write_text", disk_full_at_categories)
        with pytest.raises(OSError):
            store_corpus(corpus, CategoryIndex.from_mapping({"Apples": [1], "Zebras": [1]}), tmp_path / "s")
        assert np.load(tmp_path / "s" / "category_members.npy").tolist() == [1, 1]
        assert (tmp_path / "s" / "titles.txt").is_file()
        with pytest.raises(CorpusFormatError, match="missing manifest"):
            load_corpus(tmp_path / "s")

    def test_titles_with_other_line_breaks_round_trip(self, tmp_path):
        # str.splitlines breaks a line at each of these; a line of titles.txt or categories.txt ends at "\n" only
        breaks = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\x85", "\t"]
        docs = [Document(i, f"{brk}a{brk}b{brk}", frozenset({"alpha"})) for i, brk in enumerate(breaks, 1)]
        cats = CategoryIndex.from_mapping({f"{brk}C{brk}": [i] for i, brk in enumerate(breaks, 1)})
        store_corpus(from_documents(docs), cats, tmp_path / "s")
        loaded, loaded_cats = load_corpus(tmp_path / "s")
        assert [document(loaded, doc.id) for doc in docs] == docs
        assert category_items(loaded_cats) == category_items(cats)

    def test_store_refuses_a_newline_in_a_title_or_category_name(self, tmp_path):
        docs = [Document(1, "One", frozenset({"alpha"})), Document(2, "T\nwo", frozenset({"beta"}))]
        with pytest.raises(CorpusFormatError, match="document 2: title contains a newline"):
            store_corpus(from_documents(docs), CategoryIndex.from_mapping({}), tmp_path / "s")
        cats = CategoryIndex.from_mapping({"Fine": [1], "Bro\nken": [1]})
        with pytest.raises(CorpusFormatError, match=re.escape("category 'Bro\\nken': name contains a newline")):
            store_corpus(from_documents(docs[:1]), cats, tmp_path / "s")
        assert not (tmp_path / "s" / "manifest.json").exists()

    def test_long_category_names_round_trip_in_the_same_nine_files(self, tmp_path):
        cjk = "".join(map(chr, range(0x4E00, 0x4E00 + 30)))
        # longer than a file name may be once percent-encoded, and sharing long prefixes
        names = {"Short": [1], cjk: [1], "\u20ac" * 84: [1], "\u20ac" * 84 + "x": [1], "x" * 251: [1], "x" * 252: [1]}
        doc = Document(1, "One", frozenset({"alpha"}))
        store_corpus(from_documents([doc]), CategoryIndex.from_mapping(names), tmp_path / "s")
        _, cats = load_corpus(tmp_path / "s")
        assert category_items(cats) == category_items(CategoryIndex.from_mapping(names))
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == sorted(STORE_FILES)
        assert all(p.is_file() for p in (tmp_path / "s").iterdir())

    def test_categories_stored_as_sorted_names_and_member_rows(self, tmp_path):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        assert (tmp_path / "s" / "categories.txt").read_text() == "Fancy/Category Name\nOther\n"
        assert np.load(tmp_path / "s" / "category_offsets.npy").tolist() == [0, 2, 3]
        assert np.load(tmp_path / "s" / "category_members.npy").tolist() == [1, 10, 2]
        _, loaded_cats = load_corpus(tmp_path / "s")
        columns = {"category_offsets.npy": loaded_cats.offsets, "category_members.npy": loaded_cats.member_ids}
        for name, column in columns.items():
            stored = np.load(tmp_path / "s" / name)
            assert column.dtype == stored.dtype and np.array_equal(column, stored), name

    def test_empty_category_round_trips(self, tmp_path):
        corpus, _ = _toy_corpus()
        # empty rows first, between two rows whose ids fall and last
        cats = CategoryIndex.from_mapping({"Empty": [], "Full": [10, 1], "Middle": [], "Then": [2], "Zero": []})
        store_corpus(corpus, cats, tmp_path / "s")
        assert np.load(tmp_path / "s" / "category_offsets.npy").tolist() == [0, 0, 2, 2, 3, 3]
        _, loaded_cats = load_corpus(tmp_path / "s")
        assert category_items(loaded_cats) == category_items(cats)
        store_corpus(corpus, CategoryIndex.from_mapping({}), tmp_path / "none")
        _, loaded_cats = load_corpus(tmp_path / "none")
        assert category_items(loaded_cats) == []

    @pytest.mark.parametrize("name", STORE_FILES)
    def test_missing_store_file_named_in_error(self, tmp_path, name):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        (tmp_path / "s" / name).unlink()
        with pytest.raises(CorpusFormatError, match=f"missing .*{re.escape(name)}"):
            load_corpus(tmp_path / "s")

    @pytest.mark.parametrize(
        "name, damage",
        [
            pytest.param("doc_ids.npy", lambda path: path.write_bytes(path.read_bytes()[:-8]), id="truncated"),
            pytest.param("offsets.npy", lambda path: path.write_bytes(b"not an array"), id="not-npy"),
            pytest.param("slots.npy", lambda path: np.save(path, np.array([{}], dtype=object)), id="pickled"),
            pytest.param("slots.npy", lambda path: np.save(path, np.zeros(9)), id="float"),
            pytest.param("offsets.npy", lambda path: np.save(path, np.zeros((5, 1), dtype=np.int64)), id="2-d"),
            pytest.param("manifest.json", lambda path: path.write_text("{not json"), id="manifest"),
            pytest.param("titles.txt", lambda path: path.write_bytes(b"One\nTwo\n\xff\nTen\n"), id="not-utf-8"),
            pytest.param("titles.txt", lambda path: path.write_text("One\nTwo\nSeven & co\nTen"), id="no-newline"),
            pytest.param("categories.txt", lambda path: path.write_bytes(b"Other\n\xff\n"), id="names-not-utf-8"),
            pytest.param("category_offsets.npy", lambda path: np.save(path, np.zeros(3)), id="float-offsets"),
            pytest.param(
                "category_members.npy", lambda path: path.write_bytes(path.read_bytes()[:-8]), id="truncated-members"
            ),
        ],
    )
    def test_store_file_that_does_not_parse_is_named(self, tmp_path, name, damage):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        damage(tmp_path / "s" / name)
        with pytest.raises(CorpusFormatError, match=f"corrupt store file .*{re.escape(name)}"):
            load_corpus(tmp_path / "s")

    @pytest.mark.parametrize("offsets", [[1, 3, 6, 8, 12], [0, 3, 3, 8, 12], [0, 6, 3, 8, 12], [0, 3, 6, 8, 11]])
    def test_offsets_start_at_zero_increase_and_end_at_the_slot_count(self, tmp_path, offsets):
        self._check_rejects(tmp_path, "offsets.npy", np.array(offsets, dtype=np.int64), "offsets")

    def test_slots_stay_within_the_vocabulary(self, tmp_path):
        slots = [0, 2, 3, 0, 3, 5, 0, 6, 0, 1, 2, 4]  # the vocabulary has 5 tokens
        self._check_rejects(tmp_path, "slots.npy", np.array(slots, dtype=np.int32), "past the last token")

    @pytest.mark.parametrize(
        "slots",
        [[0, 3, 2, 0, 3, 5, 0, 4, 0, 1, 2, 4], [0, 2, 2, 0, 3, 5, 0, 4, 0, 1, 2, 4], [1, 2, 3, 0, 3, 5, 0, 4, 0, 1, 2, 4]],
    )
    def test_each_row_is_the_prior_slot_then_ascending_token_slots(self, tmp_path, slots):
        self._check_rejects(tmp_path, "slots.npy", np.array(slots, dtype=np.int32), "not 0, then ascending")

    @pytest.mark.parametrize("ids", [[1, 2, 10, 7], [1, 2, 2, 10]])
    def test_ids_ascend_and_are_unique(self, tmp_path, ids):
        self._check_rejects(tmp_path, "doc_ids.npy", np.array(ids, dtype=np.int64), "ascending and unique")

    # the toy store's categories hold [1, 10] and [2]: offsets [0, 2, 3]
    @pytest.mark.parametrize(
        "offsets",
        [
            pytest.param([1, 2, 3], id="start"),
            pytest.param([0, 4, 3], id="down"),
            pytest.param([0, 2, 2], id="end"),
            pytest.param([0, 1, 2, 3], id="too-long"),
            pytest.param([0, 3], id="too-short"),
        ],
    )
    def test_category_offsets_start_at_zero_never_decrease_and_end_at_the_member_count(self, tmp_path, offsets):
        array = np.array(offsets, dtype=np.int64)
        self._check_rejects(tmp_path, "category_offsets.npy", array, "ending at the member count")

    @pytest.mark.parametrize("members", [[10, 1, 2], [1, 1, 2]])
    def test_each_category_row_ascends_and_is_unique(self, tmp_path, members):
        self._check_rejects(tmp_path, "category_members.npy", np.array(members, dtype=np.int64), "ascending and unique")

    @pytest.mark.parametrize("names", ["Other\nFancy/Category Name\n", "Other\nOther\n"])
    def test_category_names_ascend_and_are_unique(self, tmp_path, names):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        (tmp_path / "s" / "categories.txt").write_text(names)
        with pytest.raises(CorpusFormatError, match="categories.txt: names are not ascending and unique"):
            load_corpus(tmp_path / "s")

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("titles.txt", lambda path: path.write_text("One\nTwo\nSeven & co\n")),
            ("doc_ids.npy", lambda path: np.save(path, np.array([1, 2, 7, 10, 11], dtype=np.int64))),
            ("offsets.npy", lambda path: np.save(path, np.array([0, 3, 6, 12], dtype=np.int64))),
            ("doc_ids.npy", lambda path: path.with_name("manifest.json").write_text('{"format_version": 3, "doc_count": 5}')),
        ],
    )
    def test_row_counts_agree_with_each_other_and_the_manifest(self, tmp_path, name, damage):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        damage(tmp_path / "s" / name)
        with pytest.raises(CorpusFormatError, match=f"{re.escape(name)}: .* rows, not the manifest's doc_count"):
            load_corpus(tmp_path / "s")

    def test_a_bad_row_first_or_last_in_its_block_is_rejected(self, tmp_path, monkeypatch):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        rows = [[0, 2, 3], [0, 3, 5], [0, 4], [0, 1, 2, 4]]  # 12 slots; the vocabulary has 5 tokens
        damages = [
            (lambda row: [*row[:-2], row[-1], row[-2]], "not 0, then ascending"),
            (lambda row: [*row[:-1], row[-2]], "not 0, then ascending"),
            (lambda row: [1, *row[1:]], "not 0, then ascending"),
            (lambda row: [*row[:-1], 6], "past the last token"),
        ]
        edges = set()
        for budget in range(1, 13):
            monkeypatch.setattr(corpus_module, "_BLOCK_SLOTS", budget)
            for a, b in corpus.row_blocks():
                if b - a > 1:
                    edges |= {(a, "first"), (b - 1, "last")}
            for bad in range(len(rows)):
                for damage, problem in damages:
                    slots = [slot for i, row in enumerate(rows) for slot in (damage(row) if i == bad else row)]
                    np.save(tmp_path / "s" / "slots.npy", np.array(slots, dtype=np.int32))
                    with pytest.raises(CorpusFormatError, match=f"slots.npy: .*{problem}"):
                        load_corpus(tmp_path / "s")
        # every row has been the first or the last of a block of several rows, and the inner rows both
        assert edges == {(0, "first"), (1, "first"), (1, "last"), (2, "first"), (2, "last"), (3, "last")}

    def test_load_peak_beyond_the_slots_is_flat_in_the_slots_per_row(self, tmp_path):
        def peak_over_slots(row_length):
            corpus, cats = seeded_rows_corpus(2000, row_length, vocab_size=40_000)
            store_corpus(corpus, cats, tmp_path / str(row_length))
            return peak_bytes(load_corpus, tmp_path / str(row_length)) - corpus.slots.nbytes

        small, large = peak_over_slots(100), peak_over_slots(400)
        # np.diff of every slot and its mask would add 5 bytes for each of the 600,000 more slots
        assert large < small + 500_000

    def test_vocabulary_ascends(self, tmp_path):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        (tmp_path / "s" / "vocabulary.txt").write_text("2.0\nalpha\ndelta\nbeta\ngamma\n")
        with pytest.raises(CorpusFormatError, match="vocabulary.txt: tokens are not ascending"):
            load_corpus(tmp_path / "s")

    @staticmethod
    def _check_rejects(tmp_path, name, array, problem):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        np.save(tmp_path / "s" / name, array)
        with pytest.raises(CorpusFormatError, match=f"corrupt store file .*{re.escape(name)}: .*{problem}"):
            load_corpus(tmp_path / "s")

    @pytest.mark.parametrize("version", [1, 2, 4, "3", None])
    def test_other_format_versions_ask_for_a_re_ingest(self, tmp_path, version):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        (tmp_path / "s" / "manifest.json").write_text(json.dumps({"format_version": version, "doc_count": 4}))
        with pytest.raises(CorpusFormatError, match=f"store format {re.escape(repr(version))}, not 3: re-ingest"):
            load_corpus(tmp_path / "s")

    @pytest.mark.parametrize("token", ["", "a b", "a\nb", "tab\t", "\u2028"])
    def test_store_rejects_a_token_that_is_empty_or_holds_whitespace(self, tmp_path, token):
        docs = [Document(1, "One", frozenset({"alpha"})), Document(2, "T", frozenset({token, "c"}))]
        with pytest.raises(CorpusFormatError, match=f"document 2: token {re.escape(repr(token))}"):
            store_corpus(from_documents(docs), CategoryIndex.from_mapping({}), tmp_path / "s")
        # first held by the first of three rows, so a row found one off names another id
        docs = [
            Document(3, "F", frozenset({"a", token})),
            Document(5, "G", frozenset({token})),
            Document(7, "H", frozenset({"b"})),
        ]
        with pytest.raises(CorpusFormatError, match=f"document 3: token {re.escape(repr(token))}"):
            store_corpus(from_documents(docs), CategoryIndex.from_mapping({}), tmp_path / "s")
        assert not (tmp_path / "s" / "manifest.json").exists()

    def test_category_ids_validated_on_load(self, tmp_path):
        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        np.save(tmp_path / "s" / "category_members.npy", np.array([1, 999, 2], dtype=np.int64))
        with pytest.raises(ValueError, match="category 'Fancy/Category Name' references unknown document id 999$"):
            load_corpus(tmp_path / "s")

    def test_ingested_fixture_round_trips(self, tmp_path):
        with (DATA / "mini_dump.xml").open("rb") as stream:
            corpus, cats = ingest_wiki_dump(stream)
        store_corpus(corpus, cats, tmp_path / "s")
        loaded, loaded_cats = load_corpus(tmp_path / "s")
        assert document(loaded, 11) == document(corpus, 11)
        assert category_items(loaded_cats) == category_items(cats)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=500),
            st.sets(st.sampled_from("alpha beta gamma delta 2.0 don't".split()), max_size=4),
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_random_corpora(self, tmp_path_factory, mapping):
        docs = [Document(i, f"Doc {i}", frozenset(tokens)) for i, tokens in mapping.items()]
        corpus = from_documents(docs)
        cats = CategoryIndex.from_mapping({"All": list(mapping)} if mapping else {})
        root = tmp_path_factory.mktemp("roundtrip")
        store_corpus(corpus, cats, root)
        loaded, loaded_cats = load_corpus(root)
        assert {d.id: d for d in loaded} == {d.id: d for d in corpus}
        assert category_items(loaded_cats) == category_items(cats)


class TestRowBlocks:
    @pytest.mark.parametrize("budget", [1, 2, 4, 6, 9, 50])
    def test_blocks_are_the_most_whole_rows_within_the_budget(self, monkeypatch, budget):
        monkeypatch.setattr(corpus_module, "_BLOCK_SLOTS", budget)
        lengths = [3, 0, 5, 1, 1, 8, 0, 0, 2, 4]  # tokens per row; a row holds one slot more
        corpus = from_documents(
            Document(i, f"d{i}", frozenset(f"t{j}" for j in range(n))) for i, n in enumerate(lengths)
        )
        blocks = list(corpus.row_blocks())
        assert [a for a, _ in blocks] == [0, *(b for _, b in blocks[:-1])] and blocks[-1][1] == len(lengths)
        for a, b in blocks:
            slots = corpus.offsets[b] - corpus.offsets[a]
            assert slots <= budget or b - a == 1
            assert b == len(lengths) or corpus.offsets[b + 1] - corpus.offsets[a] > budget

    def test_an_empty_corpus_has_no_block(self):
        assert list(from_documents([]).row_blocks()) == []


def _random_rows_corpus(rng):
    """A corpus of 1 to 8 rows of 0 to 7 distinct tokens out of 12, its ids in no order, through ``Corpus.from_rows``."""
    rows = [rng.choice(12, int(rng.integers(0, 8)), replace=False) for _ in range(int(rng.integers(1, 9)))]
    held, ids = np.unique(np.concatenate(rows), return_inverse=True)
    doc_ids = rng.permutation(len(rows)) * 3 + 1
    titles = [f"d{i}" for i in doc_ids.tolist()]
    return Corpus.from_rows([f"w{t}" for t in held.tolist()], doc_ids, titles, [len(row) for row in rows], ids)


def _one_pass(corpus):
    for _ in corpus:
        pass


class TestIteration:
    def test_every_pass_is_the_row_documents_at_every_block_budget(self, monkeypatch):
        rng = np.random.default_rng(0)
        corpora = [
            _toy_corpus()[0],
            from_documents([Document(1, "x", frozenset())]),
            from_documents([Document(1, "x", frozenset()), Document(4, "y", frozenset({"b", "a"}))]),
            *(_random_rows_corpus(rng) for _ in range(30)),
        ]
        expected = [row_documents(corpus) for corpus in corpora]
        longer_rows = multi_row_blocks = 0
        for budget in range(1, 13):
            monkeypatch.setattr(corpus_module, "_BLOCK_SLOTS", budget)
            for corpus, docs in zip(corpora, expected):
                blocks = list(corpus.row_blocks())
                longer_rows += any(corpus.offsets[b] - corpus.offsets[a] > budget for a, b in blocks)
                multi_row_blocks += any(b - a > 1 for a, b in blocks)
                passed = list(corpus)
                assert passed == docs
                assert [sys.getsizeof(doc.tokens) for doc in passed] == [sys.getsizeof(doc.tokens) for doc in docs]
        assert longer_rows and multi_row_blocks

    def test_a_pass_keeps_no_document(self):
        _one_pass(seeded_rows_corpus(10, 50)[0])  # first-call allocations out of the way
        for n_docs in (1000, 4000):
            corpus, _ = seeded_rows_corpus(n_docs, 50)
            # a pass that kept its documents would hold ~2.4 KB a row
            assert retained_bytes(_one_pass, corpus) < 1000

    def test_a_pass_peak_is_flat_in_the_rows(self):
        def pass_peak(n_docs):
            return peak_bytes(_one_pass, seeded_rows_corpus(n_docs, 50)[0])

        pass_peak(10)
        small, large = pass_peak(4000), pass_peak(16_000)
        assert large < small + 500_000


class TestCorpusValidation:
    def test_iteration_ascending_whatever_the_input_order(self):
        docs = [Document(i, f"d{i}", frozenset()) for i in (40, 3, 11, 90, 7)]
        corpus = from_documents(docs)
        assert corpus.doc_ids.tolist() == [3, 7, 11, 40, 90]
        assert [doc.id for doc in corpus] == [3, 7, 11, 40, 90]

    def test_duplicate_ids_rejected(self):
        docs = [Document(1, "a", frozenset()), Document(1, "b", frozenset())]
        with pytest.raises(ValueError, match="duplicate"):
            from_documents(docs)

    def test_category_index_validates_ids(self):
        corpus, _ = _toy_corpus()
        bad = CategoryIndex.from_mapping({"X": [42]})
        with pytest.raises(ValueError, match="42"):
            bad.validate_against(corpus)

    def test_unknown_id_is_named_with_its_category(self):
        corpus, _ = _toy_corpus()
        # 42 is the first entry of B's row, which starts where the empty row before it does
        bad = CategoryIndex.from_mapping({"A": [1, 2], "Aside": [], "B": [99, 42], "C": [10]})
        with pytest.raises(ValueError, match="category 'B' references unknown document id 42$"):
            bad.validate_against(corpus)

    def test_corpus_from_documents_builds_each_document_once_for_iteration(self, monkeypatch):
        made = []

        def counted_document(**fields):
            made.append(fields["id"])
            return Document(**fields)

        docs = [Document(i, f"d{i}", frozenset({f"t{i}"})) for i in (40, 3, 11)]
        monkeypatch.setattr(corpus_module, "Document", counted_document)
        monkeypatch.setattr(oracles, "Document", counted_document)
        corpus = from_documents(docs)
        assert made == []
        assert list(corpus) == [docs[1], docs[2], docs[0]]
        assert made == [3, 11, 40]
        assert [doc.id for doc in corpus] == [3, 11, 40]
        assert made == [3, 11, 40] * 2  # none is kept, so a second pass builds them all again
        assert document(corpus, 40) == docs[0] and 11 in corpus and 12 not in corpus
        assert made == [3, 11, 40] * 2 + [40]  # a lookup builds only its own row's

    def test_loaded_corpus_builds_a_document_only_when_asked(self, tmp_path, monkeypatch):
        made = []

        def counted_document(**fields):
            made.append(fields["id"])
            return Document(**fields)

        corpus, cats = _toy_corpus()
        store_corpus(corpus, cats, tmp_path / "s")
        monkeypatch.setattr(corpus_module, "Document", counted_document)
        monkeypatch.setattr(oracles, "Document", counted_document)
        loaded, _ = load_corpus(tmp_path / "s")
        assert loaded.doc_ids.tolist() == [1, 2, 7, 10] and 7 in loaded and 8 not in loaded
        assert made == []
        assert document(loaded, 7) == Document(7, "Seven & co", frozenset({"delta"}))
        assert made == [7]  # a lookup builds only its own row's
        assert [doc.id for doc in loaded] == [1, 2, 7, 10]
        assert made == [7, 1, 2, 7, 10]
        assert [doc.id for doc in loaded] == [1, 2, 7, 10]
        assert made == [7] + [1, 2, 7, 10] * 2  # none is kept, so a second pass builds them all again
