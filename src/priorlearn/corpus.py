"""Corpus ingestion and storage.

A document is a stable integer id, a title and a deduplicated set of
lowercase tokens. A :class:`Corpus` is the columns its store holds on
disk: titles, vocabulary, ids and compressed rows of token slots. Every
corpus is built by :meth:`Corpus.from_rows` from rows of token ids: a
MediaWiki XML export is ingested straight into such rows, with no
per-page :class:`Document`; documents are built only to iterate a corpus.
Category membership is kept separately in a :class:`CategoryIndex` of the
ids of each category's *direct* members only. It too is the columns its
store holds: the names ascending, and one row of member ids per name.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
import string
import unicodedata
import xml.etree.ElementTree as ET
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

import numpy as np

#: Slots per block of rows (:meth:`Corpus.row_blocks`): iteration, ranking and the store's checks go a block at a time.
_BLOCK_SLOTS = 1 << 16

__all__ = [
    "Document",
    "Corpus",
    "CategoryIndex",
    "IngestError",
    "CorpusFormatError",
    "tokenize",
    "ingest_wiki_dump",
    "store_corpus",
    "load_corpus",
]


class IngestError(Exception):
    """Raised when a raw document source cannot be parsed."""


class CorpusFormatError(Exception):
    """Raised when a stored corpus is missing or corrupt."""


_ASCII_PUNCT = set(string.punctuation)


def _is_punct(ch: str) -> bool:
    return ch in _ASCII_PUNCT or unicodedata.category(ch).startswith("P")


def _strip_punct(piece: str) -> str:
    start, end = 0, len(piece)
    while start < end and _is_punct(piece[start]):
        start += 1
    while end > start and _is_punct(piece[end - 1]):
        end -= 1
    return piece[start:end]


class _PieceIds(dict):
    """Whitespace piece -> token id (``None`` if all punctuation); called on a text, its ids.

    Ids follow first sight, and ``tokens[i]`` is token ``i``, held once.
    Pays only when pieces repeat: every distinct piece is held until the memo is dropped.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, piece: str) -> int | None:
        # every ASCII punctuation character is in string.punctuation, so
        # only a non-ASCII boundary character needs the per-character scan
        token = piece.strip(string.punctuation)
        if token and not (token[0].isascii() and token[-1].isascii()):
            token = _strip_punct(token)
        token = token.lower()
        if token == piece:  # held once, as key and token
            token_id = len(self.tokens)
            self.tokens.append(piece)
        else:  # a token is its own token, so its key serves every piece folding to it
            token_id = self[token] if token else None
        self[piece] = token_id
        return token_id

    def __call__(self, text: str) -> set[int]:
        ids = set(map(self.__getitem__, text.split()))
        ids.discard(None)
        return ids


def _index(ordered: Sequence[Any], item: Any) -> int:
    """The position of ``item`` in the ascending ``ordered``, or -1 if it is absent."""
    i = bisect.bisect_left(ordered, item)
    return i if i < len(ordered) and ordered[i] == item else -1


def tokenize(text: str) -> frozenset[str]:
    """Split ``text`` into its set of normalized tokens.

    Pieces are split on whitespace; leading and trailing punctuation
    (``string.punctuation`` and every Unicode ``P*`` character) is
    stripped from each piece (interior punctuation survives, so ``2.0``
    and ``don't`` stay intact); everything is lowercased; pieces that
    become empty are dropped. The result is a frozenset of tokens, each
    once regardless of frequency. No stemming or lemmatization.
    """
    piece_ids = _PieceIds()
    return frozenset(map(piece_ids.tokens.__getitem__, piece_ids(text)))


@dataclass(frozen=True)
class Document:
    """One normalized document: stable id, title, Boolean token set."""

    id: int
    title: str
    tokens: frozenset[str]


@dataclass(frozen=True, eq=False)
class Corpus:
    """An immutable collection of documents in ascending id order, as the store's columns.

    Row ``i`` is document ``doc_ids[i]`` (ids ascending), titled
    ``titles[i]``; its tokens are ``slots[offsets[i]:offsets[i + 1]]``,
    slot 0, which stands for the class prior, then the slots of its tokens
    in ascending order. Token ``vocabulary[s - 1]`` has slot ``s``, and the
    vocabulary follows Python ``str`` order, the order :func:`sorted` gives
    a token set. Every producer builds the corpus through
    :meth:`from_rows`; a :class:`Document` is built only for iteration,
    on each pass, a block of rows at a time, and kept by nobody but the
    caller. The corpus is safe to share read-only across any number of
    workers.
    """

    titles: tuple[str, ...] = field(repr=False)
    vocabulary: tuple[str, ...] = field(repr=False)
    doc_ids: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)

    @classmethod
    def from_rows(cls, tokens: list[str], doc_ids: Any, titles: list[str], lengths: Any, ids: Any) -> "Corpus":
        """The corpus of rows of distinct token ids, in any order.

        Row ``i``, document ``doc_ids[i]`` titled ``titles[i]``, holds the
        next ``lengths[i]`` entries of ``ids``; ``tokens[t]`` is token
        ``t``, in any order, and every token is held by some row. The
        three integer columns may be any sequences numpy takes as arrays.
        Raises ``ValueError`` naming a repeated document id.
        """
        doc_ids, lengths = (np.asarray(column, dtype=np.int64) for column in (doc_ids, lengths))
        ids = np.asarray(ids)
        order = np.argsort(doc_ids, kind="stable")
        ordered = doc_ids[order]
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate document id {repeated[0]}")
        token_order = sorted(range(len(tokens)), key=tokens.__getitem__)
        slot_by_id = np.empty(len(tokens), dtype=np.int64)
        slot_by_id[token_order] = np.arange(1, len(tokens) + 1)
        width = len(tokens) + 1
        row_of = np.empty_like(order)
        row_of[order] = np.arange(len(order))
        # one sort of row * width + slot puts each row's prior slot first,
        # then its token slots ascending
        keys = np.concatenate((np.arange(len(order)) * width, slot_by_id[ids]))
        keys[len(order):] += np.repeat(row_of * width, lengths)
        keys.sort()
        offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(lengths[order] + 1, out=offsets[1:])
        np.remainder(keys, width, out=keys)
        return cls(
            tuple(map(titles.__getitem__, order.tolist())),
            tuple(map(tokens.__getitem__, token_order)),
            ordered,
            offsets,
            keys.astype(np.int32),
        )

    @property
    def doc_count(self) -> int:
        return len(self.titles)

    def __contains__(self, doc_id: int) -> bool:
        return _index(self.doc_ids, doc_id) >= 0

    def __iter__(self) -> Iterator[Document]:
        """Iterate documents in ascending id order, built a block of rows (:meth:`row_blocks`) at a time."""
        for a, b in self.row_blocks():
            slots = self.slots[self.offsets[a] : self.offsets[b]]
            # row a + i is tokens[bounds[i]:bounds[i + 1]]: tokens drops the slot 0 that begins each row
            bounds = (self.offsets[a : b + 1] - self.offsets[a] - np.arange(b - a + 1)).tolist()
            tokens = list(map(self.vocabulary.__getitem__, (slots[slots > 0] - 1).tolist()))
            for doc_id, title, start, end in zip(self.doc_ids[a:b].tolist(), self.titles[a:b], bounds, bounds[1:]):
                # from a set: a frozenset built from a list can size its hash table larger
                yield Document(id=doc_id, title=title, tokens=frozenset(set(tokens[start:end])))

    def slot(self, token: str) -> int:
        """The slot of ``token``, or 0 if no document holds it."""
        return _index(self.vocabulary, token) + 1

    def row_blocks(self) -> Iterator[tuple[int, int]]:
        """The rows in blocks ``[a, b)``, in order: the most whole rows from ``a`` whose slots fit ``_BLOCK_SLOTS``.

        A row longer than the budget is a block of its own. A pass over
        ``slots`` one block at a time holds temporaries of one block, not of
        the whole array.
        """
        a, rows = 0, len(self.offsets) - 1
        while a < rows:
            # the last row end at most the budget past row a's start, or else a's own end
            b = max(a + 1, int(np.searchsorted(self.offsets, self.offsets[a] + _BLOCK_SLOTS, side="right")) - 1)
            yield a, b
            a = b

    def token_rows(self, doc_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The token slots of the given documents, without slot 0, as compressed rows.

        Returns ``(slots, offsets)``: the row of ``doc_ids[i]`` is
        ``slots[offsets[i]:offsets[i + 1]]``. Raises ``ValueError`` naming
        the ids that are not in the corpus.
        """
        ids = np.array(doc_ids, dtype=np.int64)
        absent = ~np.isin(ids, self.doc_ids)
        if absent.any():
            raise ValueError(f"documents not in the corpus index: {sorted(set(ids[absent].tolist()))}")
        rows = np.searchsorted(self.doc_ids, ids)
        starts = self.offsets[rows] + 1
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        take = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return self.slots[take], offsets


@dataclass(frozen=True, eq=False)
class CategoryIndex:
    """Category name -> ids of documents tagged with it directly, as the store's columns.

    Category ``i`` is ``names[i]``, names ascending, and its member ids are
    ``member_ids[offsets[i]:offsets[i + 1]]``, ascending and unique; :meth:`members` gives them as a set.
    Membership through subcategories is deliberately *not* folded in;
    subcategory trees are too unreliable to trust for training data.
    """

    names: tuple[str, ...] = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    member_ids: np.ndarray = field(repr=False)

    @classmethod
    def from_mapping(cls, mapping: dict[str, Iterable[int]]) -> "CategoryIndex":
        names = tuple(sorted(mapping))
        rows = [sorted(set(mapping[name])) for name in names]
        offsets = np.cumsum([0, *map(len, rows)], dtype=np.int64)
        return cls(names, offsets, np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=offsets[-1]))

    def __contains__(self, name: str) -> bool:
        return _index(self.names, name) >= 0

    def row(self, name: str) -> np.ndarray:
        """The member ids of ``name``, ascending: its slice of ``member_ids``."""
        i = _index(self.names, name)
        if i < 0:
            raise KeyError(f"unknown category {name!r}")
        return self.member_ids[self.offsets[i] : self.offsets[i + 1]]

    def members(self, name: str) -> frozenset[int]:
        return frozenset(self.row(name).tolist())

    def validate_against(self, corpus: Corpus) -> None:
        """Check that every referenced id resolves to a stored document."""
        unknown = np.flatnonzero(~np.isin(self.member_ids, corpus.doc_ids))
        if unknown.size:
            # the last row starting at or before the entry: an empty row starts where the next does
            name = self.names[np.searchsorted(self.offsets, unknown[0], side="right") - 1]
            raise ValueError(f"category {name!r} references unknown document id {self.member_ids[unknown[0]]}")


# --- MediaWiki dump ingestion ------------------------------------------------

#: An HTML comment, which MediaWiki drops before it reads any markup; one left open runs to the end.
_COMMENT_RE = re.compile(r"<!--.*?(?:-->|\Z)", re.DOTALL)
#: A category link, all on one line as a title holds no newline: its name, then the rest through its ``]]``, if any.
_CATEGORY_LINK = r"\[\[[^\S\n]*Category[^\S\n]*:[^\S\n]*([^\]|#\n]+)[^\[\]\n]*(?:\]\])?"
_CATEGORY_RE = re.compile(_CATEGORY_LINK, re.IGNORECASE)
#: A closed ``<nowiki>`` span or a ``<nowiki/>``, which MediaWiki renders as no markup, or else a category link.
#: Searched only where a ``<`` occurs, as it takes ~3x the time of the bare link.
_NOWIKI_OR_CATEGORY_RE = re.compile(rf"<nowiki>.*?</nowiki>|<nowiki\s*/>|{_CATEGORY_LINK}", re.IGNORECASE | re.DOTALL)
_HEADING_RE = re.compile(r"^\s*=+\s*(.*?)\s*=+\s*$")
#: The line breaks of ``str.splitlines``; it also takes ``\r\n`` as one.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BREAK_RE = re.compile(f"\r\n|[{_BREAKS}]")
_REDIRECT_RE = re.compile(r"^\s*#REDIRECT", re.IGNORECASE)
_DISAMBIG_RE = re.compile(r"\{\{\s*(disambiguation|disambig|dab)\s*[|}]", re.IGNORECASE)


def _normalize_title(raw: str) -> str:
    return " ".join(raw.split())


def _normalize_category(raw: str) -> str:
    return " ".join(raw.replace("_", " ").split())


def _uncommented(text: str) -> str:
    return _COMMENT_RE.sub("", text) if "<!--" in text else text


def _links(text: str) -> re.Pattern:
    """The pattern of the category links in ``text``, and of the nowiki spans that hide some."""
    return _NOWIKI_OR_CATEGORY_RE if "<" in text else _CATEGORY_RE


def extract_categories(text: str) -> list[str]:
    """Category names linked from wikitext, normalized, in order of appearance.

    A link in an HTML comment or a ``<nowiki>`` span is none, as MediaWiki renders neither.
    """
    seen = []
    text = _uncommented(text)
    for match in _links(text).finditer(text):
        if match.group(1) is None:  # a nowiki span
            continue
        name = _normalize_category(match.group(1))
        if name and name not in seen:
            seen.append(name)
    return seen


def truncate_at_references(text: str) -> str:
    """Drop the first heading titled "references" and everything after it.

    The match is case-insensitive on the heading title with surrounding
    ``=`` markers and whitespace ignored. Articles without such a heading
    are kept whole. Lines end where :meth:`str.splitlines` ends them.
    """
    heading = text.find("=")
    while heading >= 0:
        start = heading  # the line's start, if only whitespace comes before the ``=`` on it
        while start and text[start - 1].isspace() and text[start - 1] not in _BREAKS:
            start -= 1
        if start and text[start - 1] not in _BREAKS:
            heading = text.find("=", heading + 1)
            continue
        line_break = _BREAK_RE.search(text, heading)
        end = line_break.end() if line_break else len(text)
        m = _HEADING_RE.match(text[start:end])
        if m and m.group(1).strip().lower() == "references":
            return text[:start]
        heading = text.find("=", end)
    return text


#: Kept bodies sent to the tokenizer worker in one message.
_BATCH_PAGES = 256


def ingest_wiki_dump(
    stream: IO[bytes],
    min_bytes: int = 300,
    skipped: Counter | None = None,
) -> tuple[Corpus, CategoryIndex]:
    """Ingest a MediaWiki pages XML export into a corpus and category index.

    Elements are matched in the root element's namespace, as real exports
    use one default namespace (or none): a page or field tagged in any
    other namespace is not read. Only article pages (namespace 0) are kept,
    each at its last revision; redirects and pages carrying a
    disambiguation template are skipped. HTML comments and ``<nowiki>``
    spans are cut from the wikitext, as MediaWiki renders neither.
    Category links are extracted from the rest; the body is cut at
    its "References" heading, cleared of the category links left in it and
    tokenized as by :func:`tokenize`, each distinct whitespace piece of the
    dump once. Articles whose body, so cut and cleared, is shorter than
    ``min_bytes`` (UTF-8 bytes) are excluded. Each page is dropped once
    processed, and only its id, title and token ids are kept, as one row
    of the corpus; no :class:`Document` is built.

    The bodies are tokenized in one worker process, forked (so this needs
    Linux or macOS), in dump order while this process reads on; the
    worker has ended by the time this returns or raises.

    ``skipped``, when given, is filled with per-reason skip counts
    (``namespace:N``, ``redirect``, ``disambiguation``,
    ``below_min_bytes``, ``incomplete_page``).

    Raises :class:`IngestError` on malformed XML, naming its line and
    column, or on a page id that is not a 64-bit integer, naming the page,
    ``ValueError`` naming a page id kept twice, and ``RuntimeError``
    naming the exit code of a worker that ended early.
    """
    import multiprocessing  # ~25 ms: of the commands, only ingest pays for it

    if skipped is None:
        skipped = Counter()
    doc_ids, titles, batch = array("q"), [], []
    categories: dict[str, set[int]] = {}
    # fork: spawn and forkserver import numpy again in the worker, 150-370 ms
    # against 5-12 ms. Forking after numpy's BLAS has started a thread is
    # safe here, as the worker runs pure-Python tokenization alone: it takes
    # no lock and calls no BLAS.
    context = multiprocessing.get_context("fork")
    to_worker, to_parent = context.Pipe()
    worker = context.Process(target=_tokenize_bodies, args=(to_parent, to_worker))
    worker.start()
    to_parent.close()
    try:
        events = ET.iterparse(stream, events=("start", "end"))
        _, root = next(events)
        ns = root.tag[: root.tag.find("}") + 1]  # "{uri}", or "" with no namespace
        page = ns + "page"
        for event, elem in events:
            if event == "end" and elem.tag == page:
                kept = _ingest_page(elem, ns, min_bytes, categories, skipped)
                elem.clear()
                root.clear()  # a cleared page would otherwise stay on as the root's child
                if kept is not None:
                    doc_id, title, body = kept
                    doc_ids.append(doc_id)
                    titles.append(title)
                    batch.append(body)
                    if len(batch) == _BATCH_PAGES:
                        _exchange(worker, to_worker.send, batch)  # blocks while the worker is a batch behind
                        batch = []
        _exchange(worker, to_worker.send, batch)
        _exchange(worker, to_worker.send, None)
        tokens, lengths, ids = _exchange(worker, to_worker.recv)
    except ET.ParseError as exc:
        raise IngestError(f"malformed XML: {exc}") from exc
    finally:
        worker.kill()
        worker.join()
        to_worker.close()

    corpus = Corpus.from_rows(tokens, doc_ids, titles, lengths, ids)
    # a page's categories are recorded only once it is kept, so every member id is a row
    return corpus, CategoryIndex.from_mapping(categories)


def _tokenize_bodies(to_parent: Any, to_worker: Any) -> None:
    """The tokenizer worker: each body's token ids, in order, until ``None``; then ``(tokens, lengths, ids)`` back.

    The memo of pieces lives here, so token ids follow first sight as one
    process would give them.
    """
    # the parent's end, forked here too: held open, the parent's death would
    # never read as the end of the pipe, and this worker would wait forever
    to_worker.close()
    piece_ids = _PieceIds()
    lengths, ids = array("q"), array("i")
    try:
        for batch in iter(to_parent.recv, None):
            for body in batch:
                row = piece_ids(body)
                lengths.append(len(row))
                ids.extend(row)
        tokens = piece_ids.tokens
        piece_ids.clear()  # free the pieces before pickling the reply: most of the memory on a dump of distinct pieces
        to_parent.send((tokens, lengths, ids))
    except (EOFError, ConnectionError, KeyboardInterrupt):
        pass  # the parent has ended, or was interrupted and ends this worker


def _exchange(worker: Any, call: Callable, *args: Any) -> Any:
    """``call(*args)``, a send or receive on the pipe to ``worker``; a broken pipe raises naming its exit code."""
    try:
        return call(*args)
    except (EOFError, ConnectionError):
        worker.join()  # the worker's end closes only as it exits
        raise RuntimeError(f"the tokenizer worker exited with code {worker.exitcode}") from None


def _ingest_page(
    page: ET.Element,
    ns: str,
    min_bytes: int,
    categories: dict[str, set[int]],
    skipped: Counter,
) -> tuple[int, str, str] | None:
    """The id, title and retained body of a page to keep, its categories recorded; else ``None``, its skip counted."""
    namespace = (page.findtext(ns + "ns") or "0").strip()
    if namespace != "0":
        skipped[f"namespace:{namespace}"] += 1
        return

    revisions = page.findall(ns + "revision")  # oldest first
    text = (revisions[-1].findtext(ns + "text") or "") if revisions else ""
    if page.find(ns + "redirect") is not None or _REDIRECT_RE.match(text):
        skipped["redirect"] += 1
        return
    text = _uncommented(text)  # a commented-out template renders as nothing
    if _DISAMBIG_RE.search(text):
        skipped["disambiguation"] += 1
        return

    raw_id, raw_title = page.findtext(ns + "id"), page.findtext(ns + "title")
    if not raw_id or not raw_title:
        skipped["incomplete_page"] += 1
        return
    title = _normalize_title(raw_title)
    try:
        doc_id = int(raw_id)
        if not -(2**63) <= doc_id < 2**63:  # the store's ids are read back as int64
            raise ValueError
    except ValueError:
        raise IngestError(f"page {title!r}: id {raw_id!r} is not a 64-bit integer") from None

    page_categories = extract_categories(text)
    # a category link would leak the label; a nowiki span goes with the links
    body = _links(text).sub("", truncate_at_references(text))
    if len(body) < min_bytes and len(body.encode("utf-8")) < min_bytes:  # a character is at least one byte
        skipped["below_min_bytes"] += 1
        return

    for name in page_categories:
        categories.setdefault(name, set()).add(doc_id)
    return doc_id, title, body


# --- On-disk store ------------------------------------------------------------

_FORMAT_VERSION = 3
#: The store files holding the :class:`Corpus` arrays and the category rows, with their dtypes.
_ARRAYS = {
    "doc_ids.npy": np.int64,
    "offsets.npy": np.int64,
    "slots.npy": np.int32,
    "category_offsets.npy": np.int64,
    "category_members.npy": np.int64,
}
#: The store files of ``\n``-ended lines: each slot's token from slot 1, each row's title, each category's name.
_LINES = ("vocabulary.txt", "titles.txt", "categories.txt")


def store_corpus(corpus: Corpus, categories: CategoryIndex, path: str | Path) -> None:
    """Write a corpus and its category index under ``path``.

    Layout (format 3): ``manifest.json`` with the document count; the
    :class:`Corpus` arrays as ``doc_ids.npy``, ``offsets.npy`` and
    ``slots.npy``; ``vocabulary.txt`` (line ``s`` holds slot ``s``'s token)
    and ``titles.txt`` (one line per row); ``categories.txt``, the category
    names ascending, one line each; and the categories' rows of member ids,
    each ascending, as ``category_members.npy``, category ``i`` holding
    ``category_members[category_offsets[i]:category_offsets[i + 1]]`` of
    ``category_offsets.npy``. Every line is ended by ``\\n``. The store is
    these nine files, however many categories there are. Storing the same
    corpus twice yields identical bytes. The manifest of an earlier store
    under ``path``, and a format-1 store's shards and a format-2 store's
    category files, are deleted first (with their directories, if that
    empties them), other files there are left alone, and the manifest is
    written last: a store that fails part-way does not load. A title or
    category name holding ``\\n``, or a token that is empty or holds
    whitespace, raises :class:`CorpusFormatError`.
    """
    for doc_id, title in zip(corpus.doc_ids.tolist(), corpus.titles):
        if "\n" in title:
            raise CorpusFormatError(f"document {doc_id}: title contains a newline")
    for name in categories.names:
        if "\n" in name:
            raise CorpusFormatError(f"category {name!r}: name contains a newline")
    for slot, token in enumerate(corpus.vocabulary, 1):
        if token.split() != [token]:
            # the last row starting at or before the token's first entry
            row = np.searchsorted(corpus.offsets, np.flatnonzero(corpus.slots == slot)[0], side="right") - 1
            raise CorpusFormatError(f"document {corpus.doc_ids[row]}: token {token!r} is empty or has whitespace")

    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").unlink(missing_ok=True)
    # an earlier format's files: format 1's shards, format 2's category files
    for directory, pattern in (("shards", "shard-*.tsv"), ("categories", "*.txt")):
        for stale in (root / directory).glob(pattern):
            stale.unlink()
        if (root / directory).is_dir() and not any((root / directory).iterdir()):
            (root / directory).rmdir()

    arrays = (corpus.doc_ids, corpus.offsets, corpus.slots, categories.offsets, categories.member_ids)
    for name, array in zip(_ARRAYS, arrays):
        np.save(root / name, array)
    for name, lines in zip(_LINES, (corpus.vocabulary, corpus.titles, categories.names)):
        (root / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")

    manifest = {"format_version": _FORMAT_VERSION, "doc_count": corpus.doc_count}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _read(path: Path, parse: Callable[[IO[bytes]], Any]) -> Any:
    """``parse`` of the open store file ``path``; the error names a file that is missing or does not parse."""
    try:
        with path.open("rb") as stream:
            return parse(stream)
    except FileNotFoundError:
        raise CorpusFormatError(f"missing {path.stem}: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise CorpusFormatError(f"corrupt store file {path}: {exc}") from None


def _lines(stream: IO[bytes]) -> list[str]:
    """The ``\\n``-ended lines of ``stream``, split on ``\\n`` alone, as a title may hold other line breaks."""
    *lines, tail = stream.read().decode("utf-8").split("\n")
    if tail:
        raise ValueError("its last line has no newline")
    return lines


def load_corpus(path: str | Path) -> tuple[Corpus, CategoryIndex]:
    """Load a corpus stored by :func:`store_corpus`: its columns and categories.

    Raises :class:`CorpusFormatError` naming the store file that is
    missing, does not parse or disagrees with the rest (a store of another
    format than 3 is ingested again), and ``ValueError`` naming a category
    and a member id that is not a stored document.
    """
    root = Path(path)

    def check(name: str, ok: bool, problem: str) -> None:
        if not ok:
            raise CorpusFormatError(f"corrupt store file {root / name}: {problem}")

    manifest = _read(root / "manifest.json", json.load)
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != _FORMAT_VERSION:
        raise CorpusFormatError(f"{root} holds store format {version!r}, not {_FORMAT_VERSION}: re-ingest the dump")
    arrays = [_read(root / name, partial(np.load, allow_pickle=False)) for name in _ARRAYS]
    for (name, dtype), array in zip(_ARRAYS.items(), arrays):
        check(name, isinstance(array, np.ndarray) and array.dtype == dtype and array.ndim == 1, "wrong dtype")
    doc_ids, offsets, slots, category_offsets, category_members = arrays
    vocabulary, titles, names = (_read(root / name, _lines) for name in _LINES)

    rows = {"doc_ids.npy": len(doc_ids), "offsets.npy": len(offsets) - 1, "titles.txt": len(titles)}
    for name, count in rows.items():
        check(name, count == manifest.get("doc_count"), f"{count} rows, not the manifest's doc_count")
    check("offsets.npy", offsets[0] == 0 and offsets[-1] == len(slots) and (np.diff(offsets) > 0).all(),
          "offsets do not start at 0, increase strictly and end at the slot count")
    corpus = Corpus(tuple(titles), tuple(vocabulary), doc_ids, offsets, slots)
    for a, b in corpus.row_blocks():
        block, block_offsets = slots[offsets[a] : offsets[b]], offsets[a : b + 1] - offsets[a]
        ascending = np.diff(block) > 0
        ascending[block_offsets[1:-1] - 1] = True  # where one row ends and the next begins
        check("slots.npy", ascending.all() and (block[block_offsets[:-1]] == 0).all(), "a row is not 0, then ascending")
    # a reduction, with no temporary the size of slots
    check("slots.npy", slots.max(initial=0) <= len(vocabulary), "a slot is past the last token's")
    check("doc_ids.npy", (np.diff(doc_ids) > 0).all(), "ids are not ascending and unique")
    check("vocabulary.txt", all(a < b for a, b in zip(vocabulary, vocabulary[1:])), "tokens are not ascending")

    check("categories.txt", all(a < b for a, b in zip(names, names[1:])), "names are not ascending and unique")
    # an empty category is an empty row, so offsets may repeat
    check("category_offsets.npy",
          len(category_offsets) == len(names) + 1 and category_offsets[0] == 0
          and category_offsets[-1] == len(category_members) and (np.diff(category_offsets) >= 0).all(),
          "not one more entry than names, starting at 0, never decreasing and ending at the member count")
    rising = np.diff(category_members) > 0
    ends = category_offsets[1:-1]
    rising[ends[(ends > 0) & (ends < len(category_members))] - 1] = True  # where one row ends and the next begins
    check("category_members.npy", rising.all(), "a category's ids are not ascending and unique")
    categories = CategoryIndex(tuple(names), category_offsets, category_members)
    categories.validate_against(corpus)
    return corpus, categories
