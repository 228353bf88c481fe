"""Corpus ingestion and storage.

Raw document sources (most importantly MediaWiki XML exports) are
normalized into :class:`Document` records: a stable integer id, a title,
and a deduplicated set of lowercase tokens. Documents live in a sharded
:class:`Corpus`; category membership is kept separately in a
:class:`CategoryIndex` that maps a category name to the ids of its
*direct* members only.
"""

from __future__ import annotations

import itertools
import json
import re
import string
import sys
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator
from urllib.parse import quote, unquote

import numpy as np

__all__ = [
    "Document",
    "Corpus",
    "TokenIndex",
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


class _PieceTokens(dict):
    """Whitespace piece -> interned token (``""`` if all punctuation); called on a text, its tokens.

    Pays only when pieces repeat: every distinct piece is held until the memo is dropped.
    """

    def __missing__(self, piece: str) -> str:
        # every ASCII punctuation character is in string.punctuation, so
        # only a non-ASCII boundary character needs the per-character scan
        token = piece.strip(string.punctuation)
        if token and not (token[0].isascii() and token[-1].isascii()):
            token = _strip_punct(token)
        token = sys.intern(token.lower())
        self[token if token == piece else piece] = token  # a piece that is its token is held once
        return token

    def __call__(self, text: str) -> frozenset[str]:
        tokens = frozenset(map(self.__getitem__, text.split()))
        return tokens - {""} if "" in tokens else tokens


def tokenize(text: str) -> frozenset[str]:
    """Split ``text`` into its set of normalized tokens.

    Pieces are split on whitespace; leading and trailing punctuation
    (``string.punctuation`` and every Unicode ``P*`` character) is
    stripped from each piece (interior punctuation survives, so ``2.0``
    and ``don't`` stay intact); everything is lowercased; pieces that
    become empty are dropped. The result is a frozenset of interned tokens,
    each once regardless of frequency. No stemming or lemmatization.
    """
    return _PieceTokens()(text)


@dataclass(frozen=True)
class Document:
    """One normalized document: stable id, title, Boolean token set."""

    id: int
    title: str
    tokens: frozenset[str]


@dataclass(frozen=True, eq=False)
class TokenIndex:
    """A corpus as compressed rows of token slots, for scoring it all at once.

    ``slot_of`` maps each corpus token to its slot ``1 + token_id``, where
    token ids follow Python ``str`` order, the order :func:`sorted` gives
    a token set; ``vocabulary[token_id]`` is the token. Row ``i``,
    ``slots[offsets[i]:offsets[i + 1]]``, belongs to document
    ``doc_ids[i]`` (ids ascending) and holds slot 0, which stands for the
    class prior, then the slots of the document's tokens in ascending
    order.
    """

    vocabulary: tuple[str, ...] = field(repr=False)
    slot_of: dict[str, int] = field(repr=False)
    doc_ids: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    slots: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, documents: list[Document]) -> "TokenIndex":
        """Index ``documents``, given in ascending id order."""
        vocabulary = sorted(set().union(*(doc.tokens for doc in documents)))
        slot_of = {token: slot for slot, token in enumerate(vocabulary, 1)}
        width = len(slot_of) + 1
        n_docs = len(documents)
        lengths = np.fromiter((len(doc.tokens) for doc in documents), dtype=np.int64, count=n_docs)
        token_slots = np.fromiter(
            map(slot_of.__getitem__, itertools.chain.from_iterable(doc.tokens for doc in documents)),
            dtype=np.int64,
            count=int(lengths.sum()),
        )
        # one sort of row * width + slot puts each row's prior slot first,
        # then its token slots ascending
        rows = np.arange(n_docs, dtype=np.int64)
        keys = np.concatenate((rows * width, np.repeat(rows, lengths) * width + token_slots))
        keys.sort()
        offsets = np.zeros(n_docs + 1, dtype=np.int64)
        np.cumsum(lengths + 1, out=offsets[1:])
        return cls(
            vocabulary=tuple(vocabulary),
            slot_of=slot_of,
            doc_ids=np.array([doc.id for doc in documents], dtype=np.int64),
            offsets=offsets,
            slots=(keys % width).astype(np.int32),
        )

    def row_of_slot(self) -> np.ndarray:
        """The row each entry of ``slots`` belongs to."""
        return np.repeat(np.arange(len(self.doc_ids)), np.diff(self.offsets))

    def token_rows(self, doc_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The token slots of the given documents, without slot 0, as compressed rows.

        Returns ``(slots, offsets)``: the row of ``doc_ids[i]`` is
        ``slots[offsets[i]:offsets[i + 1]]``. Raises ``ValueError`` naming
        the ids that are not in the index.
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


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of documents partitioned into shards.

    Shard assignment is ``id % shard_count`` so the on-disk layout is
    deterministic and language-neutral. Documents are held in ascending
    id order. The corpus is safe to share read-only across any number of
    workers.
    """

    shard_count: int
    _by_id: dict[int, Document] = field(repr=False)

    @classmethod
    def from_documents(cls, documents: Iterable[Document], shard_count: int = 1000) -> "Corpus":
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        by_id: dict[int, Document] = {}
        for doc in sorted(documents, key=lambda doc: doc.id):
            if doc.id in by_id:
                raise ValueError(f"duplicate document id {doc.id}")
            by_id[doc.id] = doc
        return cls(shard_count=shard_count, _by_id=by_id)

    @property
    def doc_count(self) -> int:
        return len(self._by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, doc_id: int) -> bool:
        return doc_id in self._by_id

    def __iter__(self) -> Iterator[Document]:
        """Iterate documents in ascending id order."""
        return iter(self._by_id.values())

    def get(self, doc_id: int) -> Document:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise KeyError(f"no document with id {doc_id}") from None

    def ids(self) -> list[int]:
        return list(self._by_id)

    @cached_property
    def token_index(self) -> TokenIndex:
        """The corpus's :class:`TokenIndex`, built on first use and kept."""
        return TokenIndex.build(list(self))


@dataclass(frozen=True)
class CategoryIndex:
    """Category name -> ids of documents tagged with it directly.

    Membership through subcategories is deliberately *not* folded in;
    subcategory trees are too unreliable to trust for training data.
    """

    _members: dict[str, frozenset[int]] = field(repr=False)

    @classmethod
    def from_mapping(cls, mapping: dict[str, Iterable[int]]) -> "CategoryIndex":
        return cls(_members={name: frozenset(ids) for name, ids in mapping.items()})

    def categories(self) -> list[str]:
        return sorted(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    def members(self, name: str) -> frozenset[int]:
        try:
            return self._members[name]
        except KeyError:
            raise KeyError(f"unknown category {name!r}") from None

    def items(self) -> list[tuple[str, frozenset[int]]]:
        return [(name, self._members[name]) for name in sorted(self._members)]

    def validate_against(self, corpus: Corpus) -> None:
        """Check that every referenced id resolves to a stored document."""
        for name, ids in self._members.items():
            for doc_id in ids:
                if doc_id not in corpus:
                    raise ValueError(f"category {name!r} references unknown document id {doc_id}")


# --- MediaWiki dump ingestion ------------------------------------------------

_CATEGORY_RE = re.compile(r"\[\[\s*Category\s*:\s*([^\]|#]+)", re.IGNORECASE)
_HEADING_RE = re.compile(r"^\s*=+\s*(.*?)\s*=+\s*$")
_REDIRECT_RE = re.compile(r"^\s*#REDIRECT", re.IGNORECASE)
_DISAMBIG_RE = re.compile(r"\{\{\s*(disambiguation|disambig|dab)\s*[|}]", re.IGNORECASE)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(elem: ET.Element) -> dict[str, ET.Element]:
    """The direct children of ``elem`` by local name, the first of each name."""
    return {_local_name(child.tag): child for child in reversed(elem)}


def _page_text(page: dict[str, ET.Element]) -> str:
    revision = page.get("revision")
    if revision is None:
        return ""
    text = _children(revision).get("text")
    return text.text or "" if text is not None else ""


def _normalize_title(raw: str) -> str:
    return " ".join(raw.split())


def _normalize_category(raw: str) -> str:
    return " ".join(raw.replace("_", " ").split())


def extract_categories(text: str) -> list[str]:
    """Category names linked from wikitext, normalized, in order of appearance."""
    seen = []
    for match in _CATEGORY_RE.finditer(text):
        name = _normalize_category(match.group(1))
        if name and name not in seen:
            seen.append(name)
    return seen


def truncate_at_references(text: str) -> str:
    """Drop the first heading titled "references" and everything after it.

    The match is case-insensitive on the heading title with surrounding
    ``=`` markers and whitespace ignored. Articles without such a heading
    are kept whole.
    """
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        m = _HEADING_RE.match(line)
        if m and m.group(1).strip().lower() == "references":
            return "".join(lines[:i])
    return text


class _CountingReader:
    """File wrapper that tracks bytes consumed, for parse-error reporting."""

    def __init__(self, stream: IO[bytes]):
        self._stream = stream
        self.bytes_read = 0

    def read(self, size: int = -1) -> bytes:
        data = self._stream.read(size)
        self.bytes_read += len(data)
        return data


def ingest_wiki_dump(
    stream: IO[bytes],
    min_bytes: int = 300,
    shard_count: int = 1000,
    skipped: Counter | None = None,
) -> tuple[Corpus, CategoryIndex]:
    """Ingest a MediaWiki pages XML export into a corpus and category index.

    Only article pages (namespace 0) are kept; redirects and pages
    carrying a disambiguation template are skipped. Category links are
    extracted from the full wikitext, then the body is truncated at its
    "References" heading and tokenized as by :func:`tokenize`, each distinct
    whitespace piece of the dump once. Articles whose retained body is
    shorter than ``min_bytes`` (UTF-8 bytes, measured after truncation)
    are excluded. Each page is dropped once processed.

    ``skipped``, when given, is filled with per-reason skip counts
    (``namespace:N``, ``redirect``, ``disambiguation``,
    ``below_min_bytes``, ``incomplete_page``).

    Raises ``ValueError`` before reading ``stream`` if ``shard_count`` is
    below 1, and :class:`IngestError` on malformed XML, naming the byte
    offset reached in the input, or on a page id that is not a 64-bit
    integer, naming the page.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if skipped is None:
        skipped = Counter()
    reader = _CountingReader(stream)
    piece_tokens = _PieceTokens()
    documents: list[Document] = []
    categories: dict[str, set[int]] = {}
    try:
        events = ET.iterparse(reader, events=("start", "end"))
        _, root = next(events)
        for event, elem in events:
            if event == "end" and _local_name(elem.tag) == "page":
                _ingest_page(_children(elem), min_bytes, piece_tokens, documents, categories, skipped)
                elem.clear()
                root.clear()  # a cleared page would otherwise stay on as the root's child
    except ET.ParseError as exc:
        raise IngestError(f"malformed XML near byte {reader.bytes_read}: {exc}") from exc

    corpus = Corpus.from_documents(documents, shard_count=shard_count)
    kept = {doc.id for doc in documents}
    index = CategoryIndex.from_mapping(
        {name: ids & kept for name, ids in categories.items() if ids & kept}
    )
    return corpus, index


def _ingest_page(
    page: dict[str, ET.Element],
    min_bytes: int,
    piece_tokens: _PieceTokens,
    documents: list[Document],
    categories: dict[str, set[int]],
    skipped: Counter,
) -> None:
    ns_elem = page.get("ns")
    ns = ns_elem.text.strip() if ns_elem is not None and ns_elem.text else "0"
    if ns != "0":
        skipped[f"namespace:{ns}"] += 1
        return

    text = _page_text(page)
    if "redirect" in page or _REDIRECT_RE.match(text):
        skipped["redirect"] += 1
        return
    if _DISAMBIG_RE.search(text):
        skipped["disambiguation"] += 1
        return

    id_elem = page.get("id")
    title_elem = page.get("title")
    if id_elem is None or id_elem.text is None or title_elem is None or title_elem.text is None:
        skipped["incomplete_page"] += 1
        return
    title = _normalize_title(title_elem.text)
    try:
        doc_id = int(id_elem.text)
        if not -(2**63) <= doc_id < 2**63:  # the store's ids are read back as int64
            raise ValueError
    except ValueError:
        raise IngestError(f"page {title!r}: id {id_elem.text!r} is not a 64-bit integer") from None

    page_categories = extract_categories(text)
    body = truncate_at_references(text)
    if len(body.encode("utf-8")) < min_bytes:
        skipped["below_min_bytes"] += 1
        return

    documents.append(Document(id=doc_id, title=title, tokens=piece_tokens(body)))
    for name in page_categories:
        categories.setdefault(name, set()).add(doc_id)


# --- On-disk store ------------------------------------------------------------

_FORMAT_VERSION = 1


def _shard_path(root: Path, shard: int) -> Path:
    return root / "shards" / f"shard-{shard:05d}.tsv"


def _category_file_name(name: str) -> str:
    """The percent-encoded name plus ``.txt``, or its bounded form if too long.

    A file name longer than ``NAME_MAX`` (255 bytes) becomes the first 200
    characters of the encoding, ``+`` (which the encoding never holds) and
    16 hex digits of the name's SHA-256; that file's first line is the
    whole encoded name.
    """
    encoded = quote(name, safe="")
    if len(encoded) + len(".txt") <= 255:
        return encoded + ".txt"
    import hashlib  # loads OpenSSL (~3.5 MB of RSS), so only where a name needs it
    return f"{encoded[:200]}+{hashlib.sha256(name.encode('utf-8')).hexdigest()[:16]}.txt"


def store_corpus(corpus: Corpus, categories: CategoryIndex, path: str | Path) -> None:
    """Write a corpus and its category index under ``path``.

    Layout: ``manifest.json`` with counts, one newline-delimited shard
    file per shard (``id<TAB>title<TAB>space-joined sorted tokens``),
    and one file per category listing member ids ascending, named by
    :func:`_category_file_name`. Everything is sorted, so storing the same
    corpus twice yields identical bytes.
    The manifest, shard and category files of an earlier store under
    ``path`` are deleted first, other files there are left alone, and the
    manifest is written last: a store that fails part-way does not load.
    """
    shards: list[list[Document]] = [[] for _ in range(corpus.shard_count)]
    for doc in corpus:
        if "\t" in doc.title or "\n" in doc.title:
            raise CorpusFormatError(f"document {doc.id}: title contains tab or newline")
        shards[doc.id % corpus.shard_count].append(doc)

    root = Path(path)
    (root / "shards").mkdir(parents=True, exist_ok=True)
    (root / "categories").mkdir(parents=True, exist_ok=True)
    (root / "manifest.json").unlink(missing_ok=True)
    for stale in [*(root / "shards").glob("shard-*.tsv"), *(root / "categories").glob("*.txt")]:
        stale.unlink()

    for shard, documents in enumerate(shards):
        lines = [f"{doc.id}\t{doc.title}\t{' '.join(sorted(doc.tokens))}\n" for doc in documents]
        _shard_path(root, shard).write_text("".join(lines), encoding="utf-8")

    for name, ids in categories.items():
        file_name = _category_file_name(name)
        header = [quote(name, safe="") + "\n"] if "+" in file_name else []
        text = "".join([*header, *(f"{doc_id}\n" for doc_id in sorted(ids))])
        (root / "categories" / file_name).write_text(text, encoding="utf-8")

    manifest = {
        "format_version": _FORMAT_VERSION,
        "doc_count": corpus.doc_count,
        "shard_count": corpus.shard_count,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _parse_id(raw: str, kind: str, path: Path, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise CorpusFormatError(f"corrupt {kind} {path} at line {lineno}: bad id {raw!r}") from None


def load_corpus(path: str | Path) -> tuple[Corpus, CategoryIndex]:
    """Load a corpus stored by :func:`store_corpus`.

    Raises :class:`CorpusFormatError` naming the offending shard when a
    shard file is missing or malformed, and the file and line of a
    category-file line that is not an id.
    """
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise CorpusFormatError(f"missing manifest: {manifest_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise CorpusFormatError(f"unsupported format version {manifest.get('format_version')!r}")
    shard_count = int(manifest["shard_count"])

    documents: list[Document] = []
    for shard in range(shard_count):
        shard_file = _shard_path(root, shard)
        if not shard_file.is_file():
            raise CorpusFormatError(f"missing shard: {shard_file}")
        # a title may hold any line break but "\n": split on "\n" alone, untranslated
        with shard_file.open(encoding="utf-8", newline="\n") as stream:
            lines = stream.read().split("\n")
        if lines[-1] == "":  # after the newline that ends the last line
            lines.pop()
        for lineno, line in enumerate(lines, 1):
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusFormatError(f"corrupt shard {shard_file} at line {lineno}")
            raw_id, title, token_text = parts
            doc_id = _parse_id(raw_id, "shard", shard_file, lineno)
            if doc_id % shard_count != shard:
                raise CorpusFormatError(
                    f"corrupt shard {shard_file} at line {lineno}: id {doc_id} belongs elsewhere"
                )
            tokens = frozenset(map(sys.intern, token_text.split()))  # one str per distinct token
            documents.append(Document(id=doc_id, title=title, tokens=tokens))

    corpus = Corpus.from_documents(documents, shard_count=shard_count)
    if corpus.doc_count != int(manifest["doc_count"]):
        raise CorpusFormatError(
            f"manifest doc_count {manifest['doc_count']} != stored {corpus.doc_count}"
        )

    mapping: dict[str, list[int]] = {}
    categories_dir = root / "categories"
    if categories_dir.is_dir():
        for cat_file in sorted(categories_dir.glob("*.txt")):
            lines = cat_file.read_text(encoding="utf-8").split("\n")
            bounded = "+" in cat_file.stem  # then the encoded name is the first line
            name = unquote(lines[0].strip() if bounded else cat_file.stem)
            if bounded and _category_file_name(name) != cat_file.name:
                raise CorpusFormatError(f"corrupt category file {cat_file}: no name matches it")
            mapping[name] = [
                _parse_id(line, "category file", cat_file, lineno)
                for lineno, line in enumerate(lines, 1)
                if lineno > bounded and line and not line.isspace()
            ]
    index = CategoryIndex.from_mapping(mapping)
    index.validate_against(corpus)
    return corpus, index
