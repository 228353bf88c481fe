"""Seeded MediaWiki pages export of a synthetic corpus, for the wiki-cli workload.

Every article carries exactly the token set of its synthetic document,
spelled as pseudo-words, so ingesting the dump yields the same corpus
whatever the seed. The seed changes only the surface form: word order and
repetition, non-ASCII punctuation around words, sentence breaks, heading
spelling, and where the skipped pages sit in the page stream. Titles are
derived from the document id alone and never name the class.

Besides the articles the dump holds a fixed number of pages of every skip
reason the ingester knows: other namespaces, redirects (by tag and by
text), disambiguation templates, stubs under the ingester's default
``--min-bytes`` of 300, and pages missing their id or title.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from xml.sax.saxutils import escape

BODY_BYTES = 420  # every article body, well past the 300-byte minimum

# Skipped pages per reason, and the skip counts ingest must report.
SKIP_PAGES = {
    "namespace:1": 30,
    "namespace:14": 30,
    "redirect": 40,
    "disambiguation": 20,
    "below_min_bytes": 50,
    "incomplete_page": 10,
}
EXTRA_ID_BASE = 1_000_000
CACHED_DUMPS = 12  # about 19 MB each

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "st", "kr", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "é", "ö", "å", "y", "ai")
_TITLE_SYLLABLES = tuple(o + v for o in _ONSETS for v in _VOWELS)
_WRAPS = (("«", "»"), ("“", "”"), ("„", "“"), ("(", ")"), ("¿", "?"), ("¡", "!"), ("‘", "’"))
_TRAILS = (",", ";", ":", "…", "·", ",", ",")
_ENDS = (".", ".", ".", "!", "…", "?")
_DASHES = ("—", "–")


def pseudo_word(index: int) -> str:
    """The fixed spelling of vocabulary token ``index`` (seed-independent)."""
    syllables = []
    n = index + 1
    while n:
        n, r = divmod(n, len(_ONSETS) * len(_VOWELS))
        syllables.append(_ONSETS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(syllables) + ("ng" if index % 3 == 0 else "ris" if index % 3 == 1 else "l")


def title_for(doc_id: int) -> str:
    """A neutral, unique title; some are long or carry non-ASCII letters."""
    parts = []
    n = doc_id
    while n:
        n, r = divmod(n, len(_TITLE_SYLLABLES))
        parts.append(_TITLE_SYLLABLES[r])
    name = "".join(parts).capitalize()
    if doc_id % 7 == 0:
        name += " (Ærøskøbing–Złoty Stok)"
    elif doc_id % 5 == 0:
        name = "Saint " + name
    return name


def _sentence_text(words: list[str], rng: random.Random) -> str:
    pieces = []
    for i, word in enumerate(words):
        if i == 0:
            word = word[:1].upper() + word[1:]
        roll = rng.random()
        if roll < 0.08:
            left, right = rng.choice(_WRAPS)
            word = left + word + right
        elif roll < 0.2:
            word += rng.choice(_TRAILS)
        pieces.append(word)
        if rng.random() < 0.04:
            pieces.append(rng.choice(_DASHES))
    return " ".join(pieces) + rng.choice(_ENDS)


def _body(words: list[str], rng: random.Random) -> str:
    """Wikitext whose tokens are exactly ``words``, at least BODY_BYTES long."""
    stream = []
    for word in words:
        stream += [word] * (1 + int(rng.random() * 3))
    rng.shuffle(stream)
    sentences = []
    size = 0
    while stream or size < BODY_BYTES:
        if not stream:
            stream = rng.sample(words, len(words))
        n = rng.randint(6, 14)
        text = _sentence_text(stream[:n], rng)
        del stream[:n]
        sentences.append(text)
        size += len(text.encode("utf-8")) + 1
    paragraphs = []
    while sentences:
        n = rng.randint(2, 4)
        paragraphs.append(" ".join(sentences[:n]))
        del sentences[:n]
    return "\n\n".join(paragraphs)


def _references(rng: random.Random) -> str:
    heading = rng.choice(("== References ==", "==References==", "== references =="))
    cites = "".join(
        f"\n* Anon. ({1990 + rng.randint(0, 30)}). “Survey №{rng.randint(1, 99)}”. Retrieved 2020-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}."
        for _ in range(rng.randint(1, 3))
    )
    return f"\n\n{heading}{cites}\n"


def _page(title: str | None, ns: int, pid: int | None, text: str, redirect: str | None = None) -> str:
    lines = ["  <page>"]
    if title is not None:
        lines.append(f"    <title>{escape(title)}</title>")
    lines.append(f"    <ns>{ns}</ns>")
    if pid is not None:
        lines.append(f"    <id>{pid}</id>")
    if redirect is not None:
        lines.append(f'    <redirect title="{escape(redirect, {chr(34): "&quot;"})}" />')
    rev = (pid or 0) * 10 + 1
    lines += [
        "    <revision>",
        f"      <id>{rev}</id>",
        "      <timestamp>2021-01-04T00:00:00Z</timestamp>",
        f'      <text bytes="{len(text.encode("utf-8"))}" xml:space="preserve">{escape(text)}</text>',
        "    </revision>",
        "  </page>",
        "",
    ]
    return "\n".join(lines)


def _skip_pages(rng: random.Random) -> list[str]:
    pages = []
    pid = EXTRA_ID_BASE
    filler = " ".join(pseudo_word(i) for i in range(60))
    for ns, prefix in ((1, "Talk:"), (14, "Category:")):
        for i in range(SKIP_PAGES[f"namespace:{ns}"]):
            pid += 1
            pages.append(_page(prefix + title_for(pid), ns, pid, filler + f" ~~~~ {i}"))
    for i in range(SKIP_PAGES["redirect"]):
        pid += 1
        target = title_for(rng.randint(1, 20_000))
        tagged = i % 4 != 0  # every fourth redirect is marked only in its text
        pages.append(
            _page(title_for(pid), 0, pid, f"#REDIRECT [[{target}]]", redirect=target if tagged else None)
        )
    templates = ("{{disambiguation}}", "{{Disambig|geo}}", "{{dab}}")
    for i in range(SKIP_PAGES["disambiguation"]):
        pid += 1
        text = f"'''{title_for(pid)}''' may refer to:\n* {filler}\n\n{templates[i % 3]}"
        pages.append(_page(title_for(pid) + " (disambiguation)", 0, pid, text))
    for _ in range(SKIP_PAGES["below_min_bytes"]):
        pid += 1
        text = f"{pseudo_word(rng.randint(0, 1999))} {pseudo_word(rng.randint(0, 1999))}."
        text += _references(rng) + "[[Category:Stubs]]"
        pages.append(_page(title_for(pid), 0, pid, text))
    for i in range(SKIP_PAGES["incomplete_page"]):
        pid += 1
        if i % 2:
            pages.append(_page(None, 0, pid, filler))
        else:
            pages.append(_page(title_for(pid), 0, None, filler))
    return pages


def render_dump(corpus, member_ids: frozenset[int], category: str, seed: int) -> str:
    """The MediaWiki export of ``corpus`` as one string, seeded by ``seed``."""
    rng = random.Random(seed)
    words: dict[str, str] = {}
    pages = []
    for doc in corpus:
        for t in doc.tokens - words.keys():
            words[t] = pseudo_word(int(t[1:]))
        spelled = sorted(words[t] for t in doc.tokens)
        text = _body(spelled, rng) + _references(rng)
        cats = [category] if doc.id in member_ids else [f"Pool group {doc.id % 5}"]
        if doc.id % 11 == 0:
            cats.append("Articles with short descriptions")
        text += "".join(f"\n[[Category:{c}]]" for c in cats)
        pages.append(_page(title_for(doc.id), 0, doc.id, text))
    for page in _skip_pages(rng):
        pages.insert(rng.randint(0, len(pages)), page)
    head = (
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">\n'
        "  <siteinfo>\n    <sitename>Synthpedia</sitename>\n    <dbname>synthwiki</dbname>\n"
        "  </siteinfo>\n"
    )
    return head + "".join(pages) + "</mediawiki>\n"


def ensure_dump(cache: Path, seed: int, make_inputs) -> tuple[Path, Path]:
    """Write the dump and truth file for ``seed`` under ``cache`` unless present.

    ``make_inputs()`` returns the synthetic corpus; it is called only on a
    cache miss. The cache keeps the CACHED_DUMPS most recently written dumps.
    """
    dump = cache / f"dump-seed{seed}.xml"
    truth = cache / "truth.txt"
    if dump.is_file() and truth.is_file():
        return dump, truth
    cache.mkdir(parents=True, exist_ok=True)
    for old in sorted(cache.glob("dump-seed*.xml"), key=lambda p: p.stat().st_mtime)[: 1 - CACHED_DUMPS]:
        old.unlink()
    syn, category = make_inputs()
    text = render_dump(syn.corpus, syn.categories.members(category), category, seed)
    tmp = dump.with_suffix(".tmp")
    tmp.write_text(text, encoding="utf-8")
    truth.write_text("".join(f"{doc_id}\n" for doc_id in sorted(syn.truth)), encoding="utf-8")
    os.replace(tmp, dump)
    return dump, truth
