"""Tokenization rules and corpus ingestion.

Documents are reduced to Boolean token sets: split on whitespace, strip
punctuation from both ends of each piece (interior punctuation stays),
lowercase, deduplicate. The MediaWiki adapter additionally drops
redirects and non-article namespaces, cuts HTML comments and <nowiki>
spans, truncates each article at its "References" heading, applies a
minimum-size filter, and files category links into a separate index.

Run from the repository root:

    python demos/01_tokenize_and_ingest.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from priorlearn.corpus import ingest_wiki_dump, load_corpus, store_corpus, tokenize

print("-- tokenization --")
for text in [
    "AlphaGo is a program.",
    "Version 2.0, (beta) 2.0!",
    "C++ and C# both lose their symbols; don't and 2.0 keep theirs.",
]:
    print(f"{text!r}\n  -> {sorted(tokenize(text))}")

print("\n-- ingesting the bundled three-page dump --")
dump = Path(__file__).parent.parent / "tests" / "data" / "mini_dump.xml"
skipped = Counter()
with dump.open("rb") as stream:
    corpus, categories = ingest_wiki_dump(stream, min_bytes=300, skipped=skipped)

print(f"kept {corpus.doc_count} of 3 pages; skipped: {dict(skipped)}")
for doc in corpus:
    print(f"  id={doc.id} title={doc.title!r} tokens={sorted(doc.tokens)}")
for name in categories.names:
    print(f"  category {name!r} -> {sorted(categories.members(name))}")

print("\n-- the store (the corpus columns, categories) round-trips exactly --")
with tempfile.TemporaryDirectory() as root:
    store_corpus(corpus, categories, root)
    reloaded, reloaded_cats = load_corpus(root)
    files = sorted(p.relative_to(root) for p in Path(root).rglob("*") if p.is_file())
    print(f"store wrote {len(files)} files, e.g. {files[:3]}")
    print(f"round trip preserved everything: {list(reloaded) == list(corpus)}")
