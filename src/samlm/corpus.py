"""Document ingestion, vocabularies, attribute inventories, and indexing.

Input is JSON-lines with fields id/text/title/author/category; text and title
are whitespace-pre-tokenized strings. Tokenization itself is out of scope.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import settings
from .atomic import atomic_write, write_text

UNK, EOS, PAD = "<unk>", "<eos>", "<pad>"
SPECIALS = (UNK, EOS, PAD)
UNK_ID, EOS_ID, PAD_ID = 0, 1, 2


@dataclass(frozen=True)
class Document:
    """One training unit: token sequence plus optional attributes."""

    id: str
    text: tuple[str, ...]
    title: tuple[str, ...] | None = None
    author: str | None = None
    category: str | None = None


@dataclass(frozen=True)
class IndexedDocument:
    id: str
    text_ids: tuple[int, ...]
    title_ids: tuple[int, ...] | None = None
    author_id: int | None = None
    category_id: int | None = None


class Vocabulary:
    """Bidirectional token <-> index map.

    Token vocabularies reserve indices 0..2 for <unk>, <eos>, <pad>; attribute
    vocabularies reserve only index 0 for <unk>.
    """

    def __init__(self, tokens: list[str], n_specials: int):
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        self.n_specials = n_specials
        self.unk_id = UNK_ID
        self.eos_id = EOS_ID if n_specials >= 3 else None
        self.pad_id = PAD_ID if n_specials >= 3 else None

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens

    def id_for(self, token: str) -> int:
        """Index of `token`, falling back to the unknown index."""
        return self.index.get(token, self.unk_id)

    def token_for(self, idx: int) -> str:
        return self.tokens[idx]

    def save(self, path) -> None:
        write_text(path, "\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path, n_specials: int = 3) -> "Vocabulary":
        tokens = Path(path).read_text(encoding="utf-8").splitlines()
        if n_specials >= 3 and tuple(tokens[:3]) != SPECIALS:
            raise ValueError(f"vocabulary file {path} does not start with {SPECIALS}")
        return cls(tokens, n_specials=n_specials)


@dataclass
class AttributeInventory:
    """Author and category vocabularies; index 0 of each is the unknown slot."""

    authors: Vocabulary
    categories: Vocabulary


def _parse_tokens(value, field: str, line_no: int) -> tuple[str, ...]:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string at line {line_no}")
    return tuple(value.split())


def _parse_attribute(record: dict, field: str, line_no: int) -> str | None:
    value = record.get(field)
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{field} must be a string or null at line {line_no}, got {type(value).__name__}")
    return value


def ingest(path) -> list[Document]:
    """Read attribute-annotated documents from a JSONL file, in file order.

    Raises ValueError naming the file and line of a bad record."""
    docs: list[Document] = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                doc = _parse_record(raw, line_no)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            if doc is not None:
                docs.append(doc)
    if not docs:
        raise ValueError(f"no documents in {path}")
    return docs


def _parse_record(raw: bytes, line_no: int) -> Document | None:
    """The document on one JSONL line, or None for a blank line."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"line {line_no} is not UTF-8") from None
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed record at line {line_no}: {exc}") from None
    if not isinstance(record, dict) or "text" not in record:
        raise ValueError(f"missing text field at line {line_no}")
    text = _parse_tokens(record["text"], "text", line_no)
    if not text:
        raise ValueError(f"empty text at line {line_no}")
    title = None
    if record.get("title") is not None:
        title = _parse_tokens(record["title"], "title", line_no) or None
    return Document(
        id=str(record.get("id", f"doc{line_no}")),
        text=text,
        title=title,
        author=_parse_attribute(record, "author", line_no),
        category=_parse_attribute(record, "category", line_no),
    )


def write_jsonl(docs: list[Document], path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.id, "text": " ".join(doc.text)}
            if doc.title is not None:
                record["title"] = " ".join(doc.title)
            if doc.author is not None:
                record["author"] = doc.author
            if doc.category is not None:
                record["category"] = doc.category
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _ranked(counts: Counter) -> list[str]:
    # descending frequency, ties broken lexicographically
    return sorted(counts, key=lambda t: (-counts[t], t))


def build_vocab(docs: list[Document], cap: int = 10000, min_count: int = 1) -> Vocabulary:
    """Frequency-ranked token vocabulary capped at `cap` entries total.

    The cap counts the three reserved specials, so `cap - 3` regular tokens
    are kept at most. Literal special strings in the data collapse onto the
    reserved slots rather than being counted twice.
    """
    settings.integer("cap", cap, 4)
    settings.integer("min_count", min_count, 1)
    counts: Counter = Counter()
    for doc in docs:
        counts.update(t for t in doc.text if t not in SPECIALS)
        if doc.title:
            counts.update(t for t in doc.title if t not in SPECIALS)
    kept = [t for t in _ranked(counts) if counts[t] >= min_count][: cap - len(SPECIALS)]
    if not kept:
        raise ValueError("no tokens survive vocabulary filtering")
    return Vocabulary(list(SPECIALS) + kept, n_specials=3)


def build_attributes(docs: list[Document]) -> AttributeInventory:
    """Author/category inventories ranked by frequency with a reserved unknown."""
    authors: Counter = Counter(d.author for d in docs if d.author is not None)
    categories: Counter = Counter(d.category for d in docs if d.category is not None)
    return AttributeInventory(
        authors=Vocabulary([UNK] + _ranked(authors), n_specials=1),
        categories=Vocabulary([UNK] + _ranked(categories), n_specials=1),
    )


def index_document(doc: Document, vocab: Vocabulary, attrs: AttributeInventory) -> IndexedDocument:
    """Map a document onto vocabulary indices; EOS goes on the main text only."""
    text_ids = tuple(vocab.id_for(t) for t in doc.text) + (vocab.eos_id,)
    title_ids = tuple(vocab.id_for(t) for t in doc.title) if doc.title else None
    author_id = attrs.authors.id_for(doc.author) if doc.author is not None else None
    category_id = attrs.categories.id_for(doc.category) if doc.category is not None else None
    return IndexedDocument(
        id=doc.id,
        text_ids=text_ids,
        title_ids=title_ids,
        author_id=author_id,
        category_id=category_id,
    )


def index_corpus(docs, vocab, attrs) -> list[IndexedDocument]:
    return [index_document(d, vocab, attrs) for d in docs]


def split(
    docs: list[Document], ratios: tuple[float, float, float], seed: int
) -> tuple[list[Document], list[Document], list[Document]]:
    """Deterministic shuffle and three-way partition.

    Sizes are the rounded-down ratio shares; leftover slots go to the parts
    with the largest fractional remainders, ties resolved in train/valid/test
    order.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positives, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    settings.integer("seed", seed, 0)
    n = len(docs)
    sizes = [int(n * r) for r in ratios]
    remainders = [n * r - s for r, s in zip(ratios, sizes)]
    for _ in range(n - sum(sizes)):
        i = int(np.argmax(remainders))
        sizes[i] += 1
        remainders[i] = -1.0
    if any(s == 0 for s in sizes):
        raise ValueError(f"split produces an empty part: sizes {tuple(sizes)}")
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [docs[i] for i in order]
    train = shuffled[: sizes[0]]
    valid = shuffled[sizes[0] : sizes[0] + sizes[1]]
    test = shuffled[sizes[0] + sizes[1] :]
    return train, valid, test
