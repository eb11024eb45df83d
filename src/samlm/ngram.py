"""Interpolated Kneser-Ney n-gram baseline (single absolute discount).

Counting protocol: every document is left-padded with order-1 PAD markers
(the same beginning-of-sequence convention the neural models use) and ends
with its EOS token; contexts never cross documents. The highest order keeps
raw counts. Lower orders use continuation counts (number of distinct one-word
left extensions), except for contexts that start at a document boundary,
which cannot be left-extended and therefore keep their raw counts. Each
order's discount is estimated as n1 / (n1 + 2 * n2) from the count table used
at that order. Mass discounted at each level is redistributed through the
next-lower level, ending in a uniform distribution over the vocabulary, so
every smoothed distribution sums to one exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import evaluate
from .atomic import atomic_write
from .corpus import PAD_ID, IndexedDocument


@dataclass
class _ContextEntry:
    counts: dict[int, int]
    total: int
    distinct: int


def _context_table(table: dict[tuple[int, ...], dict[int, int]]) -> dict[tuple[int, ...], _ContextEntry]:
    """Wrap one order's context -> word-count table with its totals."""
    return {
        ctx: _ContextEntry(counts=words, total=sum(words.values()), distinct=len(words))
        for ctx, words in table.items()
    }


class KneserNeyModel:
    def __init__(self, order: int, vocab_size: int):
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order}")
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        self.order = order
        self.vocab_size = vocab_size
        # per order k (1-based): context tuple of length k-1 -> entry
        self.tables: list[dict[tuple[int, ...], _ContextEntry]] = []
        self.discounts: list[float] = []

    # ------------------------------------------------------------ fitting

    @classmethod
    def fit(cls, docs: list[IndexedDocument], order: int, vocab_size: int) -> "KneserNeyModel":
        if not docs:
            raise ValueError("cannot fit an n-gram model on an empty corpus")
        model = cls(order, vocab_size)

        raw: list[dict[tuple[int, ...], dict[int, int]]] = [
            defaultdict(lambda: defaultdict(int)) for _ in range(order)
        ]
        for doc in docs:
            seq = (PAD_ID,) * (order - 1) + tuple(doc.text_ids)
            for i in range(order - 1, len(seq)):
                w = seq[i]
                for k in range(1, order + 1):
                    ctx = seq[i - k + 1 : i]
                    raw[k - 1][ctx][w] += 1

        # continuation counts: distinct left extensions of each k-gram
        for k in range(1, order + 1):
            table: dict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
            if k == order:
                for ctx, words in raw[k - 1].items():
                    table[ctx] = dict(words)
            else:
                continuation: dict[tuple[int, ...], dict[int, int]] = defaultdict(lambda: defaultdict(int))
                for ctx, words in raw[k].items():
                    for w in words:
                        continuation[ctx[1:]][w] += 1
                for ctx, words in raw[k - 1].items():
                    if ctx[:1] == (PAD_ID,):
                        # document-initial context: only PAD can extend it left
                        table[ctx] = dict(words)
                    else:
                        table[ctx] = dict(continuation[ctx])
            model.tables.append(_context_table(table))

        for k in range(order):
            n1 = n2 = 0
            for entry in model.tables[k].values():
                for c in entry.counts.values():
                    if c == 1:
                        n1 += 1
                    elif c == 2:
                        n2 += 1
            model.discounts.append(n1 / (n1 + 2.0 * n2) if (n1 + 2 * n2) > 0 else 0.5)
        return model

    # ------------------------------------------------------------ queries

    def prob(self, context: tuple[int, ...], word: int) -> float:
        """Smoothed P(word | context); context longer than order-1 is trimmed."""
        ctx = tuple(context)[-(self.order - 1) :] if self.order > 1 else ()
        return self._prob(len(ctx) + 1, ctx, word)

    def _prob(self, k: int, ctx: tuple[int, ...], word: int) -> float:
        if k == 0:
            return 1.0 / self.vocab_size
        entry = self.tables[k - 1].get(ctx)
        if entry is None or entry.total == 0:
            return self._prob(k - 1, ctx[1:], word)
        d = self.discounts[k - 1]
        count = entry.counts.get(word, 0)
        numerator = max(count - d, 0.0) / entry.total
        backoff_mass = d * entry.distinct / entry.total
        return numerator + backoff_mass * self._prob(k - 1, ctx[1:], word)

    def document_nll(self, doc: IndexedDocument) -> tuple[float, int]:
        """Summed NLL and token count over the document's targets."""
        seq = (PAD_ID,) * (self.order - 1) + tuple(doc.text_ids)
        nll = 0.0
        for i in range(self.order - 1, len(seq)):
            ctx = seq[i - self.order + 1 : i]
            nll -= float(np.log(self._prob(self.order, ctx, seq[i])))
        return nll, len(doc.text_ids)

    def perplexity(
        self, docs: list[IndexedDocument], model_id: str = "", corpus_id: str = ""
    ) -> evaluate.PerplexityReport:
        return evaluate.perplexity(self, docs, model_id or f"kn{self.order}", corpus_id)

    # -------------------------------------------------------- persistence

    def save(self, path) -> None:
        """Plain-text count file: JSON header, then sorted count lines."""
        header = {
            "order": self.order,
            "vocab_size": self.vocab_size,
            "smoothing": "interpolated-kneser-ney-single-discount",
            "discounts": self.discounts,
        }
        with atomic_write(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for k, table in enumerate(self.tables, start=1):
                for ctx in sorted(table):
                    entry = table[ctx]
                    for w in sorted(entry.counts):
                        ctx_str = " ".join(map(str, ctx))
                        fh.write(f"{k}\t{ctx_str}\t{w}\t{entry.counts[w]}\n")

    @classmethod
    def load(cls, path) -> "KneserNeyModel":
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            model = cls(header["order"], header["vocab_size"])
            model.discounts = [float(d) for d in header["discounts"]]
            raw: list[dict[tuple[int, ...], dict[int, int]]] = [
                defaultdict(dict) for _ in range(model.order)
            ]
            for line in fh:
                k_str, ctx_str, w_str, count_str = line.rstrip("\n").split("\t")
                ctx = tuple(int(t) for t in ctx_str.split()) if ctx_str else ()
                raw[int(k_str) - 1][ctx][int(w_str)] = int(count_str)
        model.tables = [_context_table(table) for table in raw]
        return model
