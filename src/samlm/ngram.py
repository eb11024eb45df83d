"""Interpolated Kneser-Ney n-gram baseline (single absolute discount).

Counting protocol: every document is left-padded with order-1 PAD markers
(the same beginning-of-sequence convention the neural models use) and ends
with its EOS token; contexts never cross documents. Only the top-order
n-grams are counted, and that order keeps their raw counts. Below it, each
k-gram occurrence has exactly one left neighbour in the padded sequence, so a
k-gram's raw count is the sum over the (k+1)-grams that extend it, and its
continuation count is their number. Lower orders use continuation counts,
except for contexts that start with PAD, which cannot be left-extended and
keep their raw counts. Each order's discount is n1 / (n1 + 2 * n2) over that
order's counts, or 0.5 when no count is 1. Mass discounted at each level is
redistributed through the next-lower level, ending in a uniform distribution
over the vocabulary, so every smoothed distribution sums to one exactly.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from itertools import chain

import numpy as np

from . import evaluate, settings
from .atomic import atomic_write
from .corpus import PAD_ID, IndexedDocument


def _discount(table: dict[tuple[int, ...], int]) -> float:
    """n1 / (n1 + 2 n2) over one order's counts; 0.5 when no count is 1,
    since a zero discount would pass no mass to the lower orders."""
    histogram = Counter(table.values())
    n1, n2 = histogram[1], histogram[2]
    return n1 / (n1 + 2.0 * n2) if n1 > 0 else 0.5


class KneserNeyModel:
    def __init__(self, order: int, vocab_size: int):
        settings.integer("order", order, 1)
        settings.integer("vocab_size", vocab_size, 1)
        self.order = order
        self.vocab_size = vocab_size
        # per order k (1-based): context tuple of length k-1 ->
        # ({word: count}, total count, number of distinct words)
        self.tables: list[dict[tuple[int, ...], tuple[dict[int, int], int, int]]] = []
        self.discounts: list[float] = []

    def _set_counts(self, grams: list[dict[tuple[int, ...], int]]) -> None:
        """Group each order's {k-gram: count} table by context and estimate
        its discount; grams[k - 1] holds order k."""
        for table in grams:
            by_context: dict[tuple[int, ...], dict[int, int]] = defaultdict(dict)
            for gram, count in table.items():
                by_context[gram[:-1]][gram[-1]] = count
            self.tables.append({
                ctx: (words, sum(words.values()), len(words)) for ctx, words in by_context.items()
            })
            self.discounts.append(_discount(table))

    # ------------------------------------------------------------ fitting

    @classmethod
    def fit(cls, docs: list[IndexedDocument], order: int, vocab_size: int) -> "KneserNeyModel":
        if not docs:
            raise ValueError("cannot fit an n-gram model on an empty corpus")
        model = cls(order, vocab_size)
        pad = (PAD_ID,) * (order - 1)
        raw = Counter(chain.from_iterable(
            zip(*(seq[j:] for j in range(order))) for seq in (pad + tuple(doc.text_ids) for doc in docs)
        ))
        grams = [raw]
        for k in range(order - 1, 0, -1):
            continuation = Counter(gram[1:] for gram in raw)
            # raw count: one per distinct extension, plus each extension's count beyond one
            lower = continuation.copy()
            for gram, count in raw.items():
                if count > 1:
                    lower[gram[1:]] += count - 1
            # a context that starts with PAD begins its document: nothing extends it left
            grams.append({g: lower[g] if k > 1 and g[0] == PAD_ID else n for g, n in continuation.items()})
            raw = lower
        model._set_counts(grams[::-1])
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
        if entry is None:
            return self._prob(k - 1, ctx[1:], word)
        counts, total, distinct = entry
        d = self.discounts[k - 1]
        numerator = max(counts.get(word, 0) - d, 0.0) / total
        backoff_mass = d * distinct / total
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
                for ctx, (counts, _, _) in sorted(table.items()):
                    ctx_str = " ".join(map(str, ctx))
                    for w, count in sorted(counts.items()):
                        fh.write(f"{k}\t{ctx_str}\t{w}\t{count}\n")

    @classmethod
    def load(cls, path) -> "KneserNeyModel":
        """Read a count file; the discounts are re-estimated from its counts,
        and the header's copy is left for human readers. A line that is not
        an order in 1..order, that many token ids in [0, vocab_size) and a
        count of at least 1 raises ValueError naming the file and the line,
        and so does a header that is not a JSON object with an integer order
        and vocab_size."""
        with open(path, encoding="utf-8") as fh:
            try:
                header = json.loads(fh.readline())
                if not isinstance(header, dict):
                    raise ValueError("want a JSON object")
                model = cls(header.get("order"), header.get("vocab_size"))
            except ValueError as exc:  # JSONDecodeError included
                raise ValueError(f"{path}: malformed header: {exc}") from None
            grams: list[dict[tuple[int, ...], int]] = [{} for _ in range(model.order)]
            for line_no, line in enumerate(fh, start=2):
                try:
                    k, *gram, count = map(int, line.split())
                except ValueError:  # a blank or one-field line, or a field that is no integer
                    k, gram, count = 0, (), 0
                if (
                    not 1 <= k <= model.order
                    or len(gram) != k
                    or count < 1
                    or not all(0 <= token < model.vocab_size for token in gram)
                ):
                    raise ValueError(f"{path}: malformed count line {line_no}")
                grams[k - 1][tuple(gram)] = count
        model._set_counts(grams)
        return model
