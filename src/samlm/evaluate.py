"""Corpus-level perplexity and the per-word perplexity-change report.

Perplexity is the exponential of the mean per-token negative log-likelihood
over main-text tokens. EOS and UNK targets are counted; title tokens are
conditioning context only and never enter the sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import settings
from .atomic import write_text
from .corpus import UNK_ID, IndexedDocument, Vocabulary


@dataclass
class PerplexityReport:
    model_id: str
    corpus_id: str
    token_count: int
    total_nll: float
    perplexity: float
    unk_count: int = 0

    @classmethod
    def from_totals(cls, model_id, corpus_id, token_count, total_nll, unk_count=0):
        if token_count == 0:
            raise ValueError("perplexity over zero tokens")
        return cls(
            model_id=model_id,
            corpus_id=corpus_id,
            token_count=token_count,
            total_nll=total_nll,
            perplexity=float(np.exp(total_nll / token_count)),
            unk_count=unk_count,
        )

    def csv(self) -> str:
        return (
            "model_id,corpus_id,token_count,unk_count,total_nll,perplexity\n"
            f"{self.model_id},{self.corpus_id},{self.token_count},{self.unk_count},"
            f"{self.total_nll:.9g},{self.perplexity:.9g}\n"
        )


def perplexity(model, docs: list[IndexedDocument], model_id: str = "", corpus_id: str = "") -> PerplexityReport:
    """Corpus perplexity of any model exposing document_nll(doc)."""
    if not docs:
        raise ValueError("perplexity over an empty corpus")
    results = [model.document_nll(doc) for doc in docs]
    total_nll = sum(r[0] for r in results)
    token_count = sum(r[1] for r in results)
    unk_count = sum(doc.text_ids.count(UNK_ID) for doc in docs)
    return PerplexityReport.from_totals(model_id, corpus_id, token_count, total_nll, unk_count)


@dataclass
class WordDelta:
    word: str
    mean_delta: float
    count: int


@dataclass
class CategoryDeltas:
    category: str
    improved: list[WordDelta] = field(default_factory=list)
    alike: list[WordDelta] = field(default_factory=list)
    worse: list[WordDelta] = field(default_factory=list)


@dataclass
class WordDeltaReport:
    """Per category, words whose prediction improved / stayed alike / got
    worse under model_b relative to model_a (mean NLL difference b - a)."""

    threshold: float
    min_count: int
    categories: dict[str, CategoryDeltas] = field(default_factory=dict)


def word_delta(
    model_a,
    model_b,
    docs: list[IndexedDocument],
    vocab: Vocabulary,
    categories: Vocabulary | None = None,
    threshold: float = 0.05,
    min_count: int = 5,
) -> WordDeltaReport:
    settings.real("threshold", threshold, or_zero=True)
    settings.integer("min_count", min_count, 0)
    if model_a.config.vocab_size != model_b.config.vocab_size:
        raise ValueError("models must share a vocabulary")
    sums: dict[str, dict[int, float]] = {}
    counts: dict[str, dict[int, int]] = {}
    for doc in docs:
        if doc.category_id is not None and categories is not None:
            group = categories.token_for(doc.category_id)
        else:
            group = "all"
        nll_a = model_a.forward_document(doc, want_trace=False, want_caches=False).per_word_nll
        nll_b = model_b.forward_document(doc, want_trace=False, want_caches=False).per_word_nll
        g_sums = sums.setdefault(group, {})
        g_counts = counts.setdefault(group, {})
        for target, a, b in zip(doc.text_ids, nll_a, nll_b):
            g_sums[target] = g_sums.get(target, 0.0) + (b - a)
            g_counts[target] = g_counts.get(target, 0) + 1

    report = WordDeltaReport(threshold=threshold, min_count=min_count)
    for group in sorted(sums):
        deltas = [
            WordDelta(word=vocab.token_for(t), mean_delta=g_sum / counts[group][t], count=counts[group][t])
            for t, g_sum in sums[group].items()
            if counts[group][t] >= min_count
        ]
        bucket = CategoryDeltas(category=group)
        for wd in deltas:
            if wd.mean_delta <= -threshold:
                bucket.improved.append(wd)
            elif wd.mean_delta >= threshold:
                bucket.worse.append(wd)
            else:
                bucket.alike.append(wd)
        bucket.improved.sort(key=lambda w: (w.mean_delta, w.word))
        bucket.worse.sort(key=lambda w: (-w.mean_delta, w.word))
        bucket.alike.sort(key=lambda w: (abs(w.mean_delta), w.word))
        report.categories[group] = bucket
    return report


def write_word_delta_csv(report: WordDeltaReport, path) -> None:
    lines = ["category,bucket,word,mean_delta_nll,count"]
    for group, deltas in report.categories.items():
        for bucket_name in ("improved", "alike", "worse"):
            for wd in getattr(deltas, bucket_name):
                lines.append(f"{group},{bucket_name},{wd.word},{wd.mean_delta:.6f},{wd.count}")
    write_text(path, "\n".join(lines) + "\n")


def format_word_delta(report: WordDeltaReport, top: int = 12) -> str:
    """Human-readable table of the strongest movers per category."""
    out = []
    for group, deltas in report.categories.items():
        out.append(f"== category: {group} ==")
        for bucket_name in ("improved", "alike", "worse"):
            words = ", ".join(w.word for w in getattr(deltas, bucket_name)[:top])
            out.append(f"{bucket_name:>9}: {words}")
    return "\n".join(out)
