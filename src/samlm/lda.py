"""Collapsed-Gibbs latent Dirichlet allocation for manufacturing category
labels on unlabeled corpora.

Labels are produced once and frozen into the corpus file; training never
re-runs the sampler. Note the protocol labels the same documents that are
later modeled, so the pseudo-category leaks a single discrete summary of each
document into its own label. That is the intended protocol, not a bug.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace

import numpy as np

from . import settings
from .corpus import Document, IndexedDocument


@dataclass
class LdaConfig:
    n_topics: int = 5
    alpha: float | None = None  # defaults to 50 / n_topics
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 0

    def validate(self) -> None:
        settings.integer("n_topics", self.n_topics, 2)
        if self.alpha is not None:
            settings.real("alpha", self.alpha)
        settings.real("beta", self.beta)
        settings.integer("iterations", self.iterations, 0)
        settings.integer("seed", self.seed, 0)

    @property
    def effective_alpha(self) -> float:
        return self.alpha if self.alpha is not None else 50.0 / self.n_topics


@dataclass
class TopicModel:
    config: LdaConfig
    vocab_size: int
    doc_topic: np.ndarray  # docs x topics
    topic_word: np.ndarray  # topics x vocab
    topic_totals: np.ndarray  # topics
    assignments: list[np.ndarray] = field(default_factory=list)
    doc_tokens: list[np.ndarray] = field(default_factory=list)

    def audit_counts(self) -> None:
        """Check the count tables against the raw assignments."""
        n_docs, K = self.doc_topic.shape
        empty = np.empty(0, dtype=np.int64)
        tokens = np.concatenate([empty, *self.doc_tokens])
        topics = np.concatenate([empty, *self.assignments])
        lengths = [len(t) for t in self.doc_tokens]
        if (
            len(lengths) != n_docs
            or lengths != [len(z) for z in self.assignments]
            or not np.all((0 <= topics) & (topics < K))
            or not np.all((0 <= tokens) & (tokens < self.vocab_size))
        ):
            raise AssertionError("topic assignments do not fit the count tables")
        docs = np.repeat(np.arange(n_docs), lengths)
        doc_topic = np.bincount(docs * K + topics, minlength=n_docs * K).reshape(n_docs, K)
        topic_word = np.bincount(topics * self.vocab_size + tokens, minlength=K * self.vocab_size)
        topic_word = topic_word.reshape(K, self.vocab_size)
        if not (
            np.array_equal(doc_topic, self.doc_topic)
            and np.array_equal(topic_word, self.topic_word)
            and np.array_equal(topic_word.sum(axis=1), self.topic_totals)
        ):
            raise AssertionError("topic count tables disagree with assignments")


def _doc_words(doc: IndexedDocument) -> np.ndarray:
    # drop the trailing EOS; titles are not part of the topic sample
    return np.array(doc.text_ids[:-1], dtype=np.int64)


def fit(docs: list[IndexedDocument], cfg: LdaConfig, vocab_size: int) -> TopicModel:
    """Collapsed Gibbs sampling for cfg.iterations sweeps, seeded.

    The counts live in Python lists (one list of K per word and per document)
    and each token's draw is done with Python floats, because numpy's per-call
    cost dwarfs arithmetic on K-length arrays. The arithmetic is that of the
    array form, operation for operation: each weight is
    (word count + beta) / (topic total + beta V) * (document count + alpha),
    the weights are summed left to right as np.cumsum does, and the new topic
    is the first whose running sum reaches u = uniform * total, as
    np.searchsorted(side="left") finds it. The draws come from the same
    generator calls, so the chain is the array form's, bit for bit.
    """
    cfg.validate()
    if not docs:
        raise ValueError("cannot fit a topic model on an empty corpus")
    if vocab_size < 1:
        raise ValueError("empty vocabulary")
    doc_tokens = [_doc_words(d) for d in docs]
    for doc, tokens in zip(docs, doc_tokens):
        if len(tokens) and not (0 <= tokens.min() and tokens.max() < vocab_size):
            raise ValueError(f"document {doc.id}: token id outside [0, {vocab_size})")
    rng = np.random.default_rng(cfg.seed)
    K = cfg.n_topics
    alpha = float(cfg.effective_alpha)
    beta = float(cfg.beta)
    beta_total = beta * vocab_size

    words = [tokens.tolist() for tokens in doc_tokens]
    word_topic = [[0] * K for _ in range(vocab_size)]  # vocab x topics
    doc_topic = [[0] * K for _ in words]
    totals = [0] * K
    assignments: list[list[int]] = []
    for tokens, counts in zip(words, doc_topic):
        z = rng.integers(0, K, size=len(tokens)).tolist()
        assignments.append(z)
        for w, k in zip(tokens, z):
            counts[k] += 1
            word_topic[w][k] += 1
            totals[k] += 1

    topics = range(K)
    n_tokens = sum(len(t) for t in words)
    corpus_rows = [word_topic[w] for w in set().union(*words)]  # the only rows a sweep can change
    for _ in range(cfg.iterations):
        for tokens, z, counts in zip(words, assignments, doc_topic):
            # one uniform per token, in token order: the stream of per-token draws
            for i, (w, u) in enumerate(zip(tokens, rng.random(len(tokens)).tolist())):
                k = z[i]
                tw = word_topic[w]
                counts[k] -= 1
                tw[k] -= 1
                totals[k] -= 1

                running = 0.0
                cumulative = []
                for j in topics:
                    running += (tw[j] + beta) / (totals[j] + beta_total) * (counts[j] + alpha)
                    cumulative.append(running)
                k = bisect_left(cumulative, u * running)

                z[i] = k
                counts[k] += 1
                tw[k] += 1
                totals[k] += 1
        # bookkeeping invariant, checked after every sweep
        if (
            sum(totals) != n_tokens
            or [sum(c) for c in doc_topic] != [len(t) for t in words]
            or [sum(column) for column in zip([0] * K, *corpus_rows)] != totals
        ):
            raise AssertionError("topic count tables lost consistency during sampling")

    return TopicModel(
        config=cfg,
        vocab_size=vocab_size,
        doc_topic=np.array(doc_topic, dtype=np.int64),
        topic_word=np.ascontiguousarray(np.array(word_topic, dtype=np.int64).T),
        topic_totals=np.array(totals, dtype=np.int64),
        assignments=[np.array(z, dtype=np.int64) for z in assignments],
        doc_tokens=doc_tokens,
    )


def assign_categories(model: TopicModel) -> list[int]:
    """Largest smoothed topic weight per document; ties take the lowest index."""
    return np.argmax(model.doc_topic + model.config.effective_alpha, axis=1).tolist()


def top_words(model: TopicModel, k: int, vocab) -> list[list[str]]:
    """Per-topic word ranking by topic-word count, ties lexicographic."""
    if k < 0:
        raise ValueError(f"top-word count must be non-negative, got {k}")
    result = []
    for topic in range(model.config.n_topics):
        counts = model.topic_word[topic]
        seen = [w for w in range(model.vocab_size) if counts[w] > 0]
        seen.sort(key=lambda w: (-counts[w], vocab.token_for(w)))
        result.append([vocab.token_for(w) for w in seen[:k]])
    return result


def label_corpus(model: TopicModel, docs: list[Document]) -> list[Document]:
    """Copy of the corpus with the category field filled as topic-<k>."""
    if len(docs) != len(model.doc_topic):
        raise ValueError("document count does not match the fitted model")
    labels = assign_categories(model)
    return [replace(doc, category=f"topic-{k}") for doc, k in zip(docs, labels)]
