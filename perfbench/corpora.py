"""Seeded synthetic corpora with planted topic and author structure.

Every token comes from one of three bands: a shared band of function words,
the document's topic band, or its author's style band. Each band is
Zipf-distributed over its own word list, and word names do not depend on the
seed, so only the draws change from seed to seed. A document's topic is its
author's preferred topic most of the time, which gives author conditioning and
LDA something to find; the title is drawn from the topic band alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

N_TOPICS = 5
N_AUTHORS = 12
ZIPF_S = 1.0  # exponent of every band
P_COMMON = 0.1  # share of tokens from the shared band
P_STYLE = 0.05  # share from the author's style band; the rest from the topic band
P_PREFERRED_TOPIC = 0.8  # a document's topic is its author's (author mod N_TOPICS) this often


@dataclass(frozen=True)
class CorpusSpec:
    n_train: int
    n_heldout: int
    common_words: int
    topic_words: int  # per topic
    style_words: int  # per author
    title_len: tuple[int, int]  # inclusive range
    text_len: tuple[int, int]  # inclusive range


def _zipf(n: int, s: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    return np.cumsum(weights / weights.sum())


def _draw(rng: np.random.Generator, cdf: np.ndarray, words: list[str], size: int) -> list[str]:
    idx = np.minimum(np.searchsorted(cdf, rng.random(size)), len(words) - 1)
    return [words[i] for i in idx]


def make_corpus(spec: CorpusSpec, seed: int) -> tuple[list[dict], list[dict]]:
    """JSONL records for the train and held-out files. The `category` field
    names the planted topic, which LDA labelling should recover."""
    rng = np.random.default_rng(seed)
    common = [f"c{i}" for i in range(spec.common_words)]
    topics = [[f"t{k}_{i}" for i in range(spec.topic_words)] for k in range(N_TOPICS)]
    styles = [[f"a{a}_{i}" for i in range(spec.style_words)] for a in range(N_AUTHORS)]
    common_cdf = _zipf(spec.common_words, ZIPF_S)
    topic_cdf = _zipf(spec.topic_words, ZIPF_S)
    style_cdf = _zipf(spec.style_words, ZIPF_S)

    records = []
    for n in range(spec.n_train + spec.n_heldout):
        author = int(rng.integers(N_AUTHORS))
        topic = author % N_TOPICS
        if rng.random() >= P_PREFERRED_TOPIC:
            topic = int(rng.integers(N_TOPICS))
        title = _draw(rng, topic_cdf, topics[topic], int(rng.integers(spec.title_len[0], spec.title_len[1] + 1)))
        length = int(rng.integers(spec.text_len[0], spec.text_len[1] + 1))
        band = rng.random(length)
        common_part = _draw(rng, common_cdf, common, length)
        style_part = _draw(rng, style_cdf, styles[author], length)
        topic_part = _draw(rng, topic_cdf, topics[topic], length)
        text = [
            common_part[i] if u < P_COMMON
            else style_part[i] if u < P_COMMON + P_STYLE
            else topic_part[i]
            for i, u in enumerate(band)
        ]
        records.append(
            {
                "id": f"d{n}",
                "title": " ".join(title),
                "text": " ".join(text),
                "author": f"author{author}",
                "category": f"cat{topic}",
            }
        )
    return records[: spec.n_train], records[spec.n_train :]


def write_jsonl(records: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
