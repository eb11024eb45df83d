"""Title-word and attribute-level attention.

Both mechanisms share one bilinear form: a candidate vector v (dimension
d_attr) is scored against the previous main hidden state h (dimension d) as
v @ M @ h, the scores pass through a softmax, and the context is the weighted
sum of candidates. Title attention runs over the title encoder states; the
attribute attention runs over the set of attribute embeddings, one of which
may itself be the title context.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .gru import GruCache, GruCell
from .tensor import Param, ParamStore, softmax


@dataclass
class TitleEncoding:
    """Encoder states for one title, one row per word (n x d_tilde), left to
    right from the zero state."""

    states: np.ndarray
    caches: list[GruCache]

    @property
    def last(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)


def encode_title(cell: GruCell, title_ids, embeddings: np.ndarray) -> TitleEncoding:
    """Run the title GRU over the title's word embeddings."""
    if not title_ids:
        raise ValueError("cannot encode an empty title")
    states = np.empty((len(title_ids), cell.hidden_dim))
    caches = []
    h = np.zeros(cell.hidden_dim)
    for i, token_id in enumerate(title_ids):
        h, cache = cell.step(embeddings[token_id], h)
        states[i] = h
        caches.append(cache)
    return TitleEncoding(states=states, caches=caches)


@dataclass
class AttentionCache:
    vectors: np.ndarray
    h_prev: np.ndarray
    mh: np.ndarray
    weights: np.ndarray


class BilinearAttention:
    """Softmax attention with a bilinear score v @ M @ h_prev."""

    def __init__(self, store: ParamStore, name: str, attr_dim: int, hidden_dim: int, rng):
        self.M: Param = store.add(name, (attr_dim, hidden_dim), rng=rng)

    def attend(
        self, vectors: np.ndarray, h_prev: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
        """Return (context, weights, cache) for a non-empty candidate array,
        one candidate per row."""
        if len(vectors) == 0:
            raise ValueError("attention over an empty candidate set")
        mh = self.M.value @ h_prev
        weights = softmax(vectors @ mh)
        context = weights @ vectors
        return context, weights, AttentionCache(vectors=vectors, h_prev=h_prev, mh=mh, weights=weights)

    def backward(
        self, cache: AttentionCache, dcontext: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chain rule through the weighted sum, softmax, and bilinear score.

        Returns the candidate gradients (one row per candidate), the gradient
        w.r.t. h_prev, and u, for which M's gradient is outer(u, h_prev);
        `add_weight_grads` forms that once for a run of steps.
        """
        weights = cache.weights
        dweights = cache.vectors @ dcontext
        dscores = weights * (dweights - weights @ dweights)
        u = dscores @ cache.vectors
        dh_prev = self.M.value.T @ u
        dvectors = np.outer(weights, dcontext) + np.outer(dscores, cache.mh)
        return dvectors, dh_prev, u

    def add_weight_grads(self, caches: list[AttentionCache], us: list[np.ndarray]) -> None:
        """Accumulate M's gradient over a run of steps in one product."""
        self.M.grad += np.stack(us).T @ np.stack([cache.h_prev for cache in caches])


@dataclass
class AttentionTrace:
    """Attention weights captured over one forward or generation pass.

    alpha is title-words x steps, beta is attributes x steps; every column of
    each block is a probability distribution.
    """

    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    main_tokens: list[str] = field(default_factory=list)
    title_tokens: list[str] = field(default_factory=list)
    attr_names: list[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.alpha is None and self.beta is None


def write_trace_csv(trace: AttentionTrace, path) -> None:
    """CSV export: header row of main-text tokens, then the alpha block rows
    labeled by title tokens and the beta block rows labeled by attribute
    names. Weights are written to 6 decimal places."""
    if trace.empty:
        raise ValueError("attention trace is empty")
    blocks = []
    if trace.alpha is not None:
        labels = trace.title_tokens or [f"title_{t}" for t in range(trace.alpha.shape[0])]
        blocks.append((labels, trace.alpha))
    if trace.beta is not None:
        labels = trace.attr_names or [f"attr_{k}" for k in range(trace.beta.shape[0])]
        blocks.append((labels, trace.beta))
    n_steps = blocks[0][1].shape[1]
    main = trace.main_tokens or [f"step_{i}" for i in range(n_steps)]
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(main))
        for labels, block in blocks:
            for label, row in zip(labels, block):
                writer.writerow([label] + [f"{w:.6f}" for w in row])
