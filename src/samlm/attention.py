"""Title-word and attribute-level attention.

Both mechanisms share one bilinear form: a candidate vector v (dimension
d_attr) is scored against the previous main hidden state h (dimension d) as
v @ M @ h, the scores pass through a softmax, and the context is the weighted
sum of candidates. Title attention runs over the title encoder states; the
attribute attention runs over the set of attribute embeddings, one of which
may itself be the title context. Both attend a batch of rows, each over its
own candidates stacked in one k x n x d_attr array; a title shorter than the
batch's longest is zero-padded, and a -inf score bias gives the padding no
weight.
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
    """Encoder states of a batch of titles, each run left to right from the
    zero state: `padded[i, p]` is title i's state at position p, zero past
    its last position `ends[i]`, where `bias[i, p]` turns from 0 to -inf.

    The encoder steps the titles longest first, so the titles still running
    at any position are a prefix of its rows; `order[r]` is the title of row
    r, and `caches[p]` and `token_ids[:, p]` the step at position p of the
    rows still running.
    """

    padded: np.ndarray
    bias: np.ndarray
    ends: np.ndarray
    order: np.ndarray
    token_ids: np.ndarray
    caches: list[GruCache]

    @property
    def last(self) -> np.ndarray:
        """Each title's final state, one row per title (B x d_tilde)."""
        return self.padded[np.arange(len(self.padded)), self.ends]


def encode_title(cell: GruCell, titles, embeddings: np.ndarray) -> TitleEncoding:
    """Run the title GRU over a batch of titles (sequences of token ids),
    stepping every title still running in one call per position."""
    if not titles or not all(len(title) for title in titles):
        raise ValueError("cannot encode an empty title")
    lengths = np.array([len(title) for title in titles])
    order = np.argsort(-lengths, kind="stable")
    positions = np.arange(lengths.max())
    token_ids = np.zeros((len(titles), len(positions)), dtype=np.intp)
    for row, i in enumerate(order):
        token_ids[row, : lengths[i]] = titles[i]
    inputs = embeddings[token_ids]
    padded = np.zeros((len(titles), len(positions), cell.hidden_dim))
    h = np.zeros((len(titles), cell.hidden_dim))
    caches = []
    for pos, k in enumerate((lengths[:, None] > positions).sum(axis=0).tolist()):
        h, cache = cell.step(inputs[:k, pos], h[:k])
        padded[:k, pos] = h
        caches.append(cache)
    bias = np.where(positions < lengths[:, None], 0.0, -np.inf)
    return TitleEncoding(padded[np.argsort(order)], bias, lengths - 1, order, token_ids, caches)


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
        self, vectors: np.ndarray, h_prev: np.ndarray, bias: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, AttentionCache]:
        """Attend k rows, each over its own n candidates: `vectors` is
        k x n x d_attr, `h_prev` the rows' states (k x d), and the optional
        `bias` (k x n) is added to the scores. Returns the contexts
        (k x d_attr), the weights (k x n) and the cache; every product is one
        stacked `np.matmul` over the rows."""
        if not vectors.shape[1]:
            raise ValueError("attention over an empty candidate set")
        mh = np.dot(h_prev, self.M.value.T)  # np.dot, as in GruCell.step
        scores = np.matmul(vectors, mh[:, :, None])[:, :, 0]
        weights = softmax(scores if bias is None else scores + bias)
        context = np.matmul(weights[:, None], vectors)[:, 0]
        return context, weights, AttentionCache(vectors=vectors, h_prev=h_prev, mh=mh, weights=weights)

    def backward(self, cache: AttentionCache, dcontext: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chain rule through the weighted sum, softmax, and bilinear score,
        given the contexts' gradients (k x d_attr).

        Returns the candidate gradients (k x n x d_attr, zero at a padded
        candidate), the gradient w.r.t. h_prev (k x d), and u (k x d_attr),
        for which M's gradient is u.T @ h_prev; `add_weight_grads` forms that
        once for a run of steps.
        """
        vectors, weights = cache.vectors, cache.weights
        dweights = np.matmul(vectors, dcontext[:, :, None])[:, :, 0]
        dscores = weights * (dweights - np.matmul(weights[:, None], dweights[:, :, None])[:, 0])
        u = np.matmul(dscores[:, None], vectors)[:, 0]
        dvectors = weights[:, :, None] * dcontext[:, None] + dscores[:, :, None] * cache.mh[:, None]
        return dvectors, np.dot(u, self.M.value), u

    def add_weight_grads(self, caches: list[AttentionCache], us: list[np.ndarray]) -> None:
        """Accumulate M's gradient over a run of steps in one product."""
        self.M.grad += np.vstack(us).T @ np.vstack([cache.h_prev for cache in caches])


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
