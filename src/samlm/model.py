"""The attribute-modulated GRU language model and its baseline variants.

Per timestep the model embeds the input word, builds the active attribute
candidate set (title context via title attention, author and category table
rows), fuses candidates with attribute attention when there is more than one,
concatenates the fused context onto the word embedding, and steps the main
GRU. A batch of documents steps in lockstep, one row per document. An affine
softmax layer scores the next word from each hidden state; it never feeds
back into the recurrence, so teacher forcing applies it once to each
document's stacked states and decoding once per stepped state.

Conventions the whole package relies on:
  - the first prediction conditions on the PAD embedding standing in for a
    beginning-of-sequence token;
  - prediction targets are the document tokens followed by EOS; titles are
    conditioning context only and are never predicted;
  - state-initialized variants map the title encoder's last state through a
    learned affine layer to seed the main hidden state (identity-initialized
    when the dimensions already agree).
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from . import settings, tensor
from .attention import (
    AttentionCache,
    AttentionTrace,
    BilinearAttention,
    TitleEncoding,
    encode_title,
)
from .corpus import IndexedDocument, PAD_ID
from .gru import GruCache, GruCell
from .tensor import ParamStore

# Teacher forcing runs the output layer over blocks of OUTPUT_BLOCK // V
# targets, taken in document order (32 MiB of float64 per targets x V array),
# so its memory grows neither with the batch nor with a document's length.
# Blocks of fewer rows make the products slower: 30 targets per block took
# 2.5x the time of 600 in one at V = 10 000, d = 200 (OpenBLAS, one thread,
# x86-64).
OUTPUT_BLOCK = 1 << 22
# The output layer's products run in pieces on the worker pool
# (`tensor.run_pieces`), split only along axes they do not reduce, and each
# piece does at least PIECE_WORK multiply-adds. With OpenBLAS 0.3.31 (x86-64)
# a piece then has the bits of the same rows of the whole product: in a sweep
# the only pieces that differed were one-row pieces (numpy's matrix-vector
# path) and those of at most 10**6 multiply-adds (OpenBLAS's small-matrix
# kernel), at V = 1 000 and 10 000, d = 200. Smaller pieces saved little.
PIECE_WORK = 1 << 21


@dataclass(frozen=True)
class VariantSpec:
    name: str
    title_attention: bool = False
    bow: bool = False
    author: bool = False
    category: bool = False
    state_init: bool = False

    @property
    def uses_context(self) -> bool:
        return self.title_attention or self.bow or self.author or self.category

    @property
    def needs_title(self) -> bool:
        return self.title_attention or self.state_init or self.bow

    @property
    def needs_title_encoder(self) -> bool:
        return self.title_attention or self.state_init

    @property
    def candidate_names(self) -> tuple[str, ...]:
        names = []
        if self.title_attention:
            names.append("title")
        if self.author:
            names.append("author")
        if self.category:
            names.append("category")
        return tuple(names)


VARIANTS: dict[str, VariantSpec] = {
    spec.name: spec
    for spec in [
        VariantSpec("RNN"),
        VariantSpec("RNN-State", state_init=True),
        VariantSpec("RNN-BOW", bow=True),
        VariantSpec("SAM-Cat", category=True),
        VariantSpec("SAM-Title-Att", title_attention=True),
        VariantSpec("SAM-Title-Att-State", title_attention=True, state_init=True),
        VariantSpec("SAM-Au-Att", author=True),
        VariantSpec("SAM-Title-Au-Att", title_attention=True, author=True),
        VariantSpec("SAM-Title-State-Au-Att", title_attention=True, author=True, state_init=True),
    ]
}


@dataclass
class ModelConfig:
    variant: str
    d: int
    d_tilde: int
    vocab_size: int
    n_authors: int = 0
    n_categories: int = 0
    seed: int = 0

    def validate(self) -> VariantSpec:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {sorted(VARIANTS)}, got {self.variant!r}")
        spec = VARIANTS[self.variant]
        settings.integer("d", self.d, 1)
        settings.integer("d_tilde", self.d_tilde, 1)
        settings.integer("vocab_size", self.vocab_size, 4)  # the three specials plus a token
        settings.integer("n_authors", self.n_authors, int(spec.author))  # an author variant needs the inventory
        settings.integer("n_categories", self.n_categories, int(spec.category))
        settings.integer("seed", self.seed, 0)
        return spec


@dataclass
class BatchState:
    """Conditioning of a batch of documents, prepared once before stepping:
    one row per document, in the order `prepare` was given them."""

    h0: np.ndarray
    title_ids: list[tuple[int, ...]] | None = None
    enc: TitleEncoding | None = None
    bow_vec: np.ndarray | None = None
    mean_emb: np.ndarray | None = None
    author_ids: np.ndarray | None = None
    category_ids: np.ndarray | None = None
    attributes: np.ndarray | None = None  # author/category rows, B x n x d_tilde


@dataclass
class StepRecord:
    """One step of the recurrence for the rows it ran: their inputs and new
    states, their attention weights over title words and over attributes
    (one row each), and what backpropagation needs."""

    x_ids: np.ndarray
    h: np.ndarray
    gru: GruCache
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    title_att: AttentionCache | None = None
    attr_att: AttentionCache | None = None


@dataclass
class DocForward:
    """A teacher-forced pass over a batch of documents.

    The rows of `state` are the documents sorted longest first, so the rows
    still running at any step are a prefix. `total_nll` sums every target;
    `per_word_nll` lists the targets' NLLs document by document, in the order
    the documents were given. With caches it also holds the step records
    and the output layer's part of the backward pass: the summed NLL's
    gradient w.r.t. each hidden state (N x d, stacked step by step, each
    step's rows in order), Wout and bout.
    The output layer runs over fixed blocks of targets in document order
    (`OUTPUT_BLOCK`), so no targets x V array outlives its block, however
    long the document.
    """

    state: BatchState
    total_nll: float
    per_word_nll: list[float]
    trace: AttentionTrace
    caches: list[StepRecord] = field(default_factory=list)
    dhidden: np.ndarray | None = None
    dWout: np.ndarray | None = None
    dbout: np.ndarray | None = None


class SamModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator | None):
        """Parameters drawn from `rng`; with None they are allocated but left
        unset, for a caller that loads every tensor next (`load_model`)."""
        spec = config.validate()
        self.config = config
        self.variant = spec
        self.store = ParamStore()
        d, dt, v = config.d, config.d_tilde, config.vocab_size

        self.E = self.store.add("E", (v, d), rng=rng)
        self.Wout = self.store.add("Wout", (v, d), rng=rng)
        self.bout = self.store.add("bout", (v,), init="zeros")

        # the output layer's products over target rows cost V x d multiply-adds a row
        self.rows_per_piece = max(2, -(-PIECE_WORK // (v * d)))

        main_input = d + dt if spec.uses_context else d
        self.main_cell = GruCell(self.store, "main", main_input, d, rng)

        self.title_cell = None
        if spec.needs_title_encoder:
            self.title_cell = GruCell(self.store, "title", d, dt, rng)
        self.state_W = self.state_b = None
        if spec.state_init:
            init = "identity" if d == dt else "uniform"
            self.state_W = self.store.add("state.W", (d, dt), init=init, rng=rng)
            self.state_b = self.store.add("state.b", (d,), init="zeros")
        self.bow_W = None
        if spec.bow:
            self.bow_W = self.store.add("bow.W", (dt, d), rng=rng)
        self.author_table = None
        if spec.author:
            self.author_table = self.store.add("authors", (config.n_authors, dt), rng=rng)
        self.category_table = None
        if spec.category:
            self.category_table = self.store.add("categories", (config.n_categories, dt), rng=rng)
        self.title_att = None
        if spec.title_attention:
            self.title_att = BilinearAttention(self.store, "M1", dt, d, rng)
        self.attr_att = None
        if len(spec.candidate_names) >= 2:
            self.attr_att = BilinearAttention(self.store, "M2", dt, d, rng)

    # ------------------------------------------------------------- forward

    def prepare(self, docs: list[IndexedDocument]) -> BatchState:
        """Resolve the documents' conditioning inputs for this variant; the
        title encoder runs once over all their titles."""
        spec = self.variant
        for doc in docs:
            if spec.needs_title and not doc.title_ids:
                raise ValueError(f"variant {spec.name} requires a title (doc {doc.id})")
            if spec.author:
                if doc.author_id is None:
                    raise ValueError(f"variant {spec.name} requires an author (doc {doc.id})")
                if not 0 <= doc.author_id < self.config.n_authors:
                    raise ValueError(f"author id {doc.author_id} out of range (doc {doc.id})")
            if spec.category:
                if doc.category_id is None:
                    raise ValueError(f"variant {spec.name} requires a category (doc {doc.id})")
                if not 0 <= doc.category_id < self.config.n_categories:
                    raise ValueError(f"category id {doc.category_id} out of range (doc {doc.id})")
        state = BatchState(h0=np.zeros((len(docs), self.config.d)))
        if spec.needs_title:
            state.title_ids = [tuple(doc.title_ids) for doc in docs]
        attributes = []
        if spec.author:
            state.author_ids = np.array([doc.author_id for doc in docs])
            attributes.append(self.author_table.value[state.author_ids])
        if spec.category:
            state.category_ids = np.array([doc.category_id for doc in docs])
            attributes.append(self.category_table.value[state.category_ids])
        if attributes:
            state.attributes = np.stack(attributes, axis=1)
        if spec.needs_title_encoder:
            state.enc = encode_title(self.title_cell, state.title_ids, self.E.value)
        if spec.state_init:
            state.h0 = state.enc.last @ self.state_W.value.T + self.state_b.value
        if spec.bow:
            state.mean_emb = np.array([self.E.value[list(ids)].mean(axis=0) for ids in state.title_ids])
            state.bow_vec = state.mean_emb @ self.bow_W.value.T
        return state

    def step(self, x_ids, h_prev: np.ndarray, state: BatchState) -> StepRecord:
        """One recurrence step of the first k = len(x_ids) rows of `state`,
        from their states h_prev (k x d); no output layer."""
        spec = self.variant
        k = len(x_ids)
        x_emb = self.E.value.take(x_ids, axis=0)
        context = alpha = beta = None
        t_cache = a_cache = None

        if spec.bow:
            context = state.bow_vec[:k]
        elif spec.title_attention:
            context, alpha, t_cache = self.title_att.attend(state.enc.padded[:k], h_prev, state.enc.bias[:k])
        if self.attr_att is not None:
            candidates = state.attributes[:k]
            if spec.title_attention:
                candidates = np.concatenate((context[:, None], candidates), axis=1)
            context, beta, a_cache = self.attr_att.attend(candidates, h_prev)
        elif spec.candidate_names:
            # single attribute: attention over one candidate is the identity
            beta = np.ones((k, 1))
            if context is None:
                context = state.attributes[:k, 0]
        w = x_emb if context is None else np.concatenate((x_emb, context), axis=1)

        h, g_cache = self.main_cell.step(w, h_prev)
        return StepRecord(x_ids, h, g_cache, alpha=alpha, beta=beta, title_att=t_cache, attr_att=a_cache)

    def output(self, h: np.ndarray) -> np.ndarray:
        """Next-word logits of one hidden state (d) or a stack of them (T x d),
        a stack in pieces of rows on the worker pool."""
        W, b = self.Wout.value, self.bout.value
        if h.ndim == 1:
            return h @ W.T + b
        logits = np.empty((len(h), len(W)))

        def rows(lo: int, hi: int) -> None:
            np.matmul(h[lo:hi], W.T, out=logits[lo:hi])
            logits[lo:hi] += b

        tensor.run_pieces(len(h), rows, self.rows_per_piece)
        return logits

    def unroll(
        self,
        states: list[BatchState],
        choose: Callable[[list[StepRecord]], np.ndarray | None],
        want_trace: bool = True,
    ) -> AttentionTrace:
        """The recurrence loop: step `states` in lockstep on one input stream.

        Every row starts at PAD. After each step `choose` gets the records,
        one per state, and returns the next input ids or None to stop. The
        ids are one per row still running, and those must be the first rows:
        the next targets of the documents that go on under teacher forcing,
        the chosen token of a one-row state when decoding. Returns the
        attention trace of the first state's first row: title-word weights
        and attribute weights stacked one column per step, None where the
        variant has none.
        """
        hs = [state.h0 for state in states]
        alphas: list[np.ndarray | None] = []
        betas: list[np.ndarray | None] = []
        x_ids = np.full(len(hs[0]), PAD_ID)
        while x_ids is not None:
            steps = [self.step(x_ids, h[: len(x_ids)], state) for h, state in zip(hs, states)]
            if want_trace:
                first = steps[0]
                alphas.append(None if first.alpha is None else first.alpha[0])
                betas.append(None if first.beta is None else first.beta[0])
            hs = [s.h for s in steps]
            x_ids = choose(steps)

        def stack(cols):
            return np.column_stack(cols) if cols and cols[0] is not None else None

        return AttentionTrace(
            alpha=stack(alphas), beta=stack(betas), attr_names=list(self.variant.candidate_names)
        )

    def forward_document(self, docs, want_trace: bool = True, want_caches: bool = True) -> DocForward:
        """Teacher-forced pass over one document or a batch of them, EOS
        included.

        The documents run in lockstep as rows sorted longest first, and a row
        drops out when its document ends, so every step is one product per
        weight over the rows still running. The output layer then scores
        each block of targets in one product (a batch within one block keeps
        the bits of the per-document pass), run in pieces on the worker pool
        with that product's bits (`PIECE_WORK`). A trace covers one document.
        """
        docs = [docs] if isinstance(docs, IndexedDocument) else list(docs)
        for doc in docs:
            if not doc.text_ids:
                raise ValueError(f"document {doc.id} has no tokens to predict")
        if want_trace and len(docs) > 1:
            raise ValueError("an attention trace covers one document")
        order = np.argsort([-len(doc.text_ids) for doc in docs], kind="stable")
        state = self.prepare([docs[i] for i in order])
        lengths = np.array([len(docs[i].text_ids) for i in order])
        grid = np.full((lengths[0], len(docs)), PAD_ID)  # targets, step x row
        running = np.arange(lengths[0])[:, None] < lengths
        for row, i in enumerate(order):
            grid[: lengths[row], row] = docs[i].text_ids
        rows_at = running.sum(axis=1).tolist()  # rows still running at each step
        # the input of step t + 1: step t's targets of the rows still running then
        feeds = iter([grid[t, : rows_at[t + 1]] for t in range(len(rows_at) - 1)] + [None])
        steps: list[StepRecord] = []

        def teacher(new: list[StepRecord]) -> np.ndarray | None:
            steps.append(new[0])
            return next(feeds)

        trace = self.unroll([state], teacher, want_trace)
        hidden = np.concatenate([s.h for s in steps])
        position = np.zeros(running.shape, dtype=np.intp)  # (step, row) -> index in hidden
        position[running] = np.arange(len(hidden))
        fwd = DocForward(state, 0.0, [], trace)
        if want_caches:
            fwd.caches = steps
            fwd.dhidden = np.empty_like(hidden)
        # every target's index in hidden, and its token, the documents in the given order
        at = np.concatenate([position[: lengths[row], row] for row in np.argsort(order)])
        targets = np.concatenate([doc.text_ids for doc in docs])
        per_word = np.empty(len(at))
        W, (V, d) = self.Wout.value, self.Wout.value.shape
        size = max(1, OUTPUT_BLOCK // V)
        for start in range(0, len(at), size):
            block = slice(start, start + size)
            h = hidden[at[block]]
            logits = self.output(h)

            def score(lo: int, hi: int) -> None:
                # softmax of the block's rows lo:hi, their NLLs and the gradient w.r.t. their states
                shifted, rows = logits[lo:hi], slice(start + lo, start + hi)
                shifted -= shifted.max(axis=1, keepdims=True)
                picked = np.arange(hi - lo), targets[rows]
                target_logits = shifted[picked]
                exps = np.exp(shifted, out=shifted)
                sums = exps.sum(axis=1)
                per_word[rows] = np.log(sums) - target_logits
                if want_caches:
                    dlogits = exps
                    dlogits /= sums[:, None]
                    dlogits[picked] -= 1.0
                    fwd.dhidden[at[rows]] = dlogits @ W

            def vocab_grads(lo: int, hi: int) -> None:
                # rows lo:hi of dWout and dbout; the first block writes them
                dlogits = logits[:, lo:hi]
                if start == 0:
                    np.matmul(dlogits.T, h, out=fwd.dWout[lo:hi])
                    fwd.dbout[lo:hi] = dlogits.sum(axis=0)
                else:
                    fwd.dWout[lo:hi] += dlogits.T @ h
                    fwd.dbout[lo:hi] += dlogits.sum(axis=0)

            tensor.run_pieces(len(h), score, self.rows_per_piece)
            if want_caches:
                if start == 0:
                    fwd.dWout, fwd.dbout = np.empty_like(W), np.empty(V)
                # vocabulary rows cost len(h) x d multiply-adds each; cut on multiples of 64
                tensor.run_pieces(V, vocab_grads, 64 * -(-PIECE_WORK // (64 * len(h) * d)), align=64)
        fwd.total_nll, fwd.per_word_nll = float(per_word.sum()), per_word.tolist()
        return fwd

    def document_nll(self, doc: IndexedDocument) -> tuple[float, int]:
        fwd = self.forward_document(doc, want_trace=False, want_caches=False)
        return fwd.total_nll, len(fwd.per_word_nll)

    # ------------------------------------------------------------ backward

    def backward_document(self, fwd: DocForward) -> None:
        """Accumulate gradients of the summed NLL into the store.

        Full backpropagation through time: output layer, main GRU, both
        attentions, the state-init map, the bag-of-words projection, the
        title encoder, and the shared embeddings. The recurrence runs back
        step by step over the same rows as the forward pass; every weight
        matrix's gradient is one product over all the batch's stacked steps
        (or its titles', for the encoder).
        """
        spec = self.variant
        state = fwd.state
        steps = fwd.caches
        if not steps:
            raise ValueError("backward needs the caches of a full forward pass")
        d = self.config.d

        self.Wout.grad += fwd.dWout
        self.bout.grad += fwd.dbout
        dhidden = fwd.dhidden

        enc = state.enc
        d_states = np.zeros_like(enc.padded) if enc is not None else None  # the batch's rows
        dbow = np.zeros_like(state.bow_vec) if spec.bow else None
        gate_grads: list = [None] * len(steps)
        title_us: list = [None] * len(steps)
        attr_us: list = [None] * len(steps)
        dh_next = np.zeros_like(state.h0)
        end = len(dhidden)

        for t in range(len(steps) - 1, -1, -1):
            step = steps[t]
            k = len(step.x_ids)
            dw, dh_prev, gate_grads[t] = self.main_cell.backward(step.gru, dhidden[end - k : end] + dh_next[:k])
            end -= k
            np.add.at(self.E.grad, step.x_ids, dw[:, :d])
            if spec.bow:
                dbow[:k] += dw[:, d:]
            elif spec.candidate_names:
                dcontext = dw[:, d:]
                if step.attr_att is not None:
                    dcands, dh_att, attr_us[t] = self.attr_att.backward(step.attr_att, dcontext)
                    dh_prev += dh_att
                else:
                    dcands = dcontext[:, None]
                for j, name in enumerate(spec.candidate_names):
                    dcand = dcands[:, j]
                    if name == "title":
                        dvecs, dh_att, title_us[t] = self.title_att.backward(step.title_att, dcand)
                        dh_prev += dh_att
                        d_states[:k] += dvecs
                    elif name == "author":
                        np.add.at(self.author_table.grad, state.author_ids[:k], dcand)
                    else:
                        np.add.at(self.category_table.grad, state.category_ids[:k], dcand)
            dh_next[:k] = dh_prev

        self.main_cell.add_weight_grads([step.gru for step in steps], gate_grads)
        if self.title_att is not None:
            self.title_att.add_weight_grads([step.title_att for step in steps], title_us)
        if self.attr_att is not None:
            self.attr_att.add_weight_grads([step.attr_att for step in steps], attr_us)
        if spec.state_init:
            self.state_W.grad += dh_next.T @ enc.last
            self.state_b.grad += dh_next.sum(axis=0)
            d_states[np.arange(len(d_states)), enc.ends] += dh_next @ self.state_W.value
        if spec.bow:
            self.bow_W.grad += dbow.T @ state.mean_emb
            for ids, dmean in zip(state.title_ids, dbow @ self.bow_W.value):
                np.add.at(self.E.grad, list(ids), dmean / len(ids))
        if enc is not None:
            d_states = d_states[enc.order]  # the encoder's rows, longest title first
            title_grads: list = [None] * len(enc.caches)
            dh_carry = np.zeros_like(enc.padded[:, 0])
            for pos in range(len(enc.caches) - 1, -1, -1):
                k = len(enc.caches[pos].w)
                dw_t, dh_carry[:k], title_grads[pos] = self.title_cell.backward(
                    enc.caches[pos], d_states[:k, pos] + dh_carry[:k]
                )
                np.add.at(self.E.grad, enc.token_ids[:k, pos], dw_t)
            self.title_cell.add_weight_grads(enc.caches, title_grads)


def build(config: ModelConfig) -> SamModel:
    """Deterministically initialized model for the given configuration."""
    return SamModel(config, np.random.default_rng(config.seed))


def save_model(model: SamModel, path) -> None:
    tensor.save_checkpoint(path, model.store, config=asdict(model.config))


def load_model(path) -> SamModel:
    values, config = tensor.load_checkpoint(path)
    if config is None:
        raise ValueError(f"checkpoint {path} carries no model config")
    try:
        model_config = ModelConfig(**config)  # TypeError: an unknown or missing key
        model_config.validate()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    model = SamModel(model_config, rng=None)
    model.store.load_values(values, source=f"checkpoint {path}")
    return model
