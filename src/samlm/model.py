"""The attribute-modulated GRU language model and its baseline variants.

Per timestep the model embeds the input word, builds the active attribute
candidate set (title context via title attention, author and category table
rows), fuses candidates with attribute attention when there is more than one,
concatenates the fused context onto the word embedding, and steps the main
GRU. An affine softmax layer scores the next word from each hidden state; it
never feeds back into the recurrence, so teacher forcing applies it once to
the stacked states of a whole document and decoding once per stepped state.

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

from . import tensor
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
            raise ValueError(f"unknown variant {self.variant!r}; known: {sorted(VARIANTS)}")
        if self.d < 1 or self.d_tilde < 1:
            raise ValueError("hidden sizes must be positive")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the three specials plus a token")
        spec = VARIANTS[self.variant]
        if spec.author and self.n_authors < 1:
            raise ValueError(f"variant {self.variant} needs an author inventory")
        if spec.category and self.n_categories < 1:
            raise ValueError(f"variant {self.variant} needs a category inventory")
        return spec


@dataclass
class DocState:
    """Per-document conditioning prepared once before stepping."""

    h0: np.ndarray
    title_ids: tuple[int, ...] | None = None
    enc: TitleEncoding | None = None
    bow_vec: np.ndarray | None = None
    mean_emb: np.ndarray | None = None
    author_id: int | None = None
    category_id: int | None = None


@dataclass
class StepRecord:
    """One step of the recurrence: the new state, its attention weights, and
    what backpropagation through the step needs."""

    x_id: int
    h: np.ndarray
    gru: GruCache
    alpha: np.ndarray | None = None
    beta: np.ndarray | None = None
    title_att: AttentionCache | None = None
    attr_att: AttentionCache | None = None


@dataclass
class DocForward:
    """A teacher-forced pass. With caches it also holds the step records,
    the stacked hidden states (T x d) and the next-word distributions (T x V)."""

    doc: IndexedDocument
    state: DocState
    total_nll: float
    per_word_nll: list[float]
    trace: AttentionTrace
    caches: list[StepRecord] = field(default_factory=list)
    hidden: np.ndarray | None = None
    probs: np.ndarray | None = None


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

    def prepare(self, doc: IndexedDocument) -> DocState:
        """Resolve the document's conditioning inputs for this variant."""
        spec = self.variant
        state = DocState(h0=np.zeros(self.config.d))
        if spec.needs_title:
            if not doc.title_ids:
                raise ValueError(f"variant {spec.name} requires a title (doc {doc.id})")
            state.title_ids = tuple(doc.title_ids)
        if spec.author:
            if doc.author_id is None:
                raise ValueError(f"variant {spec.name} requires an author (doc {doc.id})")
            if not 0 <= doc.author_id < self.config.n_authors:
                raise ValueError(f"author id {doc.author_id} out of range (doc {doc.id})")
            state.author_id = doc.author_id
        if spec.category:
            if doc.category_id is None:
                raise ValueError(f"variant {spec.name} requires a category (doc {doc.id})")
            if not 0 <= doc.category_id < self.config.n_categories:
                raise ValueError(f"category id {doc.category_id} out of range (doc {doc.id})")
            state.category_id = doc.category_id
        if spec.needs_title_encoder:
            state.enc = encode_title(self.title_cell, state.title_ids, self.E.value)
        if spec.state_init:
            state.h0 = self.state_W.value @ state.enc.last + self.state_b.value
        if spec.bow:
            state.mean_emb = self.E.value[list(state.title_ids)].mean(axis=0)
            state.bow_vec = self.bow_W.value @ state.mean_emb
        return state

    def step(self, x_id: int, h_prev: np.ndarray, state: DocState) -> StepRecord:
        """One recurrence step conditioned on the doc state; no output layer."""
        spec = self.variant
        x_emb = self.E.value[x_id]
        alpha = beta = None
        t_cache = a_cache = None

        candidates: list[np.ndarray] = []
        if spec.title_attention:
            c_title, alpha, t_cache = self.title_att.attend(state.enc.states, h_prev)
            candidates.append(c_title)
        if spec.author:
            candidates.append(self.author_table.value[state.author_id])
        if spec.category:
            candidates.append(self.category_table.value[state.category_id])

        if spec.bow:
            w = tensor.concat(x_emb, state.bow_vec)
        elif len(candidates) == 1:
            # single attribute: attention over one candidate is the identity
            beta = np.ones(1)
            w = tensor.concat(x_emb, candidates[0])
        elif candidates:
            context, beta, a_cache = self.attr_att.attend(np.array(candidates), h_prev)
            w = tensor.concat(x_emb, context)
        else:
            w = x_emb

        h, g_cache = self.main_cell.step(w, h_prev)
        return StepRecord(x_id, h, g_cache, alpha=alpha, beta=beta, title_att=t_cache, attr_att=a_cache)

    def output(self, h: np.ndarray) -> np.ndarray:
        """Next-word logits of one hidden state (d) or a stack of them (T x d)."""
        return h @ self.Wout.value.T + self.bout.value

    def unroll(
        self,
        states: list[DocState],
        choose: Callable[[list[StepRecord]], int | None],
        want_trace: bool = True,
    ) -> AttentionTrace:
        """The recurrence loop: step `states` in lockstep on one input stream.

        The stream starts at PAD. After each step `choose` gets the records,
        one per state, and returns the next input id or None to stop: the
        next target under teacher forcing, the chosen token when decoding.
        Returns the attention trace of the first state: title-word weights
        and attribute weights stacked one column per step, None where the
        variant has none.
        """
        hs = [state.h0 for state in states]
        alphas: list[np.ndarray | None] = []
        betas: list[np.ndarray | None] = []
        x_id = PAD_ID
        while x_id is not None:
            steps = [self.step(x_id, h, state) for h, state in zip(hs, states)]
            if want_trace:
                alphas.append(steps[0].alpha)
                betas.append(steps[0].beta)
            hs = [s.h for s in steps]
            x_id = choose(steps)

        def stack(cols):
            return np.column_stack(cols) if cols and cols[0] is not None else None

        return AttentionTrace(
            alpha=stack(alphas), beta=stack(betas), attr_names=list(self.variant.candidate_names)
        )

    def forward_document(
        self, doc: IndexedDocument, want_trace: bool = True, want_caches: bool = True
    ) -> DocForward:
        """Teacher-forced pass over the document's main text, EOS included.

        The recurrence runs first; the output layer then scores every
        target in one product over the stacked hidden states.
        """
        state = self.prepare(doc)
        targets = doc.text_ids
        if not targets:
            raise ValueError(f"document {doc.id} has no tokens to predict")
        steps: list[StepRecord] = []

        def teacher(new: list[StepRecord]) -> int | None:
            steps.append(new[0])
            return targets[len(steps) - 1] if len(steps) < len(targets) else None

        trace = self.unroll([state], teacher, want_trace)
        hidden = np.stack([s.h for s in steps])
        shifted = self.output(hidden)
        shifted -= shifted.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        sums = exps.sum(axis=1)
        nlls = np.log(sums) - shifted[np.arange(len(targets)), targets]
        fwd = DocForward(doc, state, float(nlls.sum()), nlls.tolist(), trace)
        if want_caches:
            exps /= sums[:, None]
            fwd.caches, fwd.hidden, fwd.probs = steps, hidden, exps
        return fwd

    def document_nll(self, doc: IndexedDocument) -> tuple[float, int]:
        fwd = self.forward_document(doc, want_trace=False, want_caches=False)
        return fwd.total_nll, len(fwd.per_word_nll)

    # ------------------------------------------------------------ backward

    def backward_document(self, fwd: DocForward) -> None:
        """Accumulate gradients of the summed NLL into the store.

        Full backpropagation through time: output layer, main GRU, both
        attentions, the state-init map, the bag-of-words projection, the
        title encoder, and the shared embeddings. Only the recurrence runs
        step by step; every weight matrix's gradient is one product over the
        stacked steps of the document (or of the title, for the encoder).
        """
        spec = self.variant
        state = fwd.state
        targets = fwd.doc.text_ids
        steps = fwd.caches
        n = len(targets)
        if len(steps) != n:
            raise ValueError("backward needs the caches of a full forward pass")
        d = self.config.d

        dlogits = fwd.probs.copy()
        dlogits[np.arange(n), targets] -= 1.0
        self.Wout.grad += dlogits.T @ fwd.hidden
        self.bout.grad += dlogits.sum(axis=0)
        dhidden = dlogits @ self.Wout.value

        d_states = np.zeros_like(state.enc.states) if state.enc is not None else None
        dbow = np.zeros(self.config.d_tilde) if spec.bow else None
        gate_grads: list = [None] * n
        title_us: list = [None] * n
        attr_us: list = [None] * n
        dh_next = np.zeros(d)

        for t in range(n - 1, -1, -1):
            step = steps[t]
            dw, dh_prev, gate_grads[t] = self.main_cell.backward(step.gru, dhidden[t] + dh_next)
            self.E.grad[step.x_id] += dw[:d]
            if spec.bow:
                dbow += dw[d:]
            elif spec.candidate_names:
                dcontext = dw[d:]
                if step.attr_att is not None:
                    dcands, dh_att, attr_us[t] = self.attr_att.backward(step.attr_att, dcontext)
                    dh_prev += dh_att
                else:
                    dcands = [dcontext]
                for name, dcand in zip(spec.candidate_names, dcands):
                    if name == "title":
                        dvecs, dh_att, title_us[t] = self.title_att.backward(step.title_att, dcand)
                        dh_prev += dh_att
                        d_states += dvecs
                    elif name == "author":
                        self.author_table.grad[state.author_id] += dcand
                    else:
                        self.category_table.grad[state.category_id] += dcand
            dh_next = dh_prev

        self.main_cell.add_weight_grads([step.gru for step in steps], gate_grads)
        if self.title_att is not None:
            self.title_att.add_weight_grads([step.title_att for step in steps], title_us)
        if self.attr_att is not None:
            self.attr_att.add_weight_grads([step.attr_att for step in steps], attr_us)
        if spec.state_init:
            self.state_W.grad += np.outer(dh_next, state.enc.last)
            self.state_b.grad += dh_next
            d_states[-1] += self.state_W.value.T @ dh_next
        if spec.bow:
            self.bow_W.grad += np.outer(dbow, state.mean_emb)
            dmean = self.bow_W.value.T @ dbow / len(state.title_ids)
            for token_id in state.title_ids:
                self.E.grad[token_id] += dmean
        if state.enc is not None:
            title_grads: list = [None] * len(state.enc)
            dh_carry = np.zeros(self.config.d_tilde)
            for t in range(len(state.enc) - 1, -1, -1):
                dw_t, dh_carry, title_grads[t] = self.title_cell.backward(
                    state.enc.caches[t], d_states[t] + dh_carry
                )
                self.E.grad[state.title_ids[t]] += dw_t
            self.title_cell.add_weight_grads(state.enc.caches, title_grads)


def build(config: ModelConfig) -> SamModel:
    """Deterministically initialized model for the given configuration."""
    return SamModel(config, np.random.default_rng(config.seed))


def save_model(model: SamModel, path) -> None:
    tensor.save_checkpoint(path, model.store, config=asdict(model.config))


def load_model(path) -> SamModel:
    values, config = tensor.load_checkpoint(path)
    if config is None:
        raise ValueError(f"checkpoint {path} carries no model config")
    model = SamModel(ModelConfig(**config), rng=None)
    model.store.load_values(values, source=f"checkpoint {path}")
    return model
