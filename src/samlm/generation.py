"""Attribute-controlled text generation and style variation via attribute
substitution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import settings
from .attention import AttentionTrace
from .corpus import EOS_ID, PAD_ID, UNK_ID, AttributeInventory, Document, Vocabulary, index_document
from .model import BatchState, SamModel, StepRecord
from .tensor import softmax


@dataclass
class GenRequest:
    title: tuple[str, ...] | None = None
    author: str | None = None
    category: str | None = None
    max_len: int = 50
    temperature: float = 1.0
    strategy: str = "sample"
    seed: int = 0

    def validate(self) -> None:
        settings.integer("max_len", self.max_len, 1)
        settings.integer("seed", self.seed, 0)
        if self.strategy not in ("greedy", "sample"):
            raise ValueError(f"strategy must be 'greedy' or 'sample', got {self.strategy!r}")
        if self.strategy == "sample":
            settings.real("temperature", self.temperature)


@dataclass
class GenResult:
    tokens: list[str]
    probabilities: list[float]
    trace: AttentionTrace
    warnings: list[str] = field(default_factory=list)


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector; an index of probability 0 is
    never drawn. The first running sum above the draw marks the index, and a
    draw that rounds up to the total lands on the last positive entry."""
    cumulative = np.cumsum(probs)
    index = np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right")
    return int(min(index, np.searchsorted(cumulative, cumulative[-1])))


def masked_distribution(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Next-token distribution with PAD and UNK masked out and renormalized."""
    scaled = logits / temperature
    scaled = scaled - scaled.max()
    weights = np.exp(scaled)
    weights[PAD_ID] = 0.0
    weights[UNK_ID] = 0.0
    return weights / weights.sum()


def _conditioning(
    model: SamModel, vocab: Vocabulary, attrs: AttributeInventory, req: GenRequest
) -> tuple[BatchState, list[str]]:
    source = Document(id="generation", text=(), title=req.title, author=req.author, category=req.category)
    warnings = [
        f"unknown {what} {name!r}: using the unknown-{what} embedding"
        for what, used, name, inventory in (
            ("author", model.variant.author, req.author, attrs.authors),
            ("category", model.variant.category, req.category, attrs.categories),
        )
        if used and name is not None and name not in inventory.index
    ]
    return model.prepare([index_document(source, vocab, attrs)]), warnings


def generate(
    model: SamModel, vocab: Vocabulary, attrs: AttributeInventory, req: GenRequest
) -> GenResult:
    """Autoregressive decoding with the same conditioning as teacher forcing.

    Greedy takes the argmax (ties to the lowest index); sampling draws from
    the temperature-scaled softmax under the request seed. PAD and UNK are
    masked; EOS terminates the output.
    """
    req.validate()
    state, warnings = _conditioning(model, vocab, attrs, req)
    return _decode(model, vocab, req, [state], warnings)


def _decode(
    model: SamModel,
    vocab: Vocabulary,
    req: GenRequest,
    states: list[BatchState],
    warnings: list[str],
    watch: Callable[[list[np.ndarray]], None] | None = None,
) -> GenResult:
    """Decode from states[0], a one-row state. Any further states are
    stepped beside it on the same tokens, each as a one-row step of its own,
    so every product keeps the bits of a matrix-vector one. Each stepped
    state goes through the output layer once, and `watch` sees every step's
    logits, one vector per state."""
    rng = np.random.default_rng(req.seed)
    tokens: list[str] = []
    chosen_probs: list[float] = []

    def choose(steps: list[StepRecord]) -> list[int] | None:
        logits = [model.output(step.h[0]) for step in steps]
        if watch is not None:
            watch(logits)
        greedy = req.strategy == "greedy"
        probs = masked_distribution(logits[0], 1.0 if greedy else req.temperature)
        idx = int(np.argmax(probs)) if greedy else sample_index(probs, rng)
        tokens.append(vocab.token_for(idx))
        chosen_probs.append(float(probs[idx]))
        return None if idx == EOS_ID or len(tokens) == req.max_len else [idx]

    trace = model.unroll(states, choose)
    trace.main_tokens = list(tokens)
    trace.title_tokens = list(req.title) if req.title else []
    return GenResult(tokens=tokens, probabilities=chosen_probs, trace=trace, warnings=warnings)


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats; 0 iff p == q, at most ln 2."""
    m = 0.5 * (p + q)
    kl_pm = float(np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p / m, 1.0)), 0.0)))
    kl_qm = float(np.sum(np.where(q > 0, q * np.log(np.where(q > 0, q / m, 1.0)), 0.0)))
    return 0.5 * kl_pm + 0.5 * kl_qm


@dataclass
class StyleVariation:
    original: GenResult
    varied: GenResult
    divergence: float
    token_overlap: float


def style_variation(
    model: SamModel,
    vocab: Vocabulary,
    attrs: AttributeInventory,
    source: Document,
    fake_author: str,
    **decoding,
) -> StyleVariation:
    """Regenerate the source document's text under a substituted author.

    Both generations share title, category, and the `decoding` settings
    (`GenRequest`'s max_len, temperature, strategy and seed). The divergence
    is the mean per-step Jensen-Shannon divergence between the two next-token
    distributions along the original generation's token path, so the two
    streams are compared at identical inputs; free-running difference is
    summarized separately as token overlap.

    Each author is conditioned once. The substituted-author stream is stepped
    beside the original decode, so with L original and L' varied tokens the
    call makes 2L + L' model steps.
    """
    if not model.variant.author:
        raise ValueError(f"variant {model.variant.name} has no author attribute")
    if source.author is None:
        raise ValueError(f"source document {source.id} has no author")
    base = dict(title=source.title, category=source.category, **decoding)
    req_orig = GenRequest(author=source.author, **base)
    req_fake = GenRequest(author=fake_author, **base)
    req_orig.validate()
    state_orig, warnings_orig = _conditioning(model, vocab, attrs, req_orig)
    state_fake, warnings_fake = _conditioning(model, vocab, attrs, req_fake)

    divergences: list[float] = []

    def compare(logits: list[np.ndarray]) -> None:
        divergences.append(js_divergence(softmax(logits[0]), softmax(logits[1])))

    original = _decode(model, vocab, req_orig, [state_orig, state_fake], warnings_orig, compare)
    varied = _decode(model, vocab, req_fake, [state_fake], warnings_fake)

    set_orig = {t for t in original.tokens if t != vocab.token_for(EOS_ID)}
    set_fake = {t for t in varied.tokens if t != vocab.token_for(EOS_ID)}
    union = set_orig | set_fake
    overlap = len(set_orig & set_fake) / len(union) if union else 1.0
    return StyleVariation(
        original=original,
        varied=varied,
        divergence=float(np.mean(divergences)),
        token_overlap=overlap,
    )

