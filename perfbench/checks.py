"""Output checks, each against a computation made here, apart from the
program, or against a property the method must have."""

from __future__ import annotations

import math

import numpy as np

from samlm.corpus import EOS_ID, PAD_ID, UNK_ID, IndexedDocument


class Checks:
    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.results)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def reference_nll(values: dict[str, np.ndarray], doc: IndexedDocument) -> float:
    """Summed NLL of SAM-Title-State-Au-Att, written from the model's
    equations: a title GRU, state init from its last state, bilinear attention
    over title states and then over (title context, author row), a main GRU on
    [embedding; context], and an affine softmax output."""

    def gru(prefix, w, h):
        W = {g: values[f"{prefix}.{g}"] for g in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")}
        z = _sigmoid(W["Wz"] @ w + W["Uz"] @ h)
        r = _sigmoid(W["Wr"] @ w + W["Ur"] @ h)
        c = np.tanh(W["Wc"] @ w + W["Uc"] @ (r * h))
        return z * h + (1.0 - z) * c

    E = values["E"]
    h = np.zeros(values["title.Uz"].shape[0])
    states = []
    for y in doc.title_ids:
        h = gru("title", E[y], h)
        states.append(h)
    S = np.stack(states)
    h = values["state.W"] @ S[-1] + values["state.b"]
    author = values["authors"][doc.author_id]
    total = 0.0
    for x, target in zip((PAD_ID,) + doc.text_ids[:-1], doc.text_ids):
        title_ctx = _softmax(S @ (values["M1"] @ h)) @ S
        cands = np.stack([title_ctx, author])
        ctx = _softmax(cands @ (values["M2"] @ h)) @ cands
        h = gru("main", np.concatenate([E[x], ctx]), h)
        logits = values["Wout"] @ h + values["bout"]
        top = logits.max()
        total += top + math.log(np.exp(logits - top).sum()) - logits[target]
    return float(total)


GRADCHECK_TENSORS = (
    ["E", "Wout", "M1", "M2", "authors", "state.W"]
    + [f"main.{g}" for g in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")]
    + [f"title.{g}" for g in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")]
)


def gradient_check(model, doc: IndexedDocument, rng: np.random.Generator, per_tensor: int):
    """Central differences on a seeded handful of coordinates per tensor.

    Among 64 seeded candidate coordinates of each tensor the `per_tensor`
    largest analytic gradients are checked, so that a coordinate the document
    never touches cannot pass as 0 == 0. For `E` and `authors`, whose rows
    the document mostly leaves alone, the candidates lie in the rows it uses
    (its words, PAD, its author). The relative error divides by at
    least 1e-4: rounding in the difference quotient is about 1e-16 * |f| / eps,
    some 6e-10 for a few tokens at V = 10 000, so smaller gradients are held
    to an absolute 1e-8 instead. Returns the worst relative error and the
    coordinate where it occurred.
    """
    eps = 1e-5
    store = model.store
    store.zero_grads()
    model.backward_document(model.forward_document(doc, want_trace=False))
    worst, where = 0.0, ""
    for name in GRADCHECK_TENSORS:
        param = store[name]
        grad = param.grad.reshape(-1)
        candidates = rng.choice(grad.size, size=min(64, grad.size), replace=False)
        if name in ("E", "authors"):
            rows = sorted(set(doc.title_ids) | {PAD_ID, *doc.text_ids[:-1]}) if name == "E" else [doc.author_id]
            cols = rng.integers(param.shape[1], size=64)
            candidates = np.array(rows)[rng.integers(len(rows), size=64)] * param.shape[1] + cols
        picked = candidates[np.argsort(-np.abs(grad[candidates]), kind="stable")[:per_tensor]]
        flat = param.value.reshape(-1)
        for i in picked:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = model.forward_document(doc, want_trace=False, want_caches=False).total_nll
            flat[i] = orig - eps
            f_minus = model.forward_document(doc, want_trace=False, want_caches=False).total_nll
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            rel = abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-4)
            if rel > worst:
                worst, where = rel, f"{name}[{int(i)}] analytic {grad[i]:.6e} numeric {numeric:.6e}"
    store.zero_grads()
    return worst, where


def kn_normalization_error(kn, contexts, vocab_size: int) -> float:
    """Largest |sum_w P(w | ctx) - 1| over the given contexts."""
    worst = 0.0
    for ctx in contexts:
        total = math.fsum(kn.prob(ctx, w) for w in range(vocab_size))
        worst = max(worst, abs(total - 1.0))
    return worst


def generation_problems(tokens: list[str], probabilities: list[float], vocab, max_len: int) -> list[str]:
    problems = []
    ids = [vocab.id_for(t) for t in tokens]
    if not 1 <= len(ids) <= max_len:
        problems.append(f"length {len(ids)} outside [1, {max_len}]")
    if PAD_ID in ids or UNK_ID in ids or vocab.token_for(PAD_ID) in tokens or vocab.token_for(UNK_ID) in tokens:
        problems.append("PAD or UNK generated")
    if EOS_ID in ids[:-1]:
        problems.append("EOS before the last token")
    if not all(0.0 < p <= 1.0 for p in probabilities):
        problems.append("a chosen-token probability outside (0, 1]")
    return problems


def planted_purity(labels: list[int], truth: list[str]) -> float:
    """Share of documents whose label's majority planted category is theirs."""
    hits = 0
    for label in set(labels):
        members = [t for lab, t in zip(labels, truth) if lab == label]
        hits += max(members.count(t) for t in set(members))
    return hits / len(truth)
