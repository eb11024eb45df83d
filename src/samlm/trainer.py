"""Mini-batch training: Adam, BPTT, global-norm clipping, early stopping on
validation log-likelihood, checkpointing."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluate, settings
from .atomic import write_text
from .corpus import IndexedDocument
from .model import SamModel, save_model
from .tensor import ParamStore, run_blocked


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 20
    max_epochs: int = 100
    patience: int = 5
    clip_norm: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("lr", "clip_norm"):
            settings.real(name, getattr(self, name))
        for name in ("batch_size", "max_epochs", "patience"):
            settings.integer(name, getattr(self, name), 1)
        settings.integer("seed", self.seed, 0)


class Adam:
    """Bias-corrected Adam over a ParamStore; grads are zeroed after a step.

    The moment decays and epsilon are the defaults of Kingma & Ba
    (arXiv:1412.6980). A step is one blocked pass (`tensor.run_blocked`)
    that allocates no tensor-sized array: every operation writes into the
    moments, the gradient (spent once the moments are updated) or a worker's
    scratch slice, in the same order for every element, so the result does
    not depend on the slicing or the worker count."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.lr = lr
        self.t = 0
        # np.zeros maps zeroed pages lazily, where zeros_like writes them all
        self.m = {p.name: np.zeros(p.shape) for p in store.params()}
        self.v = {p.name: np.zeros(p.shape) for p in store.params()}

    def step(self) -> None:
        self.t += 1
        b1, b2, lr, eps = self.BETA1, self.BETA2, self.lr, self.EPS
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        params = list(self.store.params())

        def update(i, value, g, m, v, buf, ok):
            if not np.isfinite(g, out=ok).all():
                raise ValueError(f"non-finite gradient in {params[i].name}")
            # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g
            m *= b1
            m += np.multiply(g, 1.0 - b1, out=buf)
            v *= b2
            np.multiply(g, 1.0 - b2, out=buf)
            v += np.multiply(buf, g, out=buf)
            # value -= lr (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(m, bias1, out=g)
            g *= lr
            np.divide(v, bias2, out=buf)
            np.sqrt(buf, out=buf)
            buf += eps
            g /= buf
            value -= g
            g[...] = 0.0

        run_blocked([(p.value, p.grad, self.m[p.name], self.v[p.name]) for p in params], update)


@dataclass
class EpochStats:
    epoch: int
    train_ppl: float
    valid_ppl: float
    seconds: float


@dataclass
class TrainResult:
    best_epoch: int
    best_valid_nll: float
    history: list[EpochStats] = field(default_factory=list)

    @property
    def best_valid_ppl(self) -> float:
        return float(np.exp(self.best_valid_nll))


def mean_nll(model: SamModel, docs: list[IndexedDocument]) -> float:
    """Corpus mean per-token negative log-likelihood."""
    report = evaluate.perplexity(model, docs)
    return report.total_nll / report.token_count


def _batches(docs, batch_size: int, rng: np.random.Generator):
    """Shuffle, then group documents of similar length into batches and
    shuffle the batch order. Equal lengths keep the shuffled order."""
    order = rng.permutation(len(docs))
    shuffled = [docs[i] for i in order]
    shuffled.sort(key=lambda d: len(d.text_ids))
    batches = [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]


def train(
    model: SamModel,
    train_docs: list[IndexedDocument],
    valid_docs: list[IndexedDocument],
    cfg: TrainConfig,
    run_dir=None,
    log=None,
) -> TrainResult:
    """Train until validation NLL stops improving for `patience` epochs.

    Each mini-batch is one forward and one backward pass that steps its
    documents in lockstep (`SamModel.forward_document`), and its gradients
    are token-means over the batch. A row of a several-row product may differ
    from the one-row product in its last bits, so the trained weights depend
    on the batch composition in their low bits; the same seed still gives the
    same weights. The model is left holding the best parameters,
    and `<run>/best.ckpt`, `<run>/last.ckpt`, `<run>/history.csv` are written
    when a run directory is given.
    """
    cfg.validate()
    if not train_docs or not valid_docs:
        raise ValueError("train and validation splits must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.store, cfg.lr)
    model.store.zero_grads()

    history: list[EpochStats] = []
    best_nll = np.inf  # epoch 1 always beats it, since a non-finite NLL raises
    best_epoch = 0
    bad_epochs = 0

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        epoch_nll, epoch_tokens = 0.0, 0
        for batch in _batches(train_docs, cfg.batch_size, rng):
            fwd = model.forward_document(batch, want_trace=False)
            model.backward_document(fwd)
            epoch_nll += fwd.total_nll
            batch_tokens = len(fwd.per_word_nll)
            epoch_tokens += batch_tokens
            model.store.clip_grad_norm(cfg.clip_norm, scale=1.0 / batch_tokens)
            optimizer.step()

        valid_nll = mean_nll(model, valid_docs)
        if not np.isfinite(valid_nll):
            raise ValueError(f"validation NLL is not finite at epoch {epoch}: {valid_nll}")
        stats = EpochStats(
            epoch=epoch,
            train_ppl=float(np.exp(epoch_nll / epoch_tokens)),
            valid_ppl=float(np.exp(valid_nll)),
            seconds=time.perf_counter() - started,
        )
        history.append(stats)
        if log is not None:
            log(f"epoch {epoch:3d}  train_ppl {stats.train_ppl:10.3f}  valid_ppl {stats.valid_ppl:10.3f}")

        if valid_nll < best_nll:
            best_nll = valid_nll
            best_epoch = epoch
            if epoch < cfg.max_epochs:  # after the last epoch the model holds them
                best_values = model.store.copy_values()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break

    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        save_model(model, run_dir / "last.ckpt")
    if best_epoch != epoch:
        model.store.load_values(best_values)
    result = TrainResult(best_epoch=best_epoch, best_valid_nll=float(best_nll), history=history)
    if run_dir is not None:
        save_model(model, run_dir / "best.ckpt")
        write_history_csv(result.history, run_dir / "history.csv", cfg)
    return result


def write_history_csv(history: list[EpochStats], path, cfg: TrainConfig) -> None:
    lines = ["epoch,train_ppl,valid_ppl,seconds"]
    for s in history:
        lines.append(f"{s.epoch},{s.train_ppl:.9g},{s.valid_ppl:.9g},{s.seconds:.3f}")
    lines.append(f"# clip_norm={cfg.clip_norm} lr={cfg.lr} batch_size={cfg.batch_size} seed={cfg.seed}")
    write_text(path, "\n".join(lines) + "\n")
