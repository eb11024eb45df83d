"""Spans around the package's public calls, recorded from outside the package.

`instrument` replaces functions and methods of the samlm modules with
wrappers that open a span (name, start, end, parent) on entry and close it on
exit. Spans are kept in flat in-memory arrays while the run goes on and are
written out once, when it ends. A span's self time is its duration minus the
time covered by its direct child spans; spans nest because the program is
single-threaded.

Wrappers are patched in every samlm module that holds the same function
object, because modules import each other's functions by name (`model`
calls `encode_title` from its own namespace, for instance).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, fn, name):
        """Wrap `fn`; `name` is a string or a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer._open(name if isinstance(name, str) else name(args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def counter(self, fn, name: str):
        """Wrap `fn` to count its calls without a span (for hot recursions)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.on:
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        if name not in self._ids or ancestor not in self._ids:
            return 0
        nids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        up = parents[nids == self._ids[name]]
        hit = np.zeros(len(up), dtype=bool)
        while (up >= 0).any():
            live = up >= 0
            hit[live] |= nids[up[live]] == self._ids[ancestor]
            up = np.where(live, parents[np.maximum(up, 0)], -1)
        return int(hit.sum())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s`, and `self_s`."""
        nids = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        n = len(self.names)
        calls = np.bincount(nids, minlength=n)
        total = np.bincount(nids, weights=dur, minlength=n)
        own = np.bincount(nids, weights=self_time, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _cell_name(method: str):
    # GruCell keeps no name of its own; its parameters are named "<prefix>.Wz"
    return lambda args: f"gru.{args[0].Wz.name.split('.')[0]}.{method}"


def _attention_name(method: str):
    return lambda args: f"attention.{args[0].M.name}.{method}"


def _patch_function(module, attr: str, wrapper) -> None:
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("samlm") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Patch the samlm modules so that `tracer` sees their public calls.

    `cli` is left alone: it only composes these calls.
    """
    from samlm import attention, corpus, evaluate, generation, gru, lda, model, ngram, tensor, trainer

    functions = {
        corpus: ["ingest", "build_vocab", "build_attributes", "index_corpus"],
        tensor: ["save_checkpoint", "load_checkpoint"],
        model: ["build", "save_model", "load_model"],
        attention: ["encode_title"],
        evaluate: ["perplexity", "word_delta"],
        generation: ["generate", "style_variation", "masked_distribution", "sample_index", "js_divergence"],
        lda: ["fit", "label_corpus"],
    }
    for module, attrs in functions.items():
        short = module.__name__.split(".")[-1]
        for attr in attrs:
            _patch_function(module, attr, tracer.span(getattr(module, attr), f"{short}.{attr}"))

    methods = [
        (tensor.ParamStore, "clip_grad_norm", "tensor.ParamStore.clip_grad_norm"),
        (model.SamModel, "prepare", "model.SamModel.prepare"),
        (model.SamModel, "step", "model.SamModel.step"),
        (model.SamModel, "forward_document", "model.SamModel.forward_document"),
        (model.SamModel, "backward_document", "model.SamModel.backward_document"),
        (gru.GruCell, "step", _cell_name("step")),
        (gru.GruCell, "backward", _cell_name("backward")),
        (attention.BilinearAttention, "attend", _attention_name("attend")),
        (attention.BilinearAttention, "backward", _attention_name("backward")),
        (trainer.Adam, "step", "trainer.Adam.step"),
        (ngram.KneserNeyModel, "document_nll", "ngram.document_nll"),
        (ngram.KneserNeyModel, "perplexity", "ngram.perplexity"),
    ]
    for cls, attr, name in methods:
        setattr(cls, attr, tracer.span(getattr(cls, attr), name))
    fit = ngram.KneserNeyModel.__dict__["fit"].__func__
    ngram.KneserNeyModel.fit = classmethod(tracer.span(fit, "ngram.fit"))
    ngram.KneserNeyModel._prob = tracer.counter(ngram.KneserNeyModel._prob, "ngram.prob_lookups")
